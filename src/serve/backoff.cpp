#include "src/serve/backoff.hpp"

#include "src/util/rng.hpp"

namespace qcongest::serve {

std::uint64_t backoff_delay_ms(const BackoffParams& params, std::uint64_t stream,
                               std::uint64_t attempt) {
  std::uint64_t delay = params.base_ms;
  // Shift with saturation: attempt counts can exceed 63 in a long retry
  // loop and the delay must pin at the cap, not wrap.
  if (attempt >= 64 || (delay != 0 && delay > (params.cap_ms >> attempt))) {
    delay = params.cap_ms;
  } else {
    delay <<= attempt;
    if (delay > params.cap_ms) delay = params.cap_ms;
  }
  const std::uint64_t spread = delay / 4;
  if (spread > 1) {
    const std::uint64_t h =
        util::mix64(util::mix64(params.seed ^ (stream << 20)) ^ attempt);
    delay -= h % spread;
  }
  return delay;
}

}  // namespace qcongest::serve

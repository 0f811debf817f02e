#include "src/util/stats.hpp"

#include <algorithm>

namespace qcongest::util {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  double lo = *std::max_element(values.begin(),
                                values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace qcongest::util

#include "src/quantum/gates.hpp"

#include <cmath>

namespace qcongest::quantum::gates {

namespace {
constexpr double kInvSqrt2 = 0.70710678118654752440;
}

Gate1 identity() { return {{Amplitude{1, 0}, {0, 0}, {0, 0}, {1, 0}}}; }

Gate1 hadamard() {
  return {{Amplitude{kInvSqrt2, 0}, {kInvSqrt2, 0}, {kInvSqrt2, 0}, {-kInvSqrt2, 0}}};
}

Gate1 pauli_x() { return {{Amplitude{0, 0}, {1, 0}, {1, 0}, {0, 0}}}; }

Gate1 pauli_y() { return {{Amplitude{0, 0}, {0, -1}, {0, 1}, {0, 0}}}; }

Gate1 pauli_z() { return {{Amplitude{1, 0}, {0, 0}, {0, 0}, {-1, 0}}}; }

Gate1 s() { return {{Amplitude{1, 0}, {0, 0}, {0, 0}, {0, 1}}}; }

Gate1 s_dagger() { return {{Amplitude{1, 0}, {0, 0}, {0, 0}, {0, -1}}}; }

Gate1 t() { return phase(M_PI / 4.0); }

Gate1 t_dagger() { return phase(-M_PI / 4.0); }

Gate1 rx(double theta) {
  double c = std::cos(theta / 2), sn = std::sin(theta / 2);
  return {{Amplitude{c, 0}, {0, -sn}, {0, -sn}, {c, 0}}};
}

Gate1 ry(double theta) {
  double c = std::cos(theta / 2), sn = std::sin(theta / 2);
  return {{Amplitude{c, 0}, {-sn, 0}, {sn, 0}, {c, 0}}};
}

Gate1 rz(double theta) {
  return {{std::polar(1.0, -theta / 2), {0, 0}, {0, 0}, std::polar(1.0, theta / 2)}};
}

Gate1 phase(double phi) {
  return {{Amplitude{1, 0}, {0, 0}, {0, 0}, std::polar(1.0, phi)}};
}

Gate1 dagger(const Gate1& g) {
  return {{std::conj(g(0, 0)), std::conj(g(1, 0)), std::conj(g(0, 1)), std::conj(g(1, 1))}};
}

bool is_real(const Gate1& g) {
  for (const Amplitude& c : g.m) {
    if (c.imag() != 0.0) return false;  // qlint-allow(float-equal): structural zero selects the real representation
  }
  return true;
}

bool is_unitary(const Gate1& g, double tol) {
  // Check G^dagger G == I entrywise.
  Gate1 d = dagger(g);
  for (unsigned r = 0; r < 2; ++r) {
    for (unsigned c = 0; c < 2; ++c) {
      Amplitude sum{0, 0};
      for (unsigned k = 0; k < 2; ++k) sum += d(r, k) * g(k, c);
      Amplitude expected = (r == c) ? Amplitude{1, 0} : Amplitude{0, 0};
      if (std::abs(sum - expected) > tol) return false;
    }
  }
  return true;
}

}  // namespace qcongest::quantum::gates

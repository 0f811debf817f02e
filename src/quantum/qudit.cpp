#include "src/quantum/qudit.hpp"

#include <cmath>
#include <stdexcept>

namespace qcongest::quantum {

QuditState::QuditState(std::size_t dimension) {
  if (dimension == 0) throw std::invalid_argument("QuditState: dimension 0");
  amps_.assign(dimension, Amplitude{0, 0});
  amps_[0] = Amplitude{1, 0};
}

QuditState QuditState::uniform(std::size_t dimension) {
  QuditState s(dimension);
  double a = 1.0 / std::sqrt(static_cast<double>(dimension));
  s.amps_.assign(dimension, Amplitude{a, 0});
  return s;
}

double QuditState::norm() const {
  double total = 0.0;
  for (const Amplitude& a : amps_) total += std::norm(a);
  return std::sqrt(total);
}

void QuditState::apply_phase_oracle(const std::function<bool(std::size_t)>& f) {
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    if (f(i)) amps_[i] = -amps_[i];
  }
}

void QuditState::reflect_about_uniform() {
  Amplitude mean{0, 0};
  for (const Amplitude& a : amps_) mean += a;
  mean /= static_cast<double>(amps_.size());
  for (Amplitude& a : amps_) a = 2.0 * mean - a;
}

Amplitude QuditState::overlap_with_uniform() const {
  Amplitude sum{0, 0};
  for (const Amplitude& a : amps_) sum += a;
  return sum / std::sqrt(static_cast<double>(amps_.size()));
}

std::size_t QuditState::sample(util::Rng& rng) const {
  double r = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    cumulative += std::norm(amps_[i]);
    if (r < cumulative) return i;
  }
  return amps_.size() - 1;
}

double QuditState::probability(std::size_t i) const { return std::norm(amps_.at(i)); }

}  // namespace qcongest::quantum

#pragma once

#include <vector>

namespace qcongest::util {

/// Median of a copy of the data (empty input -> 0).
double median(std::vector<double> values);

}  // namespace qcongest::util

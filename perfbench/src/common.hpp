// Shared constants and small statistics helpers of the perfbench program.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline constexpr wan::AppId kApp{1};
inline constexpr int kManagers = 3;       ///< M
inline constexpr int kCheckQuorum = 2;    ///< C; the update quorum is M-C+1 = 2
inline constexpr int kHosts = 4;
inline constexpr std::uint32_t kClientId = 900;  ///< the driver's own endpoint
inline constexpr std::uint32_t kEchoId = 901;    ///< fabric echo endpoint

/// Nearest-rank percentile of `v` (q in [0,1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(q * n);
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// One reported number: name, value and unit, printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench

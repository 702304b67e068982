// The result one workload run reports, plus the order statistics the
// metrics are computed with.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (q in [0,1]) of `v`: the element at the rounded index
/// q·(n−1) of the sorted sample; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  /// False when an output check failed (a wrong or incomplete answer).
  bool correct = true;
  /// Operations attempted and failed. A failed output check, an error
  /// reply, a timeout and a request of an invalid (backlogged) open-loop
  /// phase all count as failures.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Figures printed for information only, outside the result line.
  std::vector<Metric> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one failed output check.
  void Mismatch(const std::string& what) {
    correct = false;
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

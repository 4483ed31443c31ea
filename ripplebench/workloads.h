// The benchmark's named workloads (README.md says why each was chosen).

#ifndef RIPPLEBENCH_WORKLOADS_H_
#define RIPPLEBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ripplebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the run: the work of about this many seconds on a 4-core x86
  /// container (the traced run splits it between its two passes).
  double seconds = 10.0;
  bool trace = false;
  /// The self-test's scale: a small overlay and data set.
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false, one line each.
  std::vector<std::string> errors;
};

bool IsWorkload(const std::string& name);

/// Runs one workload. With `trace` off the report holds the end-to-end
/// metrics; with it on, the per-layer metrics of a traced pass that
/// replays the queries of an untraced pass.
Report RunWorkload(const RunOptions& opts);

}  // namespace ripplebench

#endif  // RIPPLEBENCH_WORKLOADS_H_

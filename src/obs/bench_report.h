#ifndef RIPPLE_OBS_BENCH_REPORT_H_
#define RIPPLE_OBS_BENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ripple::obs {

/// Version of the BENCH_<suite>.json document layout. Bump on any
/// incompatible change and teach tools/bench_check.py the migration.
/// The schema is documented field-by-field in docs/OBSERVABILITY.md.
inline constexpr int kBenchSchemaVersion = 2;

/// Lower-cased, dash-separated identifier ("Figure 4" -> "figure-4").
std::string Slug(const std::string& s);

/// Run-level metadata stamped into every BENCH_<suite>.json this
/// reporter touches — enough to reproduce the run and to refuse
/// apples-to-oranges diffs (tools/bench_check.py compares config).
struct BenchMeta {
  std::string suite;       // "figs" | "ablations" — selects the file
  std::string binary;      // case-id prefix, e.g. "figure-4"
  std::string git_sha;     // build-time HEAD (RIPPLE_GIT_SHA)
  std::string build_type;  // CMAKE_BUILD_TYPE at configure time
  uint64_t seed = 0;       // master bench seed
  /// Scale knobs in effect (min_log_n, queries, ...), recorded so a
  /// baseline diff against a differently-scaled run fails loudly.
  std::vector<std::pair<std::string, double>> config;
};

/// Collects benchmark results as (case id -> metric name -> value) and
/// writes them into a schema-versioned, machine-readable
/// `BENCH_<suite>.json`, merging with cases other binaries already wrote
/// there (each binary owns the id prefix `<binary>/`). This is the one
/// sanctioned path for bench result emission — tools/lint_docs.sh
/// rejects raw fprintf-to-CSV elsewhere — and the document it writes is
/// the perf trajectory tools/bench_check.py gates regressions against.
class BenchReporter {
 public:
  explicit BenchReporter(BenchMeta meta) : meta_(std::move(meta)) {}

  const BenchMeta& meta() const { return meta_; }

  /// Records one metric of one case. The full case id is
  /// `<binary>/<case_id>`; re-adding a metric overwrites it.
  void AddMetric(const std::string& case_id, const std::string& metric,
                 double value);

  /// All cases recorded so far, keyed by full id.
  const std::map<std::string, std::map<std::string, double>>& cases() const {
    return cases_;
  }

  /// The standalone JSON document for this reporter's cases only.
  std::string ToJson() const;

  /// Reads `<dir>/BENCH_<suite>.json` if present, replaces every case
  /// under this binary's prefix with ours, keeps other binaries' cases,
  /// and rewrites the file (meta is stamped fresh). An unparseable
  /// existing file is overwritten rather than failing the bench.
  Status WriteMerged(const std::string& dir) const;

  /// `<dir>/BENCH_<suite>.json`.
  static std::string FilePath(const std::string& dir,
                              const std::string& suite);

  /// Writes one result panel as CSV to
  /// `<dir>/<suite>/<binary>-<slug(title)>.csv` (directories created),
  /// one row per x value, one column per series — the plotting-friendly
  /// sibling of the JSON cases.
  Status WritePanelCsv(const std::string& dir, const std::string& title,
                       const std::string& x_label,
                       const std::vector<std::string>& x_values,
                       const std::vector<std::string>& series_names,
                       const std::vector<std::vector<double>>& series_values)
      const;

 private:
  std::string JsonDocument(
      const std::vector<std::pair<std::string, std::string>>& foreign_cases)
      const;

  BenchMeta meta_;
  std::map<std::string, std::map<std::string, double>> cases_;
};

}  // namespace ripple::obs

#endif  // RIPPLE_OBS_BENCH_REPORT_H_

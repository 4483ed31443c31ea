// ripplebench: runs one named workload and prints its metrics.
//
//   ripplebench --workload topk-lossy|ingest-cache --seed N
//               --seconds S --trace 0|1 [--tiny]
//
// Every metric is printed as `name = value unit`; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer metrics. The exit code is non-zero when an answer differs
// from the oracle or a replayed pass differs from the first pass.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "ripplebench: %s\nusage: ripplebench --workload "
               "topk-lossy|ingest-cache --seed N --seconds S "
               "--trace 0|1 [--tiny]\n",
               why);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ripplebench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opts.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && ParseU64(value, &n)) {
      opts.seed = n;
    } else if (arg == "--seconds" && ParseU64(value, &n) && n > 0) {
      opts.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && ParseU64(value, &n) && n <= 1) {
      opts.trace = n == 1;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  if (!have_workload || !ripplebench::IsWorkload(opts.workload)) {
    return Usage("unknown or missing --workload");
  }

  const ripplebench::Report report = ripplebench::RunWorkload(opts);
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "ripplebench: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const ripplebench::Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%-28s = %.17g %s\n", m.name.c_str(), v, m.unit.c_str());
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}

// Unit tests for the observability subsystem: percentiles, histograms,
// the metrics registry, the JSON exporters and the leveled logger.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "common/json.h"
#include "common/log.h"
#include "exec/executor.h"
#include "obs/bench_report.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace ripple {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON checker — enough to assert the
// exporters emit syntactically valid JSON without pulling a parser dep.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != '}') return false;
    ++pos_;
    return true;
  }
  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!Value()) return false;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != ']') return false;
    ++pos_;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// NearestRankPercentile

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile({}, 100), 0.0);
}

TEST(PercentileTest, SingleSample) {
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(one, 0), 7.0);
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(one, 50), 7.0);
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(one, 100), 7.0);
}

TEST(PercentileTest, NearestRankSemantics) {
  const std::vector<double> v = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, 0), 10.0);    // minimum
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, 10), 10.0);   // rank 1
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, 50), 50.0);   // rank 5
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, 51), 60.0);   // rank 6
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, 90), 90.0);   // rank 9
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, 99), 100.0);  // rank 10
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, 100), 100.0);
}

TEST(PercentileTest, ClampsOutOfRangeP) {
  const std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, -10), 1.0);
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile(v, 400), 3.0);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, EmptyHistogram) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, PercentilesMatchNearestRank) {
  obs::Histogram h;
  for (int v = 1; v <= 100; ++v) h.Observe(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, ObserveOutOfOrderStillSorts) {
  obs::Histogram h;
  for (double v : {9.0, 1.0, 5.0, 3.0, 7.0}) h.Observe(v);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 5.0);
  h.Observe(0.5);  // re-dirty after a sorted read
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.5);
}

TEST(HistogramTest, BucketCountsAreCumulativePerBound) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(1.0);    // bucket 0 (<= 1, inclusive bound)
  h.Observe(5.0);    // bucket 1 (<= 10)
  h.Observe(50.0);   // bucket 2 (<= 100)
  h.Observe(500.0);  // +inf overflow bucket
  ASSERT_EQ(h.bounds().size(), 3u);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(HistogramTest, SummaryMentionsTheHeadlineStats) {
  obs::Histogram h;
  for (int v = 1; v <= 4; ++v) h.Observe(v);
  const std::string s = h.Summary();
  EXPECT_NE(s.find("count=4"), std::string::npos);
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
  EXPECT_NE(s.find("max="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, CreateOnFirstUseAndStableIdentity) {
  obs::Registry reg;
  obs::Counter& c = reg.GetCounter("msgs");
  c.Inc(3);
  EXPECT_EQ(&reg.GetCounter("msgs"), &c);
  EXPECT_EQ(reg.GetCounter("msgs").value(), 3u);
  reg.GetGauge("peers").Set(42);
  EXPECT_DOUBLE_EQ(reg.GetGauge("peers").value(), 42.0);
  reg.GetHistogram("hops").Observe(2);
  reg.GetHistogram("hops").Observe(4);
  EXPECT_EQ(reg.GetHistogram("hops").count(), 2u);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.gauges().size(), 1u);
  EXPECT_EQ(reg.histograms().size(), 1u);
}

TEST(RegistryTest, CustomBoundsOnlyApplyAtCreation) {
  obs::Registry reg;
  obs::Histogram& h = reg.GetHistogram("sizes", {5.0, 50.0});
  EXPECT_EQ(h.bounds().size(), 2u);
  // Asking again with different bounds returns the existing instrument.
  EXPECT_EQ(&reg.GetHistogram("sizes", {1.0}), &h);
  EXPECT_EQ(h.bounds().size(), 2u);
}

TEST(RegistryTest, GlobalRecordingIsOffByDefault) {
  // Default state: RecordRouteHops must not touch the global registry.
  ASSERT_FALSE(obs::Registry::GlobalEnabled());
  const size_t before = obs::Registry::Global().counters().size();
  obs::RecordRouteHops("testoverlay", 3);
  EXPECT_EQ(obs::Registry::Global().counters().size(), before);

  obs::Registry::EnableGlobal(true);
  obs::RecordRouteHops("testoverlay", 3);
  obs::RecordRouteHops("testoverlay", 5);
  obs::Registry::EnableGlobal(false);
  obs::Registry& g = obs::Registry::Global();
  EXPECT_EQ(g.GetCounter("testoverlay.route.calls").value(), 2u);
  EXPECT_EQ(g.GetHistogram("testoverlay.route.hops").count(), 2u);
  EXPECT_DOUBLE_EQ(g.GetHistogram("testoverlay.route.hops").Percentile(100),
                   5.0);
}

// ---------------------------------------------------------------------------
// Exporters

obs::Tracer MakeSmallTrace() {
  obs::Tracer t;
  const uint32_t root =
      t.StartSpan(/*peer=*/1, obs::kNoSpan, obs::SpanKind::kSlow, 2, 0.0);
  t.span(root).tuples_in = 5;
  const uint32_t child =
      t.StartSpan(/*peer=*/2, root, obs::SpanKind::kFast, 0, 1.0);
  t.span(child).answer_tuples = 3;
  t.EndSpan(child, 2.0);
  t.EndSpan(root, 3.0);
  return t;
}

TEST(ExportTest, SpanToJsonIsValidJson) {
  const obs::Tracer t = MakeSmallTrace();
  for (const obs::Span& s : t.spans()) {
    const std::string json = obs::SpanToJson(s);
    JsonChecker checker(json);
    EXPECT_TRUE(checker.Valid()) << json;
  }
}

TEST(ExportTest, ChromeTraceIsValidJsonWithOneEventPerSpan) {
  const obs::Tracer t = MakeSmallTrace();
  const std::string path = TempPath("obs_chrome_trace.json");
  ASSERT_TRUE(obs::WriteChromeTrace(t, path).ok());
  const std::string text = ReadAll(path);
  JsonChecker checker(text);
  EXPECT_TRUE(checker.Valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // One complete ("X") event per span.
  size_t events = 0;
  for (size_t pos = 0; (pos = text.find("\"ph\":\"X\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++events;
  }
  EXPECT_EQ(events, t.span_count());
  std::remove(path.c_str());
}

TEST(ExportTest, JsonlHasOneValidObjectPerSpan) {
  const obs::Tracer t = MakeSmallTrace();
  const std::string path = TempPath("obs_trace.jsonl");
  ASSERT_TRUE(obs::WriteTraceJsonl(t, path).ok());
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonChecker checker(line);
    EXPECT_TRUE(checker.Valid()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, t.span_count());
  std::remove(path.c_str());
}

TEST(ExportTest, MetricsJsonIsValidAndCoversAllInstruments) {
  obs::Registry reg;
  reg.GetCounter("q.messages").Inc(12);
  reg.GetGauge("overlay.peers").Set(256);
  obs::Histogram& h = reg.GetHistogram("q.hops");
  for (int v = 1; v <= 16; ++v) h.Observe(v);
  const std::string path = TempPath("obs_metrics.json");
  ASSERT_TRUE(obs::WriteMetricsJson(reg, path).ok());
  const std::string text = ReadAll(path);
  JsonChecker checker(text);
  EXPECT_TRUE(checker.Valid()) << text;
  EXPECT_NE(text.find("\"q.messages\""), std::string::npos);
  EXPECT_NE(text.find("\"overlay.peers\""), std::string::npos);
  EXPECT_NE(text.find("\"q.hops\""), std::string::npos);
  EXPECT_NE(text.find("\"+inf\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ExportTest, WriteToUnwritablePathFails) {
  const obs::Tracer t = MakeSmallTrace();
  EXPECT_FALSE(
      obs::WriteChromeTrace(t, "/nonexistent-dir/trace.json").ok());
}

TEST(ExportTest, HistogramJsonKeepsBucketsCumulative) {
  obs::Histogram h({2.0, 4.0});
  h.Observe(1);
  h.Observe(3);
  h.Observe(9);
  const std::string json = obs::HistogramToJson(h);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  // Cumulative counts: <=2 holds 1 sample, <=4 holds 2, +inf holds 3.
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Counter/Gauge atomicity — the contract documented in obs/metrics.h.

TEST(ObsTest, CounterAndGaugeAreAtomic) {
  obs::Counter counter;
  obs::Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &gauge] {
      for (int i = 0; i < kIters; ++i) {
        counter.Inc();
        gauge.Add(1.0);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Lost updates would make these land short; relaxed atomics may
  // reorder but never tear or drop.
  EXPECT_EQ(counter.value(), uint64_t{kThreads} * kIters);
  EXPECT_DOUBLE_EQ(gauge.value(),
                   static_cast<double>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// Round trips: re-parse emitted artifacts with common/json.h and assert
// the schema survived, not just that the text is syntactically valid.

TEST(RoundTripTest, ChromeTraceParsesWithOneEventPerSpan) {
  const obs::Tracer t = MakeSmallTrace();
  const std::string path = TempPath("obs_chrome_roundtrip.json");
  ASSERT_TRUE(obs::WriteChromeTrace(t, path).ok());
  const Result<JsonValue> doc = ParseJson(ReadAll(path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  EXPECT_EQ(events->array.size(), t.span_count());
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->StringOr(""), "X");
    EXPECT_NE(e.Find("dur"), nullptr);
    EXPECT_NE(e.Find("pid"), nullptr);
  }
  std::remove(path.c_str());
}

TEST(RoundTripTest, ProfileJsonParsesWithSkewAndHotspots) {
  obs::Profiler p;
  p.SetPeerUniverse(8);
  for (int i = 0; i < 5; ++i) p.OnSpan(3);
  p.OnSpan(1);
  p.OnMessage(3, 1, 10);
  const std::string path = TempPath("obs_profile_roundtrip.json");
  ASSERT_TRUE(obs::WriteProfileJson(p, path).ok());
  const Result<JsonValue> doc = ParseJson(ReadAll(path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* version = doc->Find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->NumberOr(0), 1.0);
  const JsonValue* peers = doc->Find("peers");
  ASSERT_NE(peers, nullptr);
  EXPECT_EQ(peers->NumberOr(0), 8.0);
  const JsonValue* spans = doc->FindPath("totals.spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->NumberOr(0), 6.0);
  // The skew block per tracked field, with the Gini of the span loads.
  const JsonValue* gini = doc->FindPath("skew.spans.gini");
  ASSERT_NE(gini, nullptr);
  EXPECT_GT(gini->NumberOr(0), 0.0);
  const JsonValue* hotspots = doc->Find("hotspots");
  ASSERT_NE(hotspots, nullptr);
  ASSERT_TRUE(hotspots->IsArray());
  ASSERT_FALSE(hotspots->array.empty());
  const JsonValue* top_peer = hotspots->array[0].Find("peer");
  ASSERT_NE(top_peer, nullptr);
  EXPECT_EQ(top_peer->NumberOr(-1), 3.0);  // peer 3 has the most spans
  std::remove(path.c_str());
}

TEST(RoundTripTest, BenchReportSurvivesParseAndMerge) {
  const std::string dir = ::testing::TempDir() + "/bench_roundtrip";
  const std::string path = obs::BenchReporter::FilePath(dir, "figs");
  std::remove(path.c_str());

  obs::BenchMeta meta;
  meta.suite = "figs";
  meta.binary = "alpha";
  meta.git_sha = "abc1234";
  meta.build_type = "RelWithDebInfo";
  meta.seed = 7;
  meta.config = {{"queries", 8.0}};
  obs::BenchReporter alpha(meta);
  alpha.AddMetric("query/n=256/r=0", "latency_hops_mean", 9.125);
  alpha.AddMetric("query/n=256/r=0", "wall_ms_p50", 0.078);
  ASSERT_TRUE(alpha.WriteMerged(dir).ok());

  // A second binary merges into the same suite file without clobbering
  // alpha's cases.
  meta.binary = "beta";
  obs::BenchReporter beta(meta);
  beta.AddMetric("panel/x=1", "series-a", 3.5);
  ASSERT_TRUE(beta.WriteMerged(dir).ok());

  const Result<JsonValue> doc = ParseJson(ReadAll(path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* version = doc->Find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->NumberOr(0),
            static_cast<double>(obs::kBenchSchemaVersion));
  const JsonValue* suite = doc->Find("suite");
  ASSERT_NE(suite, nullptr);
  EXPECT_EQ(suite->StringOr(""), "figs");
  const JsonValue* sha = doc->FindPath("meta.git_sha");
  ASSERT_NE(sha, nullptr);
  EXPECT_EQ(sha->StringOr(""), "abc1234");
  const JsonValue* seed = doc->FindPath("meta.seed");
  ASSERT_NE(seed, nullptr);
  EXPECT_EQ(seed->NumberOr(0), 7.0);
  const JsonValue* queries = doc->FindPath("meta.config.queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->NumberOr(0), 8.0);

  const JsonValue* cases = doc->Find("cases");
  ASSERT_NE(cases, nullptr);
  ASSERT_TRUE(cases->IsObject());
  EXPECT_EQ(cases->object.size(), 2u);
  const JsonValue* alpha_case = cases->Find("alpha/query/n=256/r=0");
  ASSERT_NE(alpha_case, nullptr);
  const JsonValue* hops = alpha_case->Find("latency_hops_mean");
  ASSERT_NE(hops, nullptr);
  EXPECT_DOUBLE_EQ(hops->NumberOr(0), 9.125);
  // The wall percentile survives the write -> parse -> merge cycle.
  const JsonValue* wall = alpha_case->Find("wall_ms_p50");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->NumberOr(0), 0.078);

  // Re-running alpha replaces its cases instead of duplicating them.
  obs::BenchMeta meta2 = alpha.meta();
  obs::BenchReporter alpha2(meta2);
  alpha2.AddMetric("query/n=256/r=0", "latency_hops_mean", 10.0);
  ASSERT_TRUE(alpha2.WriteMerged(dir).ok());
  const Result<JsonValue> doc2 = ParseJson(ReadAll(path));
  ASSERT_TRUE(doc2.ok());
  const JsonValue* cases2 = doc2->Find("cases");
  ASSERT_NE(cases2, nullptr);
  EXPECT_EQ(cases2->object.size(), 2u);
  const JsonValue* replaced = cases2->Find("alpha/query/n=256/r=0");
  ASSERT_NE(replaced, nullptr);
  const JsonValue* hops2 = replaced->Find("latency_hops_mean");
  ASSERT_NE(hops2, nullptr);
  EXPECT_DOUBLE_EQ(hops2->NumberOr(0), 10.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Snapshot series and the slow-query log

TEST(SnapshotTest, CaptureRecordsValuesAndDeltasSpanConsecutiveCaptures) {
  obs::Registry reg;
  obs::SnapshotSeries series(&reg);
  reg.GetCounter("a").Inc(3);
  reg.GetGauge("depth").Set(1.5);
  const obs::Snapshot& first = series.Capture(1.0);
  EXPECT_EQ(first.at_ms, 1.0);
  ASSERT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.counters[0].first, "a");
  EXPECT_EQ(first.counters[0].second, 3u);
  ASSERT_EQ(first.gauges.size(), 1u);
  EXPECT_EQ(first.gauges[0].second, 1.5);
  reg.GetCounter("a").Inc(4);
  reg.GetCounter("late").Inc(2);
  series.Capture(2.0);
  series.Capture(3.0);
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.Deltas("a"), (std::vector<uint64_t>{4, 0}));
  // A counter absent from a snapshot reads 0 there.
  EXPECT_EQ(series.Deltas("late"), (std::vector<uint64_t>{2, 0}));
  EXPECT_EQ(series.Deltas("missing"), (std::vector<uint64_t>{0, 0}));
  EXPECT_TRUE(obs::SnapshotSeries(&reg).Deltas("a").empty());
}

TEST(SnapshotTest, JsonRoundTripKeepsLongNamesAndEveryDigit) {
  obs::Registry reg;
  obs::SnapshotSeries series(&reg);
  // 100 bytes: longer than any fixed formatting buffer would hold. 80
  // bytes plus a 12-digit value would lose digits in a 96-byte one.
  const std::string long_name = "exec." + std::string(95, 'n');
  const std::string mid_name = "exec." + std::string(75, 'm');
  ASSERT_EQ(long_name.size(), 100u);
  reg.GetCounter(long_name).Inc(7);
  reg.GetCounter(mid_name).Inc(123456789012);
  reg.GetGauge(long_name).Set(0.25);
  series.Capture(12.5);
  series.Capture(20.0);
  const Result<JsonValue> parsed = ParseJson(series.ToJson());
  ASSERT_TRUE(parsed.ok()) << series.ToJson();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.IsArray());
  ASSERT_EQ(doc.array.size(), 2u);
  const JsonValue& s0 = doc.array[0];
  EXPECT_DOUBLE_EQ(s0.Find("at_ms")->NumberOr(-1), 12.5);
  const JsonValue* counters = s0.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find(long_name), nullptr);
  EXPECT_EQ(counters->Find(long_name)->NumberOr(-1), 7.0);
  ASSERT_NE(counters->Find(mid_name), nullptr);
  EXPECT_EQ(counters->Find(mid_name)->NumberOr(-1), 123456789012.0);
  const JsonValue* gauges = s0.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find(long_name), nullptr);
  EXPECT_EQ(gauges->Find(long_name)->NumberOr(-1), 0.25);
  EXPECT_TRUE(ParseJson(obs::SnapshotSeries(&reg).ToJson()).ok());
}

TEST(SlowQueryLogTest, ThresholdCapacityDroppedAndForceSampled) {
  obs::SlowQueryLog log(5.0, /*capacity=*/2);
  EXPECT_EQ(log.threshold_ms(), 5.0);
  EXPECT_FALSE(log.Observe("fast", 1, 4.9, 0.5, true));
  EXPECT_TRUE(log.Observe("at-threshold", 7, 5.0, 1.0, true));
  EXPECT_TRUE(log.Observe("unsampled", 0, 9.0, 2.0, false));
  // Over capacity: still slow, but dropped.
  EXPECT_TRUE(log.Observe("overflow", 0, 10.0, 3.0, true));
  EXPECT_EQ(log.dropped(), 1u);
  const std::vector<obs::SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].label, "at-threshold");
  EXPECT_EQ(entries[0].trace_id, 7u);
  EXPECT_FALSE(entries[0].force_sampled);
  EXPECT_EQ(entries[1].label, "unsampled");
  EXPECT_TRUE(entries[1].force_sampled);
  const Result<JsonValue> parsed = ParseJson(log.ToJson());
  ASSERT_TRUE(parsed.ok()) << log.ToJson();
  ASSERT_EQ(parsed.value().array.size(), 2u);
  const JsonValue& e0 = parsed.value().array[0];
  EXPECT_EQ(e0.Find("label")->StringOr(""), "at-threshold");
  EXPECT_EQ(e0.Find("trace_id")->StringOr(""), "7");
  EXPECT_EQ(e0.Find("latency_ms")->NumberOr(-1), 5.0);
  EXPECT_TRUE(parsed.value().array[1].Find("force_sampled")->bool_value);
  // Capacity 0 is unbounded.
  obs::SlowQueryLog unbounded(0.0, 0);
  for (int i = 0; i < 300; ++i) unbounded.Observe("q", 0, 1.0, 0.0, true);
  EXPECT_EQ(unbounded.Entries().size(), 300u);
  EXPECT_EQ(unbounded.dropped(), 0u);
}

TEST(SnapshotTest, WriteSnapshotJsonWritesBothPartsOrEmptyLists) {
  obs::Registry reg;
  reg.GetCounter("c").Inc(1);
  obs::SnapshotSeries series(&reg);
  series.Capture(1.0);
  obs::SlowQueryLog log(0.0);
  log.Observe("q", 3, 2.0, 1.0, true);
  const std::string path = TempPath("snapshot_write.json");
  ASSERT_TRUE(obs::WriteSnapshotJson(&series, &log, path).ok());
  Result<JsonValue> parsed = ParseJson(ReadAll(path));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("snapshots")->array.size(), 1u);
  EXPECT_EQ(parsed.value().Find("slow_queries")->array.size(), 1u);
  ASSERT_TRUE(obs::WriteSnapshotJson(nullptr, nullptr, path).ok());
  parsed = ParseJson(ReadAll(path));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().Find("snapshots")->array.empty());
  EXPECT_TRUE(parsed.value().Find("slow_queries")->array.empty());
  std::remove(path.c_str());
  EXPECT_FALSE(
      obs::WriteSnapshotJson(&series, &log, "/nonexistent-dir/s.json").ok());
}

TEST(SnapshotTest, ExecutorRunFeedsTheSeriesAndTheSlowLog) {
  obs::Registry::EnableGlobal(true);
  obs::SnapshotSeries series(&obs::Registry::Global());
  obs::SlowQueryLog slow(/*threshold_ms=*/0.0);
  exec::ExecutorOptions opts;
  opts.threads = 2;
  opts.snapshots = &series;
  opts.snapshot_every_ms = 1e-3;
  opts.slow_log = &slow;
  std::vector<exec::Job> jobs(5);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "job " + std::to_string(i);
    jobs[i].run = [](exec::JobContext&) { return exec::JobResult{}; };
  }
  const exec::WorkloadResult result = exec::Executor(opts).Run(jobs, 1);
  obs::Registry::EnableGlobal(false);
  EXPECT_EQ(result.completed, 5u);
  // The t = 0 capture, the periodic ones and the final one after the
  // drain: the windows add up to the whole run.
  ASSERT_GE(series.size(), 2u);
  uint64_t completed = 0;
  for (uint64_t d : series.Deltas("exec.completed")) completed += d;
  EXPECT_EQ(completed, 5u);
  // Threshold 0 records every query; none was head-sampled.
  const std::vector<obs::SlowQueryEntry> entries = slow.Entries();
  ASSERT_EQ(entries.size(), 5u);
  for (const obs::SlowQueryEntry& e : entries) {
    EXPECT_TRUE(e.force_sampled);
    EXPECT_EQ(e.label.rfind("job ", 0), 0u);
  }
}

// ---------------------------------------------------------------------------
// Logger

TEST(LogTest, ParseLevelNamesAndFallback) {
  EXPECT_EQ(ParseLogLevel("error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("info", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("trace", LogLevel::kWarn), LogLevel::kTrace);
  EXPECT_EQ(ParseLogLevel("bogus", LogLevel::kDebug), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("", LogLevel::kError), LogLevel::kError);
}

TEST(LogTest, LevelGatesEnablement) {
  const LogLevel saved = GlobalLogLevel();
  SetGlobalLogLevel(LogLevel::kWarn);
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_FALSE(LogEnabled(LogLevel::kTrace));
  SetGlobalLogLevel(LogLevel::kTrace);
  EXPECT_TRUE(LogEnabled(LogLevel::kTrace));
  SetGlobalLogLevel(saved);
}

TEST(LogTest, LevelNamesRoundTrip) {
  for (LogLevel level : {LogLevel::kError, LogLevel::kWarn, LogLevel::kInfo,
                         LogLevel::kDebug, LogLevel::kTrace}) {
    EXPECT_EQ(ParseLogLevel(LogLevelName(level), LogLevel::kError), level);
  }
}

}  // namespace
}  // namespace ripple

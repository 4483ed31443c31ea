// Span-tree tracing tests: tree shape against the Lemma 1-3 hop clock,
// span accounting against QueryStats, the zero-cost disabled path, the
// seeded drivers' bootstrap spans and the async engine's simulator-time
// spans.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/datasets.h"
#include "geom/scoring.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "overlay/midas/midas.h"
#include "queries/skyline_driver.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"

namespace ripple {
namespace {

struct Net {
  MidasOverlay overlay;
  TupleVec all;
};

Net MakeNet(size_t peers, size_t tuples, int dims, uint64_t seed) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.split_rule = MidasSplitRule::kDataMedian;
  Net net{MidasOverlay(opt), {}};
  Rng rng(seed ^ 0xabc);
  net.all = data::MakeUniform(tuples, dims, &rng);
  for (const Tuple& t : net.all) net.overlay.InsertTuple(t);
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  return net;
}

using TopKEngine = Engine<MidasOverlay, TopKPolicy>;

// Structural invariants every engine span forest must satisfy.
void CheckTreeShape(const obs::Tracer& tracer) {
  for (const obs::Span& s : tracer.spans()) {
    EXPECT_GE(s.end, s.start) << "span " << s.id;
    if (s.parent == obs::kNoSpan) {
      EXPECT_EQ(s.depth, 0);
      continue;
    }
    ASSERT_LT(s.parent, tracer.span_count());
    const obs::Span& p = tracer.spans()[s.parent];
    EXPECT_EQ(s.depth, p.depth + 1);
    // A child is reached strictly after its parent starts handling the
    // query, and finishes within the parent's span.
    EXPECT_GT(s.start, p.start);
    EXPECT_LE(s.end, p.end);
  }
}

TEST(TraceTest, FastPhaseSpanTreeShape) {
  Net net = MakeNet(64, 800, 2, 701);
  LinearScorer scorer({-0.5, -0.5});
  TopKQuery q{&scorer, 10};
  TopKEngine engine(&net.overlay, TopKPolicy{});
  obs::Tracer tracer;
  engine.SetSink(obs::Sink(&tracer, nullptr, nullptr));
  Rng rng(3);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  const auto result = engine.Run({.initiator = initiator, .query = q, .ripple = RippleParam::Fast()});

  // One engine span per peer visit, every one a fast-phase span.
  ASSERT_EQ(tracer.span_count(), result.stats.peers_visited);
  for (const obs::Span& s : tracer.spans()) {
    EXPECT_EQ(s.kind, obs::SpanKind::kFast);
    EXPECT_EQ(s.r, 0);
  }
  CheckTreeShape(tracer);

  // The root covers the whole query: exactly the Lemma 1 latency.
  const std::vector<uint32_t> roots = tracer.Roots();
  ASSERT_EQ(roots.size(), 1u);
  const obs::Span& root = tracer.spans()[roots[0]];
  EXPECT_EQ(root.peer, initiator);
  EXPECT_DOUBLE_EQ(root.end - root.start,
                   static_cast<double>(result.stats.latency_hops));
  // Fast phase: a child arrives exactly one hop after its parent.
  for (const obs::Span& s : tracer.spans()) {
    if (s.parent == obs::kNoSpan) continue;
    const double parent_start = tracer.spans()[s.parent].start;
    EXPECT_DOUBLE_EQ(s.start, parent_start + 1.0);
  }
}

TEST(TraceTest, SlowPhaseSpanTreeShape) {
  Net net = MakeNet(48, 600, 2, 703);
  LinearScorer scorer({-0.4, -0.6});
  TopKQuery q{&scorer, 10};
  TopKEngine engine(&net.overlay, TopKPolicy{});
  obs::Tracer tracer;
  engine.SetSink(obs::Sink(&tracer, nullptr, nullptr));
  Rng rng(5);
  const auto result =
      engine.Run({.initiator = net.overlay.RandomPeer(&rng), .query = q, .ripple = RippleParam::Slow()});

  ASSERT_EQ(tracer.span_count(), result.stats.peers_visited);
  for (const obs::Span& s : tracer.spans()) {
    EXPECT_EQ(s.kind, obs::SpanKind::kSlow);
    EXPECT_GT(s.r, 0);
  }
  CheckTreeShape(tracer);

  // Slow phase visits are sequential: the root span length is the total
  // latency, and the children of any span never overlap each other.
  const std::vector<uint32_t> roots = tracer.Roots();
  ASSERT_EQ(roots.size(), 1u);
  const obs::Span& root = tracer.spans()[roots[0]];
  EXPECT_DOUBLE_EQ(root.end - root.start,
                   static_cast<double>(result.stats.latency_hops));
  for (const obs::Span& s : tracer.spans()) {
    const std::vector<uint32_t> kids = tracer.ChildrenOf(s.id);
    for (size_t i = 1; i < kids.size(); ++i) {
      const obs::Span& a = tracer.spans()[kids[i - 1]];
      const obs::Span& b = tracer.spans()[kids[i]];
      EXPECT_GE(b.start, a.end) << "overlapping slow siblings";
    }
  }
}

TEST(TraceTest, SpanCountersAccountForTheQuery) {
  Net net = MakeNet(64, 800, 3, 707);
  LinearScorer scorer({-0.3, -0.3, -0.4});
  TopKQuery q{&scorer, 10};
  TopKEngine engine(&net.overlay, TopKPolicy{});
  obs::Tracer tracer;
  engine.SetSink(obs::Sink(&tracer, nullptr, nullptr));
  Rng rng(7);
  const auto result = engine.Run({.initiator = net.overlay.RandomPeer(&rng), .query = q, .ripple = RippleParam::Hops(2)});

  // Forwarded links == internal tree edges. Every answer tuple ships from
  // some peer, so the spans' shipped totals cover the merged result (fast
  // phase peers over-ship: they cannot see each other's candidates).
  uint64_t forwarded = 0, answers = 0;
  for (const obs::Span& s : tracer.spans()) {
    forwarded += s.links_forwarded;
    answers += s.answer_tuples;
  }
  EXPECT_EQ(forwarded, tracer.span_count() - 1);
  EXPECT_GE(answers, result.answer.size());
}

TEST(TraceTest, DisabledTracerLeavesStatsIdentical) {
  Net net = MakeNet(64, 800, 2, 709);
  LinearScorer scorer({-0.7, -0.3});
  TopKQuery q{&scorer, 10};
  Rng rng(11);
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    const PeerId initiator = net.overlay.RandomPeer(&rng);
    TopKEngine plain(&net.overlay, TopKPolicy{});
    const auto without = plain.Run({.initiator = initiator, .query = q, .ripple = r});
    TopKEngine traced(&net.overlay, TopKPolicy{});
    obs::Tracer tracer;
    traced.SetSink(obs::Sink(&tracer, nullptr, nullptr));
    const auto with = traced.Run({.initiator = initiator, .query = q, .ripple = r});
    EXPECT_EQ(with.stats.latency_hops, without.stats.latency_hops);
    EXPECT_EQ(with.stats.peers_visited, without.stats.peers_visited);
    EXPECT_EQ(with.stats.messages, without.stats.messages);
    EXPECT_EQ(with.stats.tuples_shipped, without.stats.tuples_shipped);
    ASSERT_EQ(with.answer.size(), without.answer.size());
    for (size_t i = 0; i < with.answer.size(); ++i) {
      EXPECT_EQ(with.answer[i].id, without.answer[i].id);
    }
    EXPECT_GT(tracer.span_count(), 0u);
  }
}

TEST(TraceTest, SeededTopKSpansMatchPeersVisited) {
  // The acceptance check: the seeded driver charges bootstrap routing and
  // the seed walk to peers_visited, and emits kRoute / kWalk spans for
  // them, so spans == peers visited end to end.
  Net net = MakeNet(128, 1500, 3, 711);
  LinearScorer scorer({-0.4, -0.3, -0.3});
  TopKQuery q{&scorer, 10};
  Rng rng(13);
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
    TopKEngine engine(&net.overlay, TopKPolicy{});
    obs::Tracer tracer;
    engine.SetSink(obs::Sink(&tracer, nullptr, nullptr));
    const auto result =
        SeededTopK(net.overlay, engine, {.initiator = net.overlay.RandomPeer(&rng), .query = q, .ripple = r});
    EXPECT_EQ(tracer.span_count(), result.stats.peers_visited) << "r=" << r;
    // The driver restores the tracer offset when it is done.
    EXPECT_DOUBLE_EQ(tracer.time_offset(), 0.0);
  }
}

TEST(TraceTest, SeededSkylineSpansMatchPeersVisited) {
  Net net = MakeNet(96, 1000, 3, 713);
  Rng rng(17);
  Engine<MidasOverlay, SkylinePolicy> engine(&net.overlay, SkylinePolicy{});
  obs::Tracer tracer;
  engine.SetSink(obs::Sink(&tracer, nullptr, nullptr));
  const auto result = SeededSkyline(net.overlay, engine, {.initiator = net.overlay.RandomPeer(&rng), .query = SkylineQuery{}, .ripple = RippleParam::Fast()});
  EXPECT_EQ(tracer.span_count(), result.stats.peers_visited);
}

TEST(TraceTest, AsyncEngineSpansMatchPeersVisited) {
  Net net = MakeNet(96, 1000, 3, 717);
  LinearScorer scorer({-0.5, -0.2, -0.3});
  TopKQuery q{&scorer, 10};
  Rng rng(19);
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
    AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
    obs::Tracer tracer;
    engine.SetSink(obs::Sink(&tracer, nullptr, nullptr));
    const auto result = engine.Run({.initiator = net.overlay.RandomPeer(&rng), .query = q, .ripple = r});
    EXPECT_EQ(tracer.span_count(), result.stats.peers_visited) << "r=" << r;
    // Spans live in simulator time: none may outlive the run.
    for (const obs::Span& s : tracer.spans()) {
      EXPECT_GE(s.end, s.start);
      EXPECT_LE(s.end, result.completion_time);
    }
  }
}

TEST(TraceTest, ChromeTraceExportOfARealRun) {
  Net net = MakeNet(64, 800, 2, 719);
  LinearScorer scorer({-0.5, -0.5});
  TopKQuery q{&scorer, 5};
  TopKEngine engine(&net.overlay, TopKPolicy{});
  obs::Tracer tracer;
  engine.SetSink(obs::Sink(&tracer, nullptr, nullptr));
  Rng rng(23);
  const auto result = SeededTopK(net.overlay, engine, {.initiator = net.overlay.RandomPeer(&rng), .query = q, .ripple = RippleParam::Fast()});
  const std::string path = ::testing::TempDir() + "/trace_real.json";
  ASSERT_TRUE(obs::WriteChromeTrace(tracer, path).ok());
  std::ifstream in(path);
  std::ostringstream text_stream;
  text_stream << in.rdbuf();
  const std::string text = text_stream.str();
  size_t events = 0;
  for (size_t pos = 0;
       (pos = text.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
    ++events;
  }
  EXPECT_EQ(events, result.stats.peers_visited);
  std::remove(path.c_str());
}

TEST(TraceTest, ClearResetsTheTracer) {
  obs::Tracer tracer;
  const uint32_t id =
      tracer.StartSpan(1, obs::kNoSpan, obs::SpanKind::kFast, 0, 0.0);
  tracer.EndSpan(id, 1.0);
  EXPECT_EQ(tracer.span_count(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_TRUE(tracer.Roots().empty());
}

TEST(TraceTest, AsciiRenderingMentionsEveryPeer) {
  Net net = MakeNet(32, 400, 2, 723);
  LinearScorer scorer({-0.5, -0.5});
  TopKQuery q{&scorer, 5};
  TopKEngine engine(&net.overlay, TopKPolicy{});
  obs::Tracer tracer;
  engine.SetSink(obs::Sink(&tracer, nullptr, nullptr));
  Rng rng(29);
  engine.Run({.initiator = net.overlay.RandomPeer(&rng), .query = q});
  const std::string ascii = tracer.ToAscii();
  for (const obs::Span& s : tracer.spans()) {
    EXPECT_NE(ascii.find("p" + std::to_string(s.peer) + " ["),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ripple

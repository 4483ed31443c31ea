// Distributed-tracing journal tests (docs/OBSERVABILITY.md): JSONL
// round-trips, per-peer file I/O, and the offline assembler — including
// the load-bearing guarantee that assembling the per-peer journals of a
// traced run reproduces the in-process tracer's span tree byte for byte,
// across overlays, engines and fault schedules.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/datasets.h"
#include "geom/scoring.h"
#include "obs/assemble.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "overlay/chord/chord.h"
#include "overlay/midas/midas.h"
#include "queries/skyline.h"
#include "queries/skyline_driver.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"

namespace ripple {
namespace {

// --- JSONL round-trips ------------------------------------------------------

// The serialized form is kind-dependent (span events carry span fields,
// frame events carry frame fields), so "every field" takes one of each.
obs::JournalEvent FullSpanEvent() {
  obs::JournalEvent e;
  e.kind = obs::JournalEventKind::kSpanEnd;
  e.peer = 17;
  e.sim_time = 3.25;
  e.wall_ns = 123456789;
  e.trace_id = 0xdeadbeefcafef00dULL;
  e.parent_span = 5;
  e.span = 6;
  e.span_kind = 1;
  e.r = -2;
  e.start = 1.5;
  e.end = 3.25;
  e.tuples_in = 10;
  e.links_pruned = 4;
  e.links_forwarded = 2;
  e.states_merged = 3;
  e.state_tuples = 7;
  e.answer_tuples = 8;
  e.retries = 1;
  e.timeouts = 2;
  return e;
}

obs::JournalEvent FullFrameEvent() {
  obs::JournalEvent e;
  e.kind = obs::JournalEventKind::kRetransmit;
  e.peer = 9;
  e.sim_time = 7.5;
  e.wall_ns = 42;
  e.trace_id = 0xabcULL;
  e.msg_id = 41;
  e.msg_kind = 2;
  e.parent_span = 3;
  e.bytes = 990;
  e.attempt = 3;
  return e;
}

void ExpectEventsEqual(const obs::JournalEvent& a, const obs::JournalEvent& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.peer, b.peer);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.wall_ns, b.wall_ns);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.msg_id, b.msg_id);
  EXPECT_EQ(a.msg_kind, b.msg_kind);
  EXPECT_EQ(a.parent_span, b.parent_span);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.attempt, b.attempt);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.span_kind, b.span_kind);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.tuples_in, b.tuples_in);
  EXPECT_EQ(a.links_pruned, b.links_pruned);
  EXPECT_EQ(a.links_forwarded, b.links_forwarded);
  EXPECT_EQ(a.states_merged, b.states_merged);
  EXPECT_EQ(a.state_tuples, b.state_tuples);
  EXPECT_EQ(a.answer_tuples, b.answer_tuples);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

TEST(JournalJsonTest, EveryFieldRoundTrips) {
  for (const obs::JournalEvent& e : {FullSpanEvent(), FullFrameEvent()}) {
    const Result<obs::JournalEvent> back =
        obs::ParseJournalLine(obs::JournalEventToJson(e));
    ASSERT_TRUE(back.ok()) << back.status().message();
    ExpectEventsEqual(e, *back);
  }
}

TEST(JournalJsonTest, DefaultEventRoundTripsAndUnknownKeysIgnored) {
  obs::JournalEvent e;
  e.kind = obs::JournalEventKind::kFrameRecv;
  e.peer = 3;
  const std::string line = obs::JournalEventToJson(e);
  const Result<obs::JournalEvent> back = obs::ParseJournalLine(line);
  ASSERT_TRUE(back.ok());
  ExpectEventsEqual(e, *back);

  // Forward compatibility: a journal written by a newer build may carry
  // keys this build does not know; they must parse as noise, not errors.
  std::string extended = line;
  extended.insert(extended.size() - 1, ",\"future_key\":42");
  const Result<obs::JournalEvent> ext = obs::ParseJournalLine(extended);
  ASSERT_TRUE(ext.ok()) << ext.status().message();
  ExpectEventsEqual(e, *ext);
}

TEST(JournalJsonTest, MalformedLinesRejected) {
  EXPECT_FALSE(obs::ParseJournalLine("").ok());
  EXPECT_FALSE(obs::ParseJournalLine("not json").ok());
  EXPECT_FALSE(obs::ParseJournalLine("{\"ev\":\"no_such_kind\"}").ok());
}

TEST(JournalIoTest, WriteDirReadJournalsRoundTrip) {
  obs::JournalSet set;
  obs::JournalEvent a = FullSpanEvent();
  a.peer = 3;
  obs::JournalEvent b;
  b.kind = obs::JournalEventKind::kFrameSend;
  b.peer = 9;
  b.trace_id = 12;
  b.msg_id = 5;
  b.bytes = 35;
  b.attempt = 1;
  set.Record(a);
  set.Record(b);

  const std::string dir = ::testing::TempDir() + "/journal_io_rt";
  ASSERT_TRUE(set.WriteDir(dir).ok());
  const Result<std::vector<obs::PeerJournal>> back = obs::ReadJournals(dir);
  ASSERT_TRUE(back.ok()) << back.status().message();
  ASSERT_EQ(back->size(), 2u);
  // ReadJournals walks the directory in sorted filename order: peer-3
  // before peer-9.
  ASSERT_EQ((*back)[0].events.size(), 1u);
  ASSERT_EQ((*back)[1].events.size(), 1u);
  EXPECT_EQ((*back)[0].peer, 3u);
  EXPECT_EQ((*back)[1].peer, 9u);
  // Record stamps wall_ns itself; align before the field-wise compare.
  obs::JournalEvent want_a = a;
  want_a.wall_ns = (*back)[0].events[0].wall_ns;
  ExpectEventsEqual(want_a, (*back)[0].events[0]);
  obs::JournalEvent want_b = b;
  want_b.wall_ns = (*back)[1].events[0].wall_ns;
  ExpectEventsEqual(want_b, (*back)[1].events[0]);
}

// --- Assembly: byte-equivalence with the in-process tracer ------------------

std::vector<obs::PeerJournal> Snapshots(const obs::JournalSet& set) {
  std::vector<obs::PeerJournal> out;
  for (uint32_t p : set.Peers()) out.push_back(set.Snapshot(p));
  return out;
}

/// Runs a traced top-k and skyline over `overlay` through EngineT with a
/// shared tracer and journal, then asserts the journal-assembled forest is
/// byte-identical to the in-process tracer's. `kSeeded` selects the
/// seeded drivers (MIDAS overlays) vs. plain engine runs (Chord has no
/// point routing).
template <template <class, class> class EngineT, bool kSeeded,
          typename Overlay>
void ExpectAssemblyMatchesTracer(const Overlay& overlay, uint64_t seed) {
  obs::Tracer tracer;
  obs::JournalSet journal;
  Rng rng(seed);
  std::vector<double> weights(2);  // every fixture here is 2-d
  for (double& w : weights) w = -(0.2 + 0.6 * rng.UniformDouble());
  LinearScorer scorer(weights);

  {
    EngineT<Overlay, TopKPolicy> engine(&overlay, TopKPolicy{});
    engine.SetSink(obs::Sink(&tracer, nullptr, &journal));
    QueryRequest<TopKPolicy> req;
    req.initiator = overlay.RandomPeer(&rng);
    req.query = TopKQuery{&scorer, 8};
    req.ripple = RippleParam::Fast();
    req.trace_id = (seed << 2) | 1;
    typename EngineT<Overlay, TopKPolicy>::Result result;
    if constexpr (kSeeded) {
      result = SeededTopK(overlay, engine, req);
    } else {
      result = engine.Run(req);
    }
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.answer.size(), 8u);
  }
  {
    EngineT<Overlay, SkylinePolicy> engine(&overlay, SkylinePolicy{});
    engine.SetSink(obs::Sink(&tracer, nullptr, &journal));
    QueryRequest<SkylinePolicy> req;
    req.initiator = overlay.RandomPeer(&rng);
    req.ripple = RippleParam::Slow();
    // Larger than the top-k trace id: the assembler emits traces in
    // ascending id order, which must equal the tracer's recording order.
    req.trace_id = (seed << 2) | 3;
    typename EngineT<Overlay, SkylinePolicy>::Result result;
    if constexpr (kSeeded) {
      result = SeededSkyline(overlay, engine, req);
    } else {
      result = engine.Run(req);
    }
    EXPECT_TRUE(result.complete);
    EXPECT_FALSE(result.answer.empty());
  }

  ASSERT_GT(tracer.span_count(), 0u);
  const Result<obs::AssembleReport> report =
      obs::AssembleJournals(Snapshots(journal));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->complete);
  EXPECT_EQ(report->traces, 2u);
  EXPECT_EQ(report->spans, tracer.span_count());
  // One process, one clock: alignment must be the identity, and the
  // rebuilt forest byte-identical (spans, parentage, hop clocks, span
  // counters — everything ToAscii prints).
  for (const double off : report->clock_offsets) EXPECT_EQ(off, 0.0);
  EXPECT_EQ(report->tracer.ToAscii(), tracer.ToAscii());
}

MidasOverlay MakeMidasOverlay(MidasSplitRule rule, bool patterns,
                              uint64_t seed) {
  MidasOptions opt;
  opt.dims = 2;
  opt.seed = seed;
  opt.split_rule = rule;
  opt.border_pattern_links = patterns;
  MidasOverlay overlay(opt);
  Rng rng(seed ^ 0xabcd);
  for (const Tuple& t : data::MakeUniform(700, 2, &rng)) {
    overlay.InsertTuple(t);
  }
  while (overlay.NumPeers() < 48) overlay.Join();
  return overlay;
}

TEST(JournalAssemblyTest, MatchesTracerOnMidasMidpoint) {
  const MidasOverlay overlay =
      MakeMidasOverlay(MidasSplitRule::kMidpoint, false, 101);
  ExpectAssemblyMatchesTracer<AsyncEngine, true>(overlay, 101);
  ExpectAssemblyMatchesTracer<Engine, true>(overlay, 102);
}

TEST(JournalAssemblyTest, MatchesTracerOnMidasDataMedian) {
  const MidasOverlay overlay =
      MakeMidasOverlay(MidasSplitRule::kDataMedian, false, 103);
  ExpectAssemblyMatchesTracer<AsyncEngine, true>(overlay, 103);
  ExpectAssemblyMatchesTracer<Engine, true>(overlay, 104);
}

TEST(JournalAssemblyTest, MatchesTracerOnMidasBorderPatterns) {
  const MidasOverlay overlay =
      MakeMidasOverlay(MidasSplitRule::kDataMedian, true, 105);
  ExpectAssemblyMatchesTracer<AsyncEngine, true>(overlay, 105);
  ExpectAssemblyMatchesTracer<Engine, true>(overlay, 106);
}

TEST(JournalAssemblyTest, MatchesTracerOnChord) {
  ChordOverlay overlay(48, ChordOptions{.dims = 2, .seed = 107});
  Rng rng(107 ^ 0xabcd);
  for (const Tuple& t : data::MakeUniform(700, 2, &rng)) {
    overlay.InsertTuple(t);
  }
  ExpectAssemblyMatchesTracer<AsyncEngine, false>(overlay, 107);
  ExpectAssemblyMatchesTracer<Engine, false>(overlay, 108);
}

// --- Assembly: structural diagnostics ---------------------------------------

TEST(JournalAssemblyTest, MissingEndAndOrphanParentsAreFlagged) {
  obs::JournalSet set;
  obs::JournalEvent begin;
  begin.kind = obs::JournalEventKind::kSpanBegin;
  begin.peer = 1;
  begin.trace_id = 7;
  begin.span = 0;
  begin.parent_span = obs::kNoSpan;
  set.Record(begin);
  // Span 3 claims parent 2, but span 2 never journaled anything.
  obs::JournalEvent orphan = begin;
  orphan.peer = 2;
  orphan.span = 3;
  orphan.parent_span = 2;
  set.Record(orphan);

  const Result<obs::AssembleReport> report =
      obs::AssembleJournals(Snapshots(set));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->spans, 2u);
  EXPECT_EQ(report->missing_end, 2u);
  EXPECT_EQ(report->orphans, 1u);
  EXPECT_FALSE(report->complete);
}

TEST(JournalAssemblyTest, CapacityOverflowMarksAssemblyIncomplete) {
  const MidasOverlay overlay =
      MakeMidasOverlay(MidasSplitRule::kDataMedian, false, 109);
  obs::Tracer tracer;
  obs::JournalSet journal(/*capacity_per_peer=*/2);
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  engine.SetSink(obs::Sink(&tracer, nullptr, &journal));
  Rng rng(109);
  std::vector<double> weights{-0.5, -0.5};
  LinearScorer scorer(weights);
  const auto result = engine.Run({.initiator = overlay.RandomPeer(&rng),
                                  .query = TopKQuery{&scorer, 8},
                                  .ripple = RippleParam::Slow(),
                                  .trace_id = 1});
  EXPECT_TRUE(result.complete);
  EXPECT_GT(journal.TotalDropped(), 0u);

  const Result<obs::AssembleReport> report =
      obs::AssembleJournals(Snapshots(journal));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->dropped, 0u);
  EXPECT_FALSE(report->complete);
}

// --- Clock alignment --------------------------------------------------------

TEST(JournalAssemblyTest, LamportAlignmentRepairsSkewedClocks) {
  const MidasOverlay overlay =
      MakeMidasOverlay(MidasSplitRule::kDataMedian, false, 111);
  obs::Tracer tracer;
  obs::JournalSet journal;
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  engine.SetSink(obs::Sink(&tracer, nullptr, &journal));
  Rng rng(111);
  std::vector<double> weights{-0.4, -0.6};
  LinearScorer scorer(weights);
  const auto result = engine.Run({.initiator = overlay.RandomPeer(&rng),
                                  .query = TopKQuery{&scorer, 8},
                                  .ripple = RippleParam::Hops(2),
                                  .trace_id = 1});
  ASSERT_TRUE(result.complete);

  const std::vector<obs::PeerJournal> unskewed = Snapshots(journal);
  const Result<obs::AssembleReport> base = obs::AssembleJournals(unskewed);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(base->complete);
  ASSERT_GT(unskewed.size(), 1u);

  // Give every journal but the first its own (badly) skewed clock, as if
  // each peer were a separate process with an unsynchronized clock.
  std::vector<obs::PeerJournal> skewed = unskewed;
  for (size_t j = 1; j < skewed.size(); ++j) {
    const double shift = -100.0 * static_cast<double>(j);
    for (obs::JournalEvent& e : skewed[j].events) {
      e.sim_time += shift;
      e.start += shift;
      e.end += shift;
    }
  }
  const Result<obs::AssembleReport> fixed = obs::AssembleJournals(skewed);
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE(fixed->complete);
  EXPECT_EQ(fixed->spans, base->spans);
  // Alignment had to raise at least one journal's clock...
  bool any_offset = false;
  for (const double off : fixed->clock_offsets) {
    EXPECT_GE(off, 0.0);
    if (off > 0.0) any_offset = true;
  }
  EXPECT_TRUE(any_offset);
  // ...and the rebuilt structure (peers, parentage, kinds) must come out
  // identical to the unskewed assembly; only timestamps may differ.
  ASSERT_EQ(fixed->tracer.span_count(), base->tracer.span_count());
  for (size_t i = 0; i < base->tracer.span_count(); ++i) {
    const obs::Span& want = base->tracer.spans()[i];
    const obs::Span& got = fixed->tracer.spans()[i];
    EXPECT_EQ(got.peer, want.peer) << "span " << i;
    EXPECT_EQ(got.parent, want.parent) << "span " << i;
    EXPECT_EQ(got.kind, want.kind) << "span " << i;
    EXPECT_EQ(got.depth, want.depth) << "span " << i;
  }
}

// --- Fault injection --------------------------------------------------------

TEST(JournalFaultTest, LossDupAndJitterKeepTheTreeByteEquivalent) {
  const MidasOverlay overlay =
      MakeMidasOverlay(MidasSplitRule::kDataMedian, false, 113);
  obs::Tracer tracer;
  obs::JournalSet journal;
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  engine.SetSink(obs::Sink(&tracer, nullptr, &journal));
  Rng rng(113);
  std::vector<double> weights{-0.5, -0.5};
  LinearScorer scorer(weights);
  const auto result =
      engine.Run({.initiator = overlay.RandomPeer(&rng),
                  .query = TopKQuery{&scorer, 6},
                  .ripple = RippleParam::Hops(2),
                  .retry = {.timeout = 8.0, .max_retries = 6},
                  .fault = {.loss_rate = 0.2,
                            .dup_rate = 0.15,
                            .delay_jitter = 0.5,
                            .seed = 4},
                  .trace_id = 1});
  ASSERT_TRUE(result.complete);
  EXPECT_GT(result.coverage.messages_lost, 0u);

  // The journal saw the fault layer at work...
  uint64_t retransmits = 0, drops = 0;
  for (const obs::PeerJournal& pj : Snapshots(journal)) {
    for (const obs::JournalEvent& e : pj.events) {
      if (e.kind == obs::JournalEventKind::kRetransmit) ++retransmits;
      if (e.kind == obs::JournalEventKind::kDrop) ++drops;
    }
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(retransmits, 0u);

  // ...and the assembled tree is still exactly the tracer's: faults shape
  // the trace's content, never its consistency.
  const Result<obs::AssembleReport> report =
      obs::AssembleJournals(Snapshots(journal));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->complete);
  // Every dropped frame was eventually retransmitted under the same message
  // id, and the assembler pairs the earliest send with the earliest recv per
  // id — so recovered losses leave no unmatched sends behind.
  EXPECT_EQ(report->unmatched_sends, 0u);
  EXPECT_EQ(report->tracer.ToAscii(), tracer.ToAscii());
}

TEST(JournalFaultTest, CrashesFlagTheAssemblyIncomplete) {
  const MidasOverlay overlay =
      MakeMidasOverlay(MidasSplitRule::kDataMedian, false, 115);
  Rng rng(115);
  std::vector<double> weights{-0.5, -0.5};
  LinearScorer scorer(weights);
  const PeerId initiator = overlay.RandomPeer(&rng);
  bool saw_partial = false;
  for (uint64_t seed = 1; seed <= 12 && !saw_partial; ++seed) {
    obs::Tracer tracer;
    obs::JournalSet journal;
    AsyncEngine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
    engine.SetSink(obs::Sink(&tracer, nullptr, &journal));
    const auto result =
        engine.Run({.initiator = initiator,
                    .query = TopKQuery{&scorer, 6},
                    .ripple = RippleParam::Hops(1),
                    .retry = {.timeout = 8.0, .max_retries = 2},
                    .fault = {.crash_rate = 0.08,
                              .crash_window = 16.0,
                              .seed = seed},
                    .trace_id = 1});
    if (result.complete) continue;
    saw_partial = true;
    // A crash made the answer partial; the journals must say so, and the
    // assembler must refuse to call the rebuilt tree complete.
    const Result<obs::AssembleReport> report =
        obs::AssembleJournals(Snapshots(journal));
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report->crashes, 0u);
    EXPECT_FALSE(report->complete);
  }
  EXPECT_TRUE(saw_partial)
      << "no crash schedule produced a partial answer; raise crash_rate";
}

}  // namespace
}  // namespace ripple

// Wire-format layer tests (docs/WIRE.md): codec primitives, framing,
// payload codecs for every policy, the transport seam, and end-to-end
// corruption recovery through the async engine's fault machinery.

#include "wire/buffer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "geom/wire.h"
#include "net/envelope.h"
#include "net/frame_cost.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "overlay/chord/chord.h"
#include "overlay/midas/midas.h"
#include "queries/diversify.h"
#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "ripple/engine.h"
#include "ripple/wire_codec.h"
#include "sim/async_engine.h"
#include "store/wire.h"
#include "wire/frame.h"

namespace ripple {
namespace {

// --- Buffer / Reader primitives -------------------------------------------

TEST(WireBufferTest, VarintRoundTripsEdgeAndRandomValues) {
  std::vector<uint64_t> values = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<uint64_t>::max()};
  Rng rng(41);
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextU64());
  wire::Buffer buf;
  for (uint64_t v : values) buf.PutVarint(v);
  wire::Reader r(buf.bytes());
  for (uint64_t v : values) EXPECT_EQ(r.Varint(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireBufferTest, ZigzagRoundTripsNegatives) {
  std::vector<int64_t> values = {0, -1, 1, -2, 63, -64,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  wire::Buffer buf;
  for (int64_t v : values) buf.PutZigzag(v);
  // Small magnitudes stay small on the wire.
  EXPECT_LE(buf.size(), values.size() * 10);
  wire::Reader r(buf.bytes());
  for (int64_t v : values) EXPECT_EQ(r.Zigzag(), v);
  EXPECT_TRUE(r.ok());
}

TEST(WireBufferTest, F64RoundTripsBitExactly) {
  const std::vector<double> values = {
      0.0, -0.0, 1.5, -3.25, 1e-300, -1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min()};
  wire::Buffer buf;
  for (double v : values) buf.PutF64(v);
  wire::Reader r(buf.bytes());
  for (double v : values) {
    const double got = r.F64();
    EXPECT_EQ(std::signbit(got), std::signbit(v));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.ok());
}

TEST(WireBufferTest, UnderrunFailsAndLatches) {
  wire::Buffer buf;
  buf.PutFixed32(7);
  wire::Reader r(buf.bytes());
  EXPECT_EQ(r.Fixed32(), 7u);
  (void)r.Fixed64();  // four bytes short
  EXPECT_FALSE(r.ok());
  // Failure latches: subsequent reads keep failing even within bounds.
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(WireBufferTest, OverlongVarintRejected) {
  const std::vector<std::vector<uint8_t>> evil = {
      std::vector<uint8_t>(11, 0x80),  // 11 continuation bytes
      // A tenth byte above 0x01 carries bits past 64 (this one would
      // decode to UINT64_MAX with the excess silently dropped).
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
      // A trailing zero group: a non-minimal encoding of 0.
      {0x80, 0x00},
  };
  for (const auto& bytes : evil) {
    wire::Reader r(bytes.data(), bytes.size());
    EXPECT_EQ(r.Varint(), 0u);
    EXPECT_FALSE(r.ok()) << "input of " << bytes.size() << " bytes";
  }
  // The canonical neighbours still decode: UINT64_MAX ends in 0x01, and
  // a single 0x00 byte is the minimal encoding of 0.
  const std::vector<uint8_t> max = {0xff, 0xff, 0xff, 0xff, 0xff,
                                    0xff, 0xff, 0xff, 0xff, 0x01};
  wire::Reader rm(max.data(), max.size());
  EXPECT_EQ(rm.Varint(), std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(rm.ok());
  const uint8_t zero = 0;
  wire::Reader rz(&zero, 1);
  EXPECT_EQ(rz.Varint(), 0u);
  EXPECT_TRUE(rz.ok());
}

// --- Framing ---------------------------------------------------------------

TEST(WireFrameTest, RoundTripAndPayloadSize) {
  wire::Buffer buf;
  const size_t start = wire::BeginFrame(&buf, /*tag=*/2, /*id=*/42,
                                        /*from=*/7, /*to=*/9);
  buf.PutVarint(12345);
  wire::EndFrame(&buf, start);
  EXPECT_EQ(buf.size(), wire::kFrameHeaderSize + 2);

  wire::Reader r(buf.bytes());
  wire::FrameHeader h;
  ASSERT_TRUE(wire::DecodeFrameHeader(&r, &h));
  EXPECT_EQ(h.version, wire::kWireVersion);
  EXPECT_EQ(h.tag, 2);
  EXPECT_EQ(h.id, 42u);
  EXPECT_EQ(h.from, 7u);
  EXPECT_EQ(h.to, 9u);
  EXPECT_EQ(wire::FramePayloadSize(h), 2u);
  EXPECT_EQ(r.Varint(), 12345u);
  EXPECT_TRUE(r.ok());
}

TEST(WireFrameTest, EveryTruncationRejected) {
  wire::Buffer buf;
  const size_t start = wire::BeginFrame(&buf, 0, 1, 2, 3);
  buf.PutF64(0.5);
  wire::EndFrame(&buf, start);
  for (size_t n = 0; n < buf.size(); ++n) {
    wire::Reader r(buf.data(), n);
    wire::FrameHeader h;
    EXPECT_FALSE(wire::DecodeFrameHeader(&r, &h)) << "prefix " << n;
  }
}

TEST(WireFrameTest, WrongVersionAndTagRejected) {
  wire::Buffer buf;
  const size_t start = wire::BeginFrame(&buf, 1, 5, 0, 1);
  wire::EndFrame(&buf, start);
  {
    std::vector<uint8_t> bytes(buf.bytes().begin(), buf.bytes().end());
    bytes[4] = wire::kWireVersion + 1;  // version byte follows the length
    wire::Reader r(bytes.data(), bytes.size());
    wire::FrameHeader h;
    EXPECT_FALSE(wire::DecodeFrameHeader(&r, &h));
  }
  {
    std::vector<uint8_t> bytes(buf.bytes().begin(), buf.bytes().end());
    bytes[5] = wire::kMaxMessageTag + 1;  // tag byte follows the version
    wire::Reader r(bytes.data(), bytes.size());
    wire::FrameHeader h;
    EXPECT_FALSE(wire::DecodeFrameHeader(&r, &h));
  }
}

TEST(WireFrameTest, V1FrameDecodesWithEmptyTraceContext) {
  // Hand-build a v1 frame: the 22-byte header (no trace tail) plus one
  // payload byte, as a v1-era peer would ship it.
  wire::Buffer buf;
  buf.PutFixed32(0);  // length, patched below
  buf.PutU8(1);       // version 1
  buf.PutU8(2);       // ack tag
  buf.PutFixed64(77);
  buf.PutFixed32(3);
  buf.PutFixed32(4);
  buf.PutVarint(9);
  wire::EndFrame(&buf, 0);

  wire::Reader r(buf.bytes());
  wire::FrameHeader h;
  EXPECT_EQ(wire::DecodeFrameHeaderEx(&r, &h), wire::FrameError::kOk);
  EXPECT_EQ(h.version, 1);
  EXPECT_EQ(h.id, 77u);
  // The trace context decodes to its empty defaults: no trace, no parent,
  // not sampled.
  EXPECT_EQ(h.trace.trace_id, 0u);
  EXPECT_EQ(h.trace.parent_span, wire::kNoParentSpan);
  EXPECT_FALSE(h.trace.sampled());
  EXPECT_EQ(wire::FramePayloadSize(h), 1u);
  EXPECT_EQ(r.Varint(), 9u);
  EXPECT_TRUE(r.ok());
}

TEST(WireFrameTest, V2TraceContextRoundTripsAndOldDecoderWouldReject) {
  wire::TraceContext trace;
  trace.trace_id = 0xfeedf00dULL;
  trace.parent_span = 12;
  trace.flags = wire::kFrameFlagSampled;
  wire::Buffer buf;
  const size_t start = wire::BeginFrame(&buf, 0, 9, 1, 2, trace);
  wire::EndFrame(&buf, start);

  wire::Reader r(buf.bytes());
  wire::FrameHeader h;
  ASSERT_EQ(wire::DecodeFrameHeaderEx(&r, &h), wire::FrameError::kOk);
  EXPECT_EQ(h.trace.trace_id, 0xfeedf00dULL);
  EXPECT_EQ(h.trace.parent_span, 12u);
  EXPECT_TRUE(h.trace.sampled());

  // A v1-era decoder capped at version 1 rejects version 2 through the
  // same kBadVersion path the current decoder uses for versions above its
  // own: a clean semantic rejection, never a misparse of the tail.
  std::vector<uint8_t> bytes(buf.bytes().begin(), buf.bytes().end());
  bytes[4] = wire::kWireVersion + 1;
  wire::Reader future(bytes.data(), bytes.size());
  EXPECT_EQ(wire::DecodeFrameHeaderEx(&future, &h),
            wire::FrameError::kBadVersion);
}

TEST(WireFrameTest, FrameErrorSeparatesTruncationFromSemanticRejects) {
  wire::Buffer buf;
  const size_t start = wire::BeginFrame(&buf, 1, 5, 0, 1);
  buf.PutF64(0.25);
  wire::EndFrame(&buf, start);

  // Every strict prefix is a truncation, from a cut length field through
  // a missing trace tail to a declared-but-absent payload.
  for (size_t n = 0; n < buf.size(); ++n) {
    wire::Reader r(buf.data(), n);
    wire::FrameHeader h;
    EXPECT_EQ(wire::DecodeFrameHeaderEx(&r, &h), wire::FrameError::kTruncated)
        << "prefix " << n;
  }
  // A complete header with an unknown tag is a semantic reject.
  std::vector<uint8_t> bytes(buf.bytes().begin(), buf.bytes().end());
  bytes[5] = wire::kMaxMessageTag + 1;
  wire::Reader r(bytes.data(), bytes.size());
  wire::FrameHeader h;
  EXPECT_EQ(wire::DecodeFrameHeaderEx(&r, &h), wire::FrameError::kBadTag);
}

TEST(WireFrameTest, BackToBackFramesWalk) {
  wire::Buffer buf;
  for (uint64_t id = 0; id < 5; ++id) {
    const size_t start = wire::BeginFrame(&buf, 1, id, 10, 11);
    for (uint64_t j = 0; j <= id; ++j) buf.PutVarint(j);
    wire::EndFrame(&buf, start);
  }
  wire::Reader r(buf.bytes());
  uint64_t seen = 0;
  while (r.ok() && r.remaining() > 0) {
    wire::FrameHeader h;
    ASSERT_TRUE(wire::DecodeFrameHeader(&r, &h));
    EXPECT_EQ(h.id, seen);
    ASSERT_TRUE(r.Skip(wire::FramePayloadSize(h)));
    ++seen;
  }
  EXPECT_EQ(seen, 5u);
}

// --- Geometry payloads -----------------------------------------------------

TEST(GeomWireTest, PointAndRectRoundTripSeeded) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const int dims = 1 + static_cast<int>(rng.UniformU64(8));
    Point lo(dims), hi(dims);
    for (int d = 0; d < dims; ++d) {
      const double a = rng.UniformDouble();
      const double b = rng.UniformDouble();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const Rect rect(lo, hi);
    wire::Buffer buf;
    EncodeRect(rect, &buf);
    wire::Reader r(buf.bytes());
    Rect out;
    ASSERT_TRUE(DecodeRect(&r, &out));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    ASSERT_EQ(out.dims(), rect.dims());
    for (int d = 0; d < dims; ++d) {
      EXPECT_EQ(out.lo()[d], rect.lo()[d]);
      EXPECT_EQ(out.hi()[d], rect.hi()[d]);
    }
  }
}

TEST(GeomWireTest, InvertedRectRejectedNotChecked) {
  // lo > hi must fail the decode, not trip the Rect constructor check.
  wire::Buffer buf;
  EncodePoint(Point{0.9, 0.5}, &buf);
  EncodePoint(Point{0.1, 0.8}, &buf);
  wire::Reader r(buf.bytes());
  Rect out;
  EXPECT_FALSE(DecodeRect(&r, &out));
  EXPECT_FALSE(r.ok());
}

TEST(GeomWireTest, ScorerRoundTripPreservesScores) {
  const LinearScorer lin({-0.5, -0.3, -0.2});
  const NearestScorer near(Point{0.2, 0.4, 0.9}, Norm::kL1);
  Rng rng(23);
  for (const Scorer* s : std::initializer_list<const Scorer*>{&lin, &near}) {
    wire::Buffer buf;
    EncodeScorer(*s, &buf);
    wire::Reader r(buf.bytes());
    const std::shared_ptr<const Scorer> decoded = DecodeScorer(&r);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(r.remaining(), 0u);
    for (int i = 0; i < 50; ++i) {
      const Point p{rng.UniformDouble(), rng.UniformDouble(),
                    rng.UniformDouble()};
      EXPECT_EQ(decoded->Score(p), s->Score(p));
    }
  }
}

TEST(GeomWireTest, ScorerUnknownKindRejected) {
  wire::Buffer buf;
  buf.PutU8(99);
  wire::Reader r(buf.bytes());
  EXPECT_EQ(DecodeScorer(&r), nullptr);
}

// --- Tuple payloads --------------------------------------------------------

TEST(StoreWireTest, TupleVecRoundTripSeeded) {
  Rng rng(29);
  const TupleVec tuples = data::MakeUniform(500, 4, &rng);
  wire::Buffer buf;
  EncodeTupleVec(tuples, &buf);
  wire::Reader r(buf.bytes());
  TupleVec out;
  ASSERT_TRUE(DecodeTupleVec(&r, &out));
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_EQ(out.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(out[i].id, tuples[i].id);
    EXPECT_EQ(out[i].key.dims(), tuples[i].key.dims());
    for (int d = 0; d < tuples[i].key.dims(); ++d) {
      EXPECT_EQ(out[i].key[d], tuples[i].key[d]);
    }
  }
}

TEST(StoreWireTest, HugeCountRejectedWithoutAllocating) {
  wire::Buffer buf;
  buf.PutVarint(1u << 30);  // claims a billion tuples
  buf.PutU8(0);
  wire::Reader r(buf.bytes());
  TupleVec out;
  EXPECT_FALSE(DecodeTupleVec(&r, &out));
  EXPECT_FALSE(r.ok());
}

TEST(StoreWireTest, NonFiniteKeyRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const TupleVec tuples = {Tuple{1, Point{0.1, 0.2}},
                             Tuple{2, Point{0.3, bad}},
                             Tuple{3, Point{0.5, 0.6}}};
    wire::Buffer buf;
    EncodeTupleVec(tuples, &buf);
    wire::Reader r(buf.bytes());
    TupleVec out;
    EXPECT_FALSE(DecodeTupleVec(&r, &out)) << bad;
    EXPECT_FALSE(r.ok()) << bad;

    wire::Buffer one;
    EncodeTuple(tuples[1], &one);
    wire::Reader r1(one.bytes());
    Tuple t;
    EXPECT_FALSE(DecodeTuple(&r1, &t)) << bad;

    // A policy state carrying the tuple rejects as a whole.
    wire::Buffer state;
    SkylinePolicy{}.EncodeState(SkylineState{tuples, {}}, &state);
    wire::Reader rs(state.bytes());
    SkylineState decoded;
    EXPECT_FALSE(SkylinePolicy{}.DecodeState(&rs, &decoded)) << bad;
  }
}

TEST(StoreWireTest, FiniteEdgeKeysAndEveryDatasetRoundTrip) {
  const TupleVec edges = {
      Tuple{1, Point{-0.0, std::numeric_limits<double>::denorm_min()}},
      Tuple{2, Point{std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::lowest()}}};
  Rng rng(31);
  for (const char* name : {"uniform", "synth", "correlated",
                           "anticorrelated", "nba", "mirflickr"}) {
    for (const TupleVec& tuples :
         {edges, data::MakeByName(name, 300, 5, &rng)}) {
      wire::Buffer buf;
      EncodeTupleVec(tuples, &buf);
      wire::Reader r(buf.bytes());
      TupleVec out;
      ASSERT_TRUE(DecodeTupleVec(&r, &out)) << name;
      EXPECT_EQ(out, tuples) << name;
    }
  }
}

// --- Policy codecs ---------------------------------------------------------

TEST(PolicyCodecTest, TopKQueryStateAnswerRoundTrip) {
  const TopKPolicy policy;
  const LinearScorer scorer({-0.7, -0.3});
  TopKQuery q{&scorer, 7, 0.125};
  wire::Buffer buf;
  policy.EncodeQuery(q, &buf);
  wire::Reader r(buf.bytes());
  TopKQuery qd{};
  ASSERT_TRUE(policy.DecodeQuery(&r, &qd));
  EXPECT_EQ(qd.k, 7u);
  EXPECT_EQ(qd.epsilon, 0.125);
  ASSERT_NE(qd.scorer, nullptr);
  EXPECT_EQ(qd.scorer, qd.owned_scorer.get());  // self-contained
  EXPECT_EQ(qd.scorer->Score(Point{0.5, 0.5}), scorer.Score(Point{0.5, 0.5}));

  const TopKState state{5, -0.375};
  buf.Clear();
  policy.EncodeState(state, &buf);
  wire::Reader rs(buf.bytes());
  TopKState sd{};
  ASSERT_TRUE(policy.DecodeState(&rs, &sd));
  EXPECT_EQ(sd.m, state.m);
  EXPECT_EQ(sd.tau, state.tau);

  Rng rng(31);
  const TupleVec answer = data::MakeUniform(12, 2, &rng);
  buf.Clear();
  policy.EncodeAnswer(answer, &buf);
  wire::Reader ra(buf.bytes());
  TupleVec ad;
  ASSERT_TRUE(policy.DecodeAnswer(&ra, &ad));
  EXPECT_EQ(ad.size(), answer.size());
}

TEST(PolicyCodecTest, SkylineQueryWithAndWithoutConstraint) {
  const SkylinePolicy policy;
  for (const bool constrained : {false, true}) {
    SkylineQuery q;
    q.norm = Norm::kLInf;
    if (constrained) q.constraint = Rect(Point{0.1, 0.2}, Point{0.8, 0.9});
    wire::Buffer buf;
    policy.EncodeQuery(q, &buf);
    wire::Reader r(buf.bytes());
    SkylineQuery qd;
    ASSERT_TRUE(policy.DecodeQuery(&r, &qd));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(qd.norm, q.norm);
    ASSERT_EQ(qd.constraint.has_value(), constrained);
    if (constrained) {
      EXPECT_EQ(qd.constraint->lo()[0], 0.1);
      EXPECT_EQ(qd.constraint->hi()[1], 0.9);
    }
  }
}

TEST(PolicyCodecTest, SkylineAndSkybandStatesRoundTrip) {
  Rng rng(37);
  const TupleVec tuples = data::MakeUniform(40, 3, &rng);
  const TupleVec doms(tuples.begin(), tuples.begin() + 8);
  {
    SkylineState s{tuples, doms};
    wire::Buffer buf;
    SkylinePolicy{}.EncodeState(s, &buf);
    wire::Reader r(buf.bytes());
    SkylineState out;
    ASSERT_TRUE(SkylinePolicy{}.DecodeState(&r, &out));
    EXPECT_EQ(out.tuples.size(), s.tuples.size());
    EXPECT_EQ(out.dominators.size(), s.dominators.size());
  }
  {
    SkybandState s{tuples, doms};
    wire::Buffer buf;
    SkybandPolicy{}.EncodeState(s, &buf);
    wire::Reader r(buf.bytes());
    SkybandState out;
    ASSERT_TRUE(SkybandPolicy{}.DecodeState(&r, &out));
    EXPECT_EQ(out.tuples.size(), s.tuples.size());
    EXPECT_EQ(out.dominators.size(), s.dominators.size());
  }
  {
    const SkybandQuery q{3, Norm::kL1};
    wire::Buffer buf;
    SkybandPolicy{}.EncodeQuery(q, &buf);
    wire::Reader r(buf.bytes());
    SkybandQuery out;
    ASSERT_TRUE(SkybandPolicy{}.DecodeQuery(&r, &out));
    EXPECT_EQ(out.band, 3u);
    EXPECT_EQ(out.norm, Norm::kL1);
  }
}

TEST(PolicyCodecTest, DivQueryDecodePrecomputes) {
  Rng rng(43);
  DivQuery q;
  q.objective.query = Point{0.3, 0.7};
  q.objective.lambda = 0.6;
  q.objective.norm = Norm::kL2;
  q.exclude = data::MakeUniform(5, 2, &rng);
  q.Precompute();
  wire::Buffer buf;
  DivPolicy{}.EncodeQuery(q, &buf);
  wire::Reader r(buf.bytes());
  DivQuery qd;
  ASSERT_TRUE(DivPolicy{}.DecodeQuery(&r, &qd));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(qd.prepared);  // decode re-runs Precompute()
  EXPECT_EQ(qd.exclude.size(), q.exclude.size());
  const Point probe{0.55, 0.45};
  EXPECT_EQ(qd.Phi(probe), q.Phi(probe));
}

TEST(PolicyCodecTest, RangeQueryRoundTripAndEmptyState) {
  const RangePolicy policy;
  const RangeQuery q{Point{0.4, 0.6, 0.1}, 0.25, Norm::kLInf};
  wire::Buffer buf;
  policy.EncodeQuery(q, &buf);
  wire::Reader r(buf.bytes());
  RangeQuery qd;
  ASSERT_TRUE(policy.DecodeQuery(&r, &qd));
  EXPECT_EQ(qd.radius, q.radius);
  EXPECT_EQ(qd.norm, q.norm);
  EXPECT_EQ(qd.center[2], 0.1);

  buf.Clear();
  policy.EncodeState(RangePolicy::Empty{}, &buf);
  EXPECT_TRUE(buf.empty());  // the empty state costs zero payload bytes
  wire::Reader rs(buf.bytes());
  RangePolicy::Empty e;
  EXPECT_TRUE(policy.DecodeState(&rs, &e));
}

// --- Overlay area codecs ---------------------------------------------------

TEST(AreaCodecTest, ChordSegmentsRoundTripAndRebindZorder) {
  ChordOptions opt;
  opt.dims = 2;
  opt.seed = 5;
  ChordOverlay overlay(12, opt);
  ChordOverlay::Area area = overlay.FullArea();
  // A multi-segment area, as restriction intersections produce.
  area.segments.emplace_back(3, 9);
  std::swap(area.segments[0], area.segments[1]);
  area.segments[1].second /= 2;
  wire::Buffer buf;
  overlay.EncodeArea(area, &buf);
  wire::Reader r(buf.bytes());
  ChordOverlay::Area out;
  ASSERT_TRUE(overlay.DecodeArea(&r, &out));
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_EQ(out.segments.size(), area.segments.size());
  for (size_t i = 0; i < area.segments.size(); ++i) {
    EXPECT_EQ(out.segments[i], area.segments[i]);
  }
  // The decoded area binds to the receiving overlay's z-order curve, not
  // to a pointer that crossed the wire.
  EXPECT_NE(out.zorder, nullptr);
}

TEST(AreaCodecTest, ChordRejectsEmptyAndOverlongSegments) {
  ChordOptions opt;
  opt.dims = 2;
  opt.seed = 6;
  ChordOverlay overlay(8, opt);
  {
    wire::Buffer buf;
    buf.PutVarint(1);
    buf.PutVarint(10);
    buf.PutVarint(0);  // zero-span segment
    wire::Reader r(buf.bytes());
    ChordOverlay::Area out;
    EXPECT_FALSE(overlay.DecodeArea(&r, &out));
  }
  {
    wire::Buffer buf;
    buf.PutVarint(1);
    buf.PutVarint(0);
    buf.PutVarint(std::numeric_limits<uint64_t>::max());  // wraps the ring
    wire::Reader r(buf.bytes());
    ChordOverlay::Area out;
    EXPECT_FALSE(overlay.DecodeArea(&r, &out));
  }
}

// --- WireCodec (full messages) --------------------------------------------

TEST(WireCodecTest, QueryMessageRoundTrip) {
  MidasOptions opt;
  opt.dims = 2;
  opt.seed = 9;
  MidasOverlay overlay(opt);
  for (int i = 0; i < 7; ++i) overlay.Join();
  const TopKPolicy policy;
  const WireCodec<MidasOverlay, TopKPolicy> codec(&overlay, &policy);

  const LinearScorer scorer({-1.0, -0.5});
  const TopKQuery q{&scorer, 4, 0.0};
  const TopKState g{2, 0.75};
  const net::Envelope env{77, 3, 5, net::MessageKind::kQuery, 0};
  wire::Buffer buf;
  const size_t bytes =
      codec.EncodeQueryMessage(env, q, g, overlay.FullArea(), 2, &buf);
  EXPECT_EQ(bytes, buf.size());

  wire::Reader r(buf.bytes());
  net::Envelope got;
  ASSERT_TRUE(net::DecodeEnvelopeFrame(&r, &got));
  EXPECT_EQ(got.id, 77u);
  EXPECT_EQ(got.from, 3u);
  EXPECT_EQ(got.to, 5u);
  EXPECT_EQ(got.kind, net::MessageKind::kQuery);
  TopKQuery qd{};
  TopKState gd{};
  MidasOverlay::Area area;
  int64_t hops = 0;
  ASSERT_TRUE(codec.DecodeQueryPayload(&r, &qd, &gd, &area, &hops));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(hops, 2);
  EXPECT_EQ(qd.k, 4u);
  EXPECT_EQ(gd.m, 2u);
  EXPECT_EQ(gd.tau, 0.75);
}

TEST(WireCodecTest, AckIsBareHeader) {
  MidasOptions opt;
  opt.dims = 2;
  MidasOverlay overlay(opt);
  const TopKPolicy policy;
  const WireCodec<MidasOverlay, TopKPolicy> codec(&overlay, &policy);
  wire::Buffer buf;
  const net::Envelope env{1, 0, 1, net::MessageKind::kAck, 0};
  EXPECT_EQ(codec.EncodeAckMessage(env, &buf), wire::kFrameHeaderSize);
  EXPECT_EQ(net::kBareFrameBytes, wire::kFrameHeaderSize);
}

// --- Transport seam, end to end -------------------------------------------

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

TEST(TransportTest, LoopbackCountsEveryShippedFrame) {
  Net net = MakeNet(48, 600, 2, 701);
  const LinearScorer scorer({-0.6, -0.4});
  const TopKQuery q{&scorer, 5};
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  const auto result = engine.Run({.initiator = 0, .query = q,
                                  .ripple = RippleParam::Hops(2)});
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.stats.bytes_on_wire, 0u);
  // Every charged byte crossed the transport. The transport may carry
  // MORE than the stats charge: fast-phase convergecast responses are
  // shipped but uncharged (docs/WIRE.md).
  EXPECT_GE(engine.loopback().bytes_shipped(), result.stats.bytes_on_wire);
  EXPECT_GT(engine.loopback().frames_shipped(), 0u);
}

/// Flips one payload byte in the first `corrupt` datagrams of `kind`.
class CorruptingTransport : public net::Transport {
 public:
  CorruptingTransport(net::MessageKind kind, int corrupt)
      : kind_(kind), corrupt_(corrupt) {}

  void Send(const net::Envelope& env,
            std::vector<uint8_t> datagram) override {
    if (env.kind == kind_ && corrupted_ < corrupt_ &&
        datagram.size() > wire::kFrameHeaderSize) {
      // The first payload byte is always a varint lead byte (zigzag r,
      // state count, answer count); the flip sets its continuation bit and
      // misaligns everything after it, so the decode must reject. A flip
      // in the middle of an f64 would decode fine — the frame format
      // detects structural corruption, not semantic (docs/WIRE.md).
      datagram[wire::kFrameHeaderSize] ^= 0xff;
      ++corrupted_;
    }
    Deliver(env, std::move(datagram));
  }

  int corrupted() const { return corrupted_; }

 private:
  const net::MessageKind kind_;
  const int corrupt_;
  int corrupted_ = 0;
};

/// Delivers bytes unchanged but swallows the first `n` datagrams whole
/// (never delivering is all a lossy wire does — the sender sees nothing).
class SwallowingTransport : public net::Transport {
 public:
  explicit SwallowingTransport(int n) : swallow_(n) {}
  void Send(const net::Envelope& env,
            std::vector<uint8_t> datagram) override {
    if (swallowed_ < swallow_) {
      ++swallowed_;
      return;
    }
    Deliver(env, std::move(datagram));
  }

 private:
  const int swallow_;
  int swallowed_ = 0;
};

template <typename Policy, typename Query>
void ExpectRecoversFromCorruption(net::MessageKind kind, const Query& q,
                                  RippleParam r) {
  Net net = MakeNet(40, 500, 2, 707);
  Engine<MidasOverlay, Policy> sync_engine(&net.overlay, Policy{});
  const auto want = sync_engine.Run({.initiator = 3, .query = q, .ripple = r});

  AsyncEngine<MidasOverlay, Policy> engine(&net.overlay, Policy{});
  CorruptingTransport corrupting(kind, 1);
  engine.SetTransport(&corrupting);
  const auto got = engine.Run({.initiator = 3, .query = q, .ripple = r});

  // The receiver rejected the corrupted frame; the retransmission (of the
  // byte-identical snapshot, now shipped clean) recovered the message, so
  // the answer is still exact and complete.
  EXPECT_EQ(corrupting.corrupted(), 1);
  EXPECT_GT(got.coverage.retries, 0u);
  EXPECT_TRUE(got.complete);
  ASSERT_EQ(got.answer.size(), want.answer.size());
  for (size_t i = 0; i < want.answer.size(); ++i) {
    EXPECT_EQ(got.answer[i].id, want.answer[i].id);
  }
}

TEST(TransportTest, ByteFlipInQueryIsRejectedAndRetransmitted) {
  const LinearScorer scorer({-0.5, -0.5});
  ExpectRecoversFromCorruption<TopKPolicy>(
      net::MessageKind::kQuery, TopKQuery{&scorer, 6}, RippleParam::Hops(2));
}

TEST(TransportTest, ByteFlipInResponseIsRejectedAndRetransmitted) {
  ExpectRecoversFromCorruption<SkylinePolicy>(
      net::MessageKind::kResponse, SkylineQuery{}, RippleParam::Slow());
}

TEST(TransportTest, ByteFlipInAnswerIsRejectedAndRetransmitted) {
  const LinearScorer scorer({-0.4, -0.6});
  ExpectRecoversFromCorruption<TopKPolicy>(
      net::MessageKind::kAnswer, TopKQuery{&scorer, 4}, RippleParam::Fast());
}

TEST(TransportTest, SwallowedDatagramRecoveredByTimers) {
  Net net = MakeNet(40, 500, 2, 709);
  const LinearScorer scorer({-0.5, -0.5});
  const TopKQuery q{&scorer, 6};
  Engine<MidasOverlay, TopKPolicy> sync_engine(&net.overlay, TopKPolicy{});
  const auto want = sync_engine.Run(
      {.initiator = 1, .query = q, .ripple = RippleParam::Hops(1)});

  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  SwallowingTransport swallowing(2);
  engine.SetTransport(&swallowing);
  const auto got = engine.Run(
      {.initiator = 1, .query = q, .ripple = RippleParam::Hops(1)});
  // A fire-and-forget sender cannot see the swallow; the loss surfaces
  // as request timeouts whose retransmissions recover the run.
  EXPECT_GE(got.coverage.timeouts, 2u);
  EXPECT_GE(got.coverage.retries, 2u);
  EXPECT_TRUE(got.complete);
  ASSERT_EQ(got.answer.size(), want.answer.size());
  for (size_t i = 0; i < want.answer.size(); ++i) {
    EXPECT_EQ(got.answer[i].id, want.answer[i].id);
  }
}

/// Cuts the first `n` datagrams of `kind` down to `keep` bytes.
class TruncatingTransport : public net::Transport {
 public:
  TruncatingTransport(net::MessageKind kind, int n, size_t keep)
      : kind_(kind), truncate_(n), keep_(keep) {}

  void Send(const net::Envelope& env,
            std::vector<uint8_t> datagram) override {
    if (env.kind == kind_ && truncated_ < truncate_ &&
        datagram.size() > keep_) {
      datagram.resize(keep_);
      ++truncated_;
    }
    Deliver(env, std::move(datagram));
  }

  int truncated() const { return truncated_; }

 private:
  const net::MessageKind kind_;
  const int truncate_;
  const size_t keep_;
  int truncated_ = 0;
};

TEST(TransportTest, TruncationAndCorruptionSplitTheRejectCounters) {
  Net net = MakeNet(40, 500, 2, 715);
  const LinearScorer scorer({-0.5, -0.5});
  const TopKQuery q{&scorer, 6};
  obs::Registry::EnableGlobal(true);
  obs::Registry& reg = obs::Registry::Global();

  // A datagram cut mid-header counts as truncated, not rejected...
  {
    const uint64_t trunc0 = reg.GetCounter("net.frames_truncated").value();
    const uint64_t rej0 = reg.GetCounter("net.frames_rejected").value();
    AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
    TruncatingTransport truncating(net::MessageKind::kQuery, 1, /*keep=*/10);
    engine.SetTransport(&truncating);
    const auto got = engine.Run(
        {.initiator = 3, .query = q, .ripple = RippleParam::Hops(2)});
    EXPECT_EQ(truncating.truncated(), 1);
    EXPECT_TRUE(got.complete);  // the retransmission recovered it
    EXPECT_EQ(reg.GetCounter("net.frames_truncated").value(), trunc0 + 1);
    EXPECT_EQ(reg.GetCounter("net.frames_rejected").value(), rej0);
  }
  // ...while a payload byte flip under an intact header counts as
  // rejected, not truncated.
  {
    const uint64_t trunc0 = reg.GetCounter("net.frames_truncated").value();
    const uint64_t rej0 = reg.GetCounter("net.frames_rejected").value();
    AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
    CorruptingTransport corrupting(net::MessageKind::kQuery, 1);
    engine.SetTransport(&corrupting);
    const auto got = engine.Run(
        {.initiator = 3, .query = q, .ripple = RippleParam::Hops(2)});
    EXPECT_EQ(corrupting.corrupted(), 1);
    EXPECT_TRUE(got.complete);
    EXPECT_EQ(reg.GetCounter("net.frames_rejected").value(), rej0 + 1);
    EXPECT_EQ(reg.GetCounter("net.frames_truncated").value(), trunc0);
  }
  obs::Registry::EnableGlobal(false);
}

// --- Cross-engine byte parity ---------------------------------------------

template <typename Policy, typename Query>
void ExpectByteParity(const Net& net, const Query& q, RippleParam r) {
  Engine<MidasOverlay, Policy> sync_engine(&net.overlay, Policy{});
  AsyncEngine<MidasOverlay, Policy> async_engine(&net.overlay, Policy{});
  const auto sync =
      sync_engine.Run({.initiator = 2, .query = q, .ripple = r});
  const auto async =
      async_engine.Run({.initiator = 2, .query = q, .ripple = r});
  EXPECT_EQ(sync.stats.bytes_on_wire, async.stats.bytes_on_wire) << "r=" << r;
  EXPECT_GT(sync.stats.bytes_on_wire, 0u);
}

TEST(ByteParityTest, RecursiveAndAsyncChargeIdenticalBytes) {
  Net net = MakeNet(64, 800, 3, 711);
  const LinearScorer scorer({-0.5, -0.3, -0.2});
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    ExpectByteParity<TopKPolicy>(net, TopKQuery{&scorer, 8}, r);
    ExpectByteParity<SkylinePolicy>(net, SkylineQuery{}, r);
    ExpectByteParity<SkybandPolicy>(net, SkybandQuery{2, Norm::kL2}, r);
  }
}

}  // namespace
}  // namespace ripple

// Unit tests for the unified engine API surface: the RippleParam value
// type, QueryRequest/QueryResult defaults, and the Coverage report type.

#include "ripple/api.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "queries/topk.h"

namespace ripple {
namespace {

// --- RippleParam -------------------------------------------------------------

TEST(RippleParamTest, ConstructorsAndPredicates) {
  EXPECT_TRUE(RippleParam().is_fast());
  EXPECT_TRUE(RippleParam::Fast().is_fast());
  EXPECT_FALSE(RippleParam::Fast().is_slow());
  EXPECT_TRUE(RippleParam::Slow().is_slow());
  EXPECT_FALSE(RippleParam::Slow().is_fast());
  const RippleParam mid = RippleParam::Hops(3);
  EXPECT_FALSE(mid.is_fast());
  EXPECT_FALSE(mid.is_slow());
  EXPECT_EQ(mid.hops(), 3);
  // Hops(0) is exactly fast, negative clamps to fast.
  EXPECT_EQ(RippleParam::Hops(0), RippleParam::Fast());
  EXPECT_EQ(RippleParam::Hops(-5), RippleParam::Fast());
}

TEST(RippleParamTest, SlowExceedsAnyRealisticDepth) {
  // The engine counts the slow budget down one hop at a time; Slow() must
  // outlast any reachable overlay depth.
  EXPECT_GT(RippleParam::Slow().hops(), 1 << 19);
}

TEST(RippleParamTest, ToStringForms) {
  EXPECT_EQ(RippleParam::Fast().ToString(), "fast");
  EXPECT_EQ(RippleParam::Slow().ToString(), "slow");
  EXPECT_EQ(RippleParam::Hops(12).ToString(), "12");
}

TEST(RippleParamTest, ParseAcceptsCanonicalSpellings) {
  ASSERT_TRUE(RippleParam::Parse("fast").ok());
  EXPECT_EQ(RippleParam::Parse("fast").value(), RippleParam::Fast());
  ASSERT_TRUE(RippleParam::Parse("slow").ok());
  EXPECT_EQ(RippleParam::Parse("slow").value(), RippleParam::Slow());
  ASSERT_TRUE(RippleParam::Parse("0").ok());
  EXPECT_EQ(RippleParam::Parse("0").value(), RippleParam::Fast());
  ASSERT_TRUE(RippleParam::Parse("7").ok());
  EXPECT_EQ(RippleParam::Parse("7").value(), RippleParam::Hops(7));
  // A huge decimal degenerates to slow.
  ASSERT_TRUE(RippleParam::Parse("1048576").ok());
  EXPECT_EQ(RippleParam::Parse("1048576").value(), RippleParam::Slow());
}

TEST(RippleParamTest, ParseRejectsGarbage) {
  EXPECT_FALSE(RippleParam::Parse("").ok());
  EXPECT_FALSE(RippleParam::Parse("quick").ok());
  EXPECT_FALSE(RippleParam::Parse("-1").ok());
  EXPECT_FALSE(RippleParam::Parse("3 hops").ok());
}

TEST(RippleParamTest, ParseToStringRoundTrips) {
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Hops(1),
                              RippleParam::Hops(42), RippleParam::Slow()}) {
    const auto parsed = RippleParam::Parse(r.ToString());
    ASSERT_TRUE(parsed.ok()) << r.ToString();
    EXPECT_EQ(parsed.value(), r);
  }
}

TEST(RippleParamTest, StreamInsertionUsesToString) {
  std::ostringstream os;
  os << RippleParam::Slow() << "/" << RippleParam::Hops(2);
  EXPECT_EQ(os.str(), "slow/2");
}

// --- QueryRequest / QueryResult ----------------------------------------------

TEST(QueryRequestTest, DefaultsDescribeAPerfectNetworkRun) {
  QueryRequest<TopKPolicy> request;
  EXPECT_EQ(request.initiator, kInvalidPeer);
  EXPECT_TRUE(request.ripple.is_fast());
  EXPECT_FALSE(request.initial_state.has_value());
  EXPECT_TRUE(std::isinf(request.deadline));
  EXPECT_FALSE(request.fault.AnyFault());
}

TEST(QueryRequestTest, DesignatedInitializersCompose) {
  QueryRequest<TopKPolicy> request{.initiator = 3,
                                   .ripple = RippleParam::Slow(),
                                   .deadline = 100.0,
                                   .fault = {.loss_rate = 0.1, .seed = 9}};
  EXPECT_EQ(request.initiator, 3u);
  EXPECT_TRUE(request.ripple.is_slow());
  EXPECT_DOUBLE_EQ(request.deadline, 100.0);
  EXPECT_TRUE(request.fault.AnyFault());
  EXPECT_EQ(request.fault.seed, 9u);
}

TEST(QueryResultTest, DefaultsAreCompleteAndInstant) {
  QueryResult<TupleVec> result;
  EXPECT_TRUE(result.complete);
  EXPECT_DOUBLE_EQ(result.completion_time, 0.0);
  EXPECT_TRUE(result.coverage.complete());
  EXPECT_TRUE(result.coverage.quiet());
}

// --- FaultOptions / Coverage -------------------------------------------------

TEST(FaultOptionsTest, AnyFaultDetectsEveryKnob) {
  EXPECT_FALSE(net::FaultOptions{}.AnyFault());
  EXPECT_TRUE(net::FaultOptions{.loss_rate = 0.01}.AnyFault());
  EXPECT_TRUE(net::FaultOptions{.dup_rate = 0.01}.AnyFault());
  EXPECT_TRUE(net::FaultOptions{.delay_jitter = 0.5}.AnyFault());
  EXPECT_TRUE(net::FaultOptions{.crash_rate = 0.01}.AnyFault());
  net::FaultOptions explicit_crash;
  explicit_crash.crashes.push_back({.peer = 4, .at = 2.0});
  EXPECT_TRUE(explicit_crash.AnyFault());
}

TEST(CoverageTest, CompleteAndQuietTrackTheRightCounters) {
  net::Coverage c;
  EXPECT_TRUE(c.complete());
  EXPECT_TRUE(c.quiet());
  c.retries = 2;  // noisy but still complete
  EXPECT_TRUE(c.complete());
  EXPECT_FALSE(c.quiet());
  c.links_unresolved = 1;
  EXPECT_FALSE(c.complete());
  c.links_unresolved = 0;
  c.answers_lost = 1;
  EXPECT_FALSE(c.complete());
}

TEST(CoverageTest, AccumulationMergesCountersAndPeerSets) {
  net::Coverage a;
  a.retries = 1;
  a.links_unresolved = 1;
  a.unreachable_peers = {2, 5};
  net::Coverage b;
  b.retries = 3;
  b.answers_lost = 1;
  b.unreachable_peers = {5, 9};
  b.crashed_peers = {9};
  a += b;
  EXPECT_EQ(a.retries, 4u);
  EXPECT_EQ(a.links_unresolved, 1u);
  EXPECT_EQ(a.answers_lost, 1u);
  EXPECT_EQ(a.unreachable_peers, (std::vector<PeerId>{2, 5, 9}));
  EXPECT_EQ(a.crashed_peers, (std::vector<PeerId>{9}));
  EXPECT_FALSE(a.complete());
}

TEST(CoverageTest, ToStringShowsOnlyNonZeroCounters) {
  net::Coverage c;
  EXPECT_EQ(c.ToString(), "complete");
  c.retries = 2;
  EXPECT_EQ(c.ToString(), "complete retries=2");
  c.links_unresolved = 1;
  c.unreachable_peers = {7};
  const std::string s = c.ToString();
  EXPECT_NE(s.find("partial("), std::string::npos) << s;
  EXPECT_NE(s.find("links=1"), std::string::npos) << s;
  EXPECT_NE(s.find("retries=2"), std::string::npos) << s;
  EXPECT_EQ(s.find("timeouts"), std::string::npos) << s;
}

}  // namespace
}  // namespace ripple

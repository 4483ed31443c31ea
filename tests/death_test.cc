// Failure-injection tests: RIPPLE_CHECK invariants must abort loudly on
// programmer error rather than corrupt state silently.

#include <gtest/gtest.h>

#include "common/bitstring.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "geom/zorder.h"
#include "net/envelope.h"
#include "net/transport.h"
#include "queries/diversify.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, RectRejectsInvertedBounds) {
  EXPECT_DEATH(Rect(Point{0.5, 0.5}, Point{0.4, 0.6}), "RIPPLE_CHECK");
}

TEST(DeathTest, RectRejectsMixedDims) {
  EXPECT_DEATH(Rect(Point{0.0, 0.0}, Point{1.0, 1.0, 1.0}), "RIPPLE_CHECK");
}

TEST(DeathTest, RectSplitRejectsOutOfRangeValue) {
  const Rect r = Rect::Unit(2);
  EXPECT_DEATH(r.Split(0, 1.5), "RIPPLE_CHECK");
  EXPECT_DEATH(r.Split(5, 0.5), "RIPPLE_CHECK");
}

TEST(DeathTest, PointRejectsTooManyDims) {
  EXPECT_DEATH(Point(kMaxDims + 1), "RIPPLE_CHECK");
}

TEST(DeathTest, BitStringRejectsBadCharacters) {
  EXPECT_DEATH(BitString("01x"), "RIPPLE_CHECK");
}

TEST(DeathTest, BitStringParentOfRoot) {
  EXPECT_DEATH(BitString().Parent(), "RIPPLE_CHECK");
}

TEST(DeathTest, ZipfRejectsZeroBuckets) {
  EXPECT_DEATH(ZipfSampler(0, 1.0), "RIPPLE_CHECK");
}

TEST(DeathTest, RngRejectsEmptyRange) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformU64(0), "RIPPLE_CHECK");
  EXPECT_DEATH(rng.UniformInt(3, 2), "RIPPLE_CHECK");
  EXPECT_DEATH(rng.Exponential(0.0), "RIPPLE_CHECK");
}

TEST(DeathTest, ZOrderRejectsBadConfig) {
  EXPECT_DEATH(ZOrder(0, Rect::Unit(2)), "RIPPLE_CHECK");
  EXPECT_DEATH(ZOrder(2, Rect::Unit(3)), "RIPPLE_CHECK");
  EXPECT_DEATH(ZOrder(2, Rect::Unit(2), 40), "RIPPLE_CHECK");  // 80 bits
}

TEST(DeathTest, UnpreparedDivQueryRefusesToScore) {
  DivQuery q;
  q.objective.query = Point{0.5, 0.5};
  // Phi without Precompute would silently use stale stats; it must abort.
  EXPECT_DEATH(q.Phi(Point{0.1, 0.1}), "RIPPLE_CHECK");
  EXPECT_DEATH(q.PhiLowerBound(Rect::Unit(2)), "RIPPLE_CHECK");
}

TEST(DeathTest, LoopbackSendWithNoReceiverIsAnEngineBug) {
  // Push transports deliver only through the receiver; there is no inbox
  // for a datagram to wait in.
  net::LoopbackTransport loopback;
  const net::Envelope env{1, 0, 1, net::MessageKind::kAck, 0};
  wire::Buffer buf;
  wire::EndFrame(&buf, net::BeginEnvelopeFrame(env, &buf));
  EXPECT_DEATH(loopback.Send(env, buf.Take()), "RIPPLE_CHECK");
}

}  // namespace
}  // namespace ripple

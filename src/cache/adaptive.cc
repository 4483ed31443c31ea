#include "cache/adaptive.h"

#include <algorithm>
#include <cstdio>

namespace ripple::cache {
namespace {

// Tuning follows the paper's ablation sweep: small r captures most of the
// message savings while the latency stays near the fast extreme, so the
// controller works a narrow band around depth/3 instead of sweeping the
// whole range.

/// The controller never chooses r above this.
constexpr int kMaxHops = 8;
/// EWMA weight of history per observation: an observation's influence
/// halves with every later one.
constexpr double kDecay = 0.5;
/// Messages-per-latency-hop above which the run looks broadcast-heavy and
/// the controller raises r (more slow discipline, more pruning).
constexpr double kFloodThreshold = 4.0;
/// Messages-per-latency-hop below which pruning already works and the
/// controller lowers r to cut sequential latency.
constexpr double kCalmThreshold = 1.5;

}  // namespace

int DepthHint(size_t num_peers) {
  int depth = 0;
  while ((size_t{1} << depth) < num_peers && depth < 62) ++depth;
  return depth;
}

AdaptiveController::AdaptiveController(int depth_hint)
    : depth_hint_(depth_hint < 0 ? 0 : depth_hint) {}

RippleParam AdaptiveController::Choose() const {
  int r = std::clamp(depth_hint_ / 3, 1, kMaxHops);
  if (observations_ > 0) {
    const double per_hop = ewma_messages_ / std::max(1.0, ewma_hops_);
    if (per_hop > kFloodThreshold) {
      r = std::min(r + 1, kMaxHops);
    } else if (per_hop < kCalmThreshold) {
      r = std::max(r - 1, 0);
    }
  }
  return r == 0 ? RippleParam::Fast() : RippleParam::Hops(r);
}

void AdaptiveController::Observe(const QueryStats& stats) {
  const double a = kDecay;
  if (observations_ == 0) {
    ewma_hops_ = static_cast<double>(stats.latency_hops);
    ewma_messages_ = static_cast<double>(stats.messages);
    ewma_bytes_ = static_cast<double>(stats.bytes_on_wire);
  } else {
    ewma_hops_ = a * ewma_hops_ + (1 - a) * stats.latency_hops;
    ewma_messages_ = a * ewma_messages_ + (1 - a) * stats.messages;
    ewma_bytes_ = a * ewma_bytes_ + (1 - a) * stats.bytes_on_wire;
  }
  observations_ += 1;
}

std::string AdaptiveController::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "choose=%s n=%llu ewma_hops=%.2f ewma_messages=%.2f "
                "ewma_bytes=%.0f",
                Choose().ToString().c_str(),
                static_cast<unsigned long long>(observations_), ewma_hops_,
                ewma_messages_, ewma_bytes_);
  return buf;
}

}  // namespace ripple::cache

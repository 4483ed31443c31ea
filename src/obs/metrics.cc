#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/kernel_counters.h"

namespace ripple::obs {

double NearestRankPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(clamped / 100.0 * n));
  if (rank < 1) rank = 1;                // p = 0 -> minimum
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

Histogram::Histogram(std::vector<double> bounds) {
  bounds_ = bounds.empty() ? DefaultBounds() : std::move(bounds);
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
}

Histogram::Histogram(const Histogram& o) : bounds_(o.bounds_) {
  buckets_ = std::vector<std::atomic<uint64_t>>(o.buckets_.size());
  for (size_t i = 0; i < o.buckets_.size(); ++i) {
    buckets_[i].store(o.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  count_.store(o.count(), std::memory_order_relaxed);
  sum_.store(o.sum(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(o.samples_mu_);
  samples_ = o.samples_;
  sorted_ = o.sorted_;
}

Histogram& Histogram::operator=(const Histogram& o) {
  if (this == &o) return *this;
  Histogram copy(o);
  bounds_ = std::move(copy.bounds_);
  buckets_ = std::move(copy.buckets_);
  count_.store(copy.count(), std::memory_order_relaxed);
  sum_.store(copy.sum(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(samples_mu_);
  samples_ = std::move(copy.samples_);
  sorted_ = copy.sorted_;
  return *this;
}

std::vector<double> Histogram::DefaultBounds() {
  std::vector<double> b;
  for (double v = 1.0; v <= 65536.0; v *= 2.0) b.push_back(v);
  return b;
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (!samples_.empty() && v < samples_.back()) sorted_ = false;
  samples_.push_back(v);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (samples_.empty()) return 0.0;
  if (sorted_) return samples_.front();
  return *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (samples_.empty()) return 0.0;
  if (sorted_) return samples_.back();
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::Percentile(double p) const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return NearestRankPercentile(samples_, p);
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.2f p50=%g p90=%g p99=%g max=%g",
                static_cast<unsigned long long>(count()), mean(),
                Percentile(50), Percentile(90), Percentile(99), max());
  return buf;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::vector<std::pair<std::string, uint64_t>> Registry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::GaugeValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::string Registry::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "counter %s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "gauge %s = %g\n", name.c_str(),
                  g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(buf, sizeof(buf), "histogram %s: %s\n", name.c_str(),
                  h->Summary().c_str());
    out += buf;
  }
  return out;
}

std::atomic<bool> Registry::g_global_enabled{false};

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // leaked: process lifetime
  return *registry;
}

void RecordRouteHops(const char* overlay, uint64_t hops) {
  if (!Registry::GlobalEnabled()) return;
  // Each thread looks an overlay's instruments up once (the registry never
  // erases one), so a route records without a string or the registry lock.
  struct Route {
    std::string overlay;
    Counter* calls;
    Histogram* hops;
  };
  thread_local std::vector<Route> cache;
  auto it = std::find_if(cache.begin(), cache.end(), [overlay](const Route& r) {
    return r.overlay == overlay;
  });
  if (it == cache.end()) {
    Registry& r = Registry::Global();
    const std::string prefix(overlay);
    cache.push_back(Route{prefix, &r.GetCounter(prefix + ".route.calls"),
                          &r.GetHistogram(prefix + ".route.hops")});
    it = cache.end() - 1;
  }
  it->calls->Inc();
  it->hops->Observe(static_cast<double>(hops));
}

namespace {

/// Adds `n` to the global kernel counter `name` (created on its first
/// nonzero flush); `slot` caches the lookup.
void FlushKernelCounter(const char* name, uint64_t n, Counter** slot) {
  if (n == 0) return;
  if (*slot == nullptr) *slot = &Registry::Global().GetCounter(name);
  (*slot)->Inc(n);
}

}  // namespace

void FlushKernelCounters() {
  KernelCounters& kc = LocalKernelCounters();
  if (Registry::GlobalEnabled()) {
    thread_local Counter* scanned = nullptr;
    thread_local Counter* cmps = nullptr;
    thread_local Counter* pushes = nullptr;
    FlushKernelCounter("kernel.tuples_scanned", kc.tuples_scanned, &scanned);
    FlushKernelCounter("kernel.dominance_cmps", kc.dominance_cmps, &cmps);
    FlushKernelCounter("kernel.heap_pushes", kc.heap_pushes, &pushes);
  }
  kc = KernelCounters{};
}

}  // namespace ripple::obs

#include "obs/snapshot.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/json.h"

namespace ripple::obs {

const Snapshot& SnapshotSeries::Capture(double at_ms) {
  Snapshot s;
  s.at_ms = at_ms;
  s.counters = registry_->CounterValues();
  s.gauges = registry_->GaugeValues();
  snapshots_.push_back(std::move(s));
  return snapshots_.back();
}

std::vector<uint64_t> SnapshotSeries::Deltas(const std::string& name) const {
  auto value_in = [&name](const Snapshot& s) -> uint64_t {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  std::vector<uint64_t> out;
  for (size_t i = 1; i < snapshots_.size(); ++i) {
    const uint64_t prev = value_in(snapshots_[i - 1]);
    const uint64_t cur = value_in(snapshots_[i]);
    out.push_back(cur >= prev ? cur - prev : 0);
  }
  return out;
}

std::string SnapshotSeries::ToJson() const {
  // Names are appended as they are, so no length truncates them; only
  // the numbers go through a fixed buffer.
  std::string out = "[";
  char num[48];
  for (size_t i = 0; i < snapshots_.size(); ++i) {
    const Snapshot& s = snapshots_[i];
    if (i > 0) out += ", ";
    std::snprintf(num, sizeof(num), "%.3f", s.at_ms);
    out += "{\"at_ms\": ";
    out += num;
    out += ", \"counters\": {";
    for (size_t c = 0; c < s.counters.size(); ++c) {
      if (c > 0) out += ", ";
      out += "\"" + JsonEscape(s.counters[c].first) + "\": ";
      out += std::to_string(s.counters[c].second);
    }
    out += "}, \"gauges\": {";
    for (size_t g = 0; g < s.gauges.size(); ++g) {
      if (g > 0) out += ", ";
      std::snprintf(num, sizeof(num), "%.10g", s.gauges[g].second);
      out += "\"" + JsonEscape(s.gauges[g].first) + "\": ";
      out += num;
    }
    out += "}}";
  }
  out += "]";
  return out;
}

bool SlowQueryLog::Observe(const std::string& label, uint64_t trace_id,
                           double latency_ms, double at_ms, bool sampled) {
  if (latency_ms < threshold_ms_) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ != 0 && entries_.size() >= capacity_) {
    dropped_ += 1;
    return true;
  }
  SlowQueryEntry e;
  e.label = label;
  e.trace_id = trace_id;
  e.latency_ms = latency_ms;
  e.at_ms = at_ms;
  e.force_sampled = !sampled;
  entries_.push_back(std::move(e));
  return true;
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

uint64_t SlowQueryLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string SlowQueryLog::ToJson() const {
  std::string out = "[";
  char buf[128];
  const std::vector<SlowQueryEntry> entries = Entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const SlowQueryEntry& e = entries[i];
    if (i > 0) out += ", ";
    out += "{\"label\": \"" + JsonEscape(e.label) + "\"";
    std::snprintf(buf, sizeof(buf),
                  ", \"trace_id\": \"%" PRIu64
                  "\", \"latency_ms\": %.3f, \"at_ms\": %.3f, "
                  "\"force_sampled\": %s}",
                  e.trace_id, e.latency_ms, e.at_ms,
                  e.force_sampled ? "true" : "false");
    out += buf;
  }
  out += "]";
  return out;
}

Status WriteSnapshotJson(const SnapshotSeries* series,
                         const SlowQueryLog* slow, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path);
  out << "{\"snapshots\": "
      << (series != nullptr ? series->ToJson() : std::string("[]"))
      << ", \"slow_queries\": "
      << (slow != nullptr ? slow->ToJson() : std::string("[]")) << "}\n";
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

}  // namespace ripple::obs

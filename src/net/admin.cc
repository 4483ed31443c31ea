#include "net/admin.h"

#include <cstdint>
#include <cstdio>
#include <vector>

namespace ripple::net {
namespace {

// Shared shape of the three counter structs: varint field count, then
// the fields in ForEach order. `visit(s, fn)` adapts the per-struct
// ForEach*Field visitor.

template <typename S, typename Visit>
void EncodeCounterStruct(const S& s, Visit visit, wire::Buffer* buf) {
  uint64_t n = 0;
  visit(s, [&](const char*, const uint64_t&) { n += 1; });
  buf->PutVarint(n);
  visit(s, [&](const char*, const uint64_t& v) { buf->PutVarint(v); });
}

template <typename S, typename Visit>
bool DecodeCounterStruct(wire::Reader* r, S* s, Visit visit) {
  uint64_t expect = 0;
  visit(*s, [&](const char*, uint64_t&) { expect += 1; });
  if (r->Varint() != expect) r->Fail();
  visit(*s, [&](const char*, uint64_t& v) { v = r->Varint(); });
  return r->ok();
}

template <typename S, typename Visit>
std::string CounterStructJson(const S& s, Visit visit) {
  std::string out = "{";
  bool first = true;
  visit(s, [&](const char* name, const uint64_t& v) {
    if (!first) out += ",";
    first = false;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu", name,
                  static_cast<unsigned long long>(v));
    out += buf;
  });
  out += "}";
  return out;
}

/// A 32-bit peer id carried as a varint; a wider value fails the reader.
uint32_t GetPeerId(wire::Reader* r) {
  const uint64_t v = r->Varint();
  if (v > UINT32_MAX) r->Fail();
  return static_cast<uint32_t>(v);
}

const auto kStatFields = [](auto&& s, auto&& fn) {
  ForEachDaemonStatField(s, fn);
};
const auto kTransportFields = [](auto&& s, auto&& fn) {
  ForEachTransportCounterField(s, fn);
};
const auto kDepthFields = [](auto&& s, auto&& fn) {
  ForEachQueueDepthField(s, fn);
};

}  // namespace

void EncodeDaemonStats(const DaemonStats& s, wire::Buffer* buf) {
  EncodeCounterStruct(s, kStatFields, buf);
}
bool DecodeDaemonStats(wire::Reader* r, DaemonStats* s) {
  return DecodeCounterStruct(r, s, kStatFields);
}
void EncodeTransportCounters(const TransportCounters& t, wire::Buffer* buf) {
  EncodeCounterStruct(t, kTransportFields, buf);
}
bool DecodeTransportCounters(wire::Reader* r, TransportCounters* t) {
  return DecodeCounterStruct(r, t, kTransportFields);
}
void EncodeQueueDepths(const QueueDepths& q, wire::Buffer* buf) {
  EncodeCounterStruct(q, kDepthFields, buf);
}
bool DecodeQueueDepths(wire::Reader* r, QueueDepths* q) {
  return DecodeCounterStruct(r, q, kDepthFields);
}

void EncodeStatsReport(const AdminStatsReport& s, wire::Buffer* buf) {
  buf->PutVarint(s.uptime_ms);
  buf->PutVarint(s.peer_lo);
  buf->PutVarint(s.peer_hi);
  EncodeDaemonStats(s.stats, buf);
  EncodeTransportCounters(s.transport, buf);
  EncodeQueueDepths(s.queues, buf);
}

bool DecodeStatsReport(wire::Reader* r, AdminStatsReport* s) {
  s->uptime_ms = r->Varint();
  s->peer_lo = GetPeerId(r);
  s->peer_hi = GetPeerId(r);
  return DecodeDaemonStats(r, &s->stats) &&
         DecodeTransportCounters(r, &s->transport) &&
         DecodeQueueDepths(r, &s->queues) && r->ok();
}

std::string DaemonStatsJson(const DaemonStats& s) {
  return CounterStructJson(s, kStatFields);
}
std::string TransportCountersJson(const TransportCounters& t) {
  return CounterStructJson(t, kTransportFields);
}
std::string QueueDepthsJson(const QueueDepths& q) {
  return CounterStructJson(q, kDepthFields);
}

std::string StatsReportJson(const AdminStatsReport& s) {
  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"uptime_ms\":%llu,\"peer_lo\":%u,\"peer_hi\":%u,",
                static_cast<unsigned long long>(s.uptime_ms), s.peer_lo,
                s.peer_hi);
  std::string out = head;
  out += "\"stats\":" + DaemonStatsJson(s.stats);
  out += ",\"transport\":" + TransportCountersJson(s.transport);
  out += ",\"queues\":" + QueueDepthsJson(s.queues);
  out += "}";
  return out;
}

namespace {

template <typename S, typename Visit>
void AddCounterStruct(S* into, const S& s, Visit visit) {
  std::vector<uint64_t> add;
  visit(s, [&](const char*, const uint64_t& v) { add.push_back(v); });
  size_t i = 0;
  visit(*into, [&](const char*, uint64_t& v) { v += add[i++]; });
}

}  // namespace

void AddInto(DaemonStats* into, const DaemonStats& s) {
  AddCounterStruct(into, s, kStatFields);
}

void AddInto(TransportCounters* into, const TransportCounters& t) {
  AddCounterStruct(into, t, kTransportFields);
}

void AddInto(QueueDepths* into, const QueueDepths& q) {
  AddCounterStruct(into, q, kDepthFields);
}

namespace {

template <typename S, typename Visit>
void SyncCounterStruct(obs::Registry* registry, const char* prefix,
                       const S& s, Visit visit) {
  visit(s, [&](const char* name, const uint64_t& v) {
    obs::Counter& c = registry->GetCounter(std::string(prefix) + name);
    const uint64_t cur = c.value();
    if (v > cur) c.Inc(v - cur);
  });
}

}  // namespace

void StatsBridge::SyncStats(const DaemonStats& s) {
  SyncCounterStruct(registry_, "net.daemon.", s, kStatFields);
}

void StatsBridge::SyncTransport(const TransportCounters& t) {
  SyncCounterStruct(registry_, "net.udp.", t, kTransportFields);
}

void StatsBridge::SyncQueues(const QueueDepths& q, double uptime_ms) {
  ForEachQueueDepthField(q, [&](const char* name, const uint64_t& v) {
    registry_->GetGauge(std::string("net.daemon.") + name)
        .Set(static_cast<double>(v));
  });
  registry_->GetGauge("net.daemon.uptime_ms").Set(uptime_ms);
}

}  // namespace ripple::net

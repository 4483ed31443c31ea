#include "net/traffic.h"

#include <cstdio>

#include "obs/metrics.h"

namespace ripple::net {

std::string WireTraffic::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "bytes=%llu (query=%llu response=%llu answer=%llu ack=%llu) "
                "frames=%llu rejected=%llu truncated=%llu",
                static_cast<unsigned long long>(total()),
                static_cast<unsigned long long>(bytes_query),
                static_cast<unsigned long long>(bytes_response),
                static_cast<unsigned long long>(bytes_answer),
                static_cast<unsigned long long>(bytes_ack),
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(frames_rejected),
                static_cast<unsigned long long>(frames_truncated));
  return buf;
}

void RecordTrafficMetrics(const WireTraffic& t) {
  if (!obs::Registry::GlobalEnabled()) return;
  // Looked up once: the registry never erases an instrument.
  struct Counters {
    obs::Registry& reg = obs::Registry::Global();
    obs::Counter& query = reg.GetCounter("net.bytes_query");
    obs::Counter& response = reg.GetCounter("net.bytes_response");
    obs::Counter& answer = reg.GetCounter("net.bytes_answer");
    obs::Counter& ack = reg.GetCounter("net.bytes_ack");
    obs::Counter& total = reg.GetCounter("net.bytes_total");
    obs::Counter& shipped = reg.GetCounter("net.frames_shipped");
    obs::Counter& rejected = reg.GetCounter("net.frames_rejected");
    obs::Counter& truncated = reg.GetCounter("net.frames_truncated");
  };
  static Counters k;
  k.query.Inc(t.bytes_query);
  k.response.Inc(t.bytes_response);
  k.answer.Inc(t.bytes_answer);
  k.ack.Inc(t.bytes_ack);
  k.total.Inc(t.total());
  k.shipped.Inc(t.frames);
  k.rejected.Inc(t.frames_rejected);
  k.truncated.Inc(t.frames_truncated);
}

}  // namespace ripple::net

#include "overlay/chord/chord.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace ripple {

ChordOverlay::ChordOverlay(size_t num_peers, const ChordOptions& options)
    : zorder_(options.dims,
              options.domain.dims() == 0 ? Rect::Unit(options.dims)
                                         : options.domain,
              options.bits_per_dim) {
  RIPPLE_CHECK(num_peers >= 1);
  RIPPLE_CHECK(num_peers <= RingSize());
  // Distinct random ring positions, sorted.
  Rng rng(options.seed);
  std::set<uint64_t> keys;
  while (keys.size() < num_peers) keys.insert(rng.UniformU64(RingSize()));
  peers_.resize(num_peers);
  size_t i = 0;
  for (uint64_t k : keys) peers_[i++].key = k;
  for (size_t p = 0; p < num_peers; ++p) {
    peers_[p].zone_end = peers_[(p + 1) % num_peers].key;
  }

  // Finger links: for every i, the owner of key + 2^i; deduplicated, self
  // excluded, ordered clockwise. The region of each link is the arc from
  // its target's zone start to the next link target's zone start; the last
  // region ends at the peer's own key (paper, Section 3.1).
  const uint64_t ring = RingSize();
  for (PeerId id = 0; id < num_peers; ++id) {
    Peer& w = peers_[id];
    std::set<PeerId> targets;
    if (num_peers > 1) {
      // The successor pointer every Chord node maintains; without it the
      // finger regions could skip the successor's zone and leave a gap.
      targets.insert(static_cast<PeerId>((id + 1) % num_peers));
    }
    for (int b = 0; (uint64_t{1} << b) < ring; ++b) {
      const uint64_t probe = (w.key + (uint64_t{1} << b)) % ring;
      const PeerId t = ResponsibleForKey(probe);
      if (t != id) targets.insert(t);
    }
    // Clockwise order of targets by zone start relative to w.
    std::vector<PeerId> ordered(targets.begin(), targets.end());
    auto clockwise = [&](PeerId a, PeerId b2) {
      const uint64_t da = (peers_[a].key + ring - w.key) % ring;
      const uint64_t db = (peers_[b2].key + ring - w.key) % ring;
      return da < db;
    };
    std::sort(ordered.begin(), ordered.end(), clockwise);
    for (size_t j = 0; j < ordered.size(); ++j) {
      const uint64_t start = peers_[ordered[j]].key;
      const uint64_t end =
          j + 1 < ordered.size() ? peers_[ordered[j + 1]].key : w.key;
      Link link;
      link.target = ordered[j];
      link.region.zorder = &zorder_;
      link.region.segments = SplitArc(start, end);
      w.links.push_back(std::move(link));
    }
  }
}

std::vector<std::pair<uint64_t, uint64_t>> ChordOverlay::SplitArc(
    uint64_t lo, uint64_t hi) const {
  std::vector<std::pair<uint64_t, uint64_t>> segs;
  if (lo == hi) return segs;  // empty arc (full-ring arcs never occur here)
  if (lo < hi) {
    segs.emplace_back(lo, hi);
  } else {
    segs.emplace_back(lo, RingSize());
    if (hi > 0) segs.emplace_back(0, hi);
    std::sort(segs.begin(), segs.end());
  }
  return segs;
}

const ChordOverlay::Peer& ChordOverlay::GetPeer(PeerId id) const {
  RIPPLE_DCHECK(id < peers_.size());
  return peers_[id];
}

PeerId ChordOverlay::RandomPeer(Rng* rng) const {
  return static_cast<PeerId>(rng->UniformU64(peers_.size()));
}

PeerId ChordOverlay::ResponsibleForKey(uint64_t key) const {
  // Owner = last peer with key <= target, wrapping to the highest peer.
  auto it = std::upper_bound(peers_.begin(), peers_.end(), key,
                             [](uint64_t k, const Peer& p) {
                               return k < p.key;
                             });
  if (it == peers_.begin()) return static_cast<PeerId>(peers_.size() - 1);
  return static_cast<PeerId>(it - peers_.begin() - 1);
}

PeerId ChordOverlay::ResponsiblePeer(const Point& p) const {
  return ResponsibleForKey(zorder_.Encode(p));
}

void ChordOverlay::InsertTuple(const Tuple& t) {
  peers_[ResponsiblePeer(t.key)].store.Add(t);
}

size_t ChordOverlay::TotalTuples() const {
  size_t total = 0;
  for (const Peer& p : peers_) total += p.store.size();
  return total;
}

PeerId ChordOverlay::RouteToKey(PeerId from, uint64_t key, uint64_t* hops,
                                std::vector<PeerId>* path) const {
  const uint64_t ring = RingSize();
  PeerId current = from;
  obs::RouteRecorder rec("chord", path);
  auto owns = [&](PeerId id) {
    const Peer& p = peers_[id];
    const uint64_t span = (p.zone_end + ring - p.key) % ring;
    const uint64_t off = (key + ring - p.key) % ring;
    return peers_.size() == 1 || off < span;
  };
  for (size_t guard = 0; guard <= peers_.size(); ++guard) {
    if (owns(current)) {
      return rec.Arrive(current, hops);
    }
    // Classic Chord: the farthest link that does not overshoot the key.
    const Peer& p = peers_[current];
    PeerId next = kInvalidPeer;
    uint64_t best = 0;
    for (const Link& link : p.links) {
      const uint64_t d = (peers_[link.target].key + ring - p.key) % ring;
      const uint64_t target_d = (key + ring - p.key) % ring;
      if (d <= target_d && d >= best) {
        best = d;
        next = link.target;
      }
    }
    RIPPLE_CHECK(next != kInvalidPeer);
    current = rec.Step(current, next);
  }
  RIPPLE_CHECK(false && "Chord routing failed to converge");
  return kInvalidPeer;
}

ChordOverlay::Area ChordOverlay::FullArea() const {
  Area a;
  a.zorder = &zorder_;
  a.segments.emplace_back(0, RingSize());
  return a;
}

bool ChordOverlay::IntersectArea(const Area& a, const Area& b, Area* out) {
  out->zorder = a.zorder != nullptr ? a.zorder : b.zorder;
  out->segments.clear();
  for (const auto& [alo, ahi] : a.segments) {
    for (const auto& [blo, bhi] : b.segments) {
      const uint64_t lo = std::max(alo, blo);
      const uint64_t hi = std::min(ahi, bhi);
      if (lo < hi) out->segments.emplace_back(lo, hi);
    }
  }
  std::sort(out->segments.begin(), out->segments.end());
  return !out->segments.empty();
}

void ChordOverlay::EncodeArea(const Area& area, wire::Buffer* buf) const {
  buf->PutVarint(area.segments.size());
  for (const auto& [lo, hi] : area.segments) {
    buf->PutVarint(lo);
    buf->PutVarint(hi - lo);
  }
}

size_t ChordOverlay::AreaWireSize(const Area& area) const {
  size_t n = wire::VarintSize(area.segments.size());
  for (const auto& [lo, hi] : area.segments) {
    n += wire::VarintSize(lo) + wire::VarintSize(hi - lo);
  }
  return n;
}

bool ChordOverlay::DecodeArea(wire::Reader* r, Area* out) const {
  out->zorder = &zorder_;
  out->segments.clear();
  const uint64_t count = r->Varint();
  // Each segment needs at least two varint bytes.
  if (!r->ok() || count > r->remaining() / 2) {
    r->Fail();
    return false;
  }
  out->segments.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t lo = r->Varint();
    const uint64_t span = r->Varint();
    if (!r->ok()) return false;
    if (span == 0 || lo >= RingSize() || span > RingSize() - lo) {
      r->Fail();
      return false;
    }
    out->segments.emplace_back(lo, lo + span);
  }
  return true;
}

Status ChordOverlay::Validate() const {
  const uint64_t ring = RingSize();
  // Keys strictly increasing; zones chain around the ring.
  for (size_t i = 0; i + 1 < peers_.size(); ++i) {
    if (peers_[i].key >= peers_[i + 1].key) {
      return Status::Internal("ring keys not sorted");
    }
    if (peers_[i].zone_end != peers_[i + 1].key) {
      return Status::Internal("zone chain broken");
    }
  }
  for (PeerId id = 0; id < peers_.size(); ++id) {
    const Peer& w = peers_[id];
    // Link regions must partition the ring minus w's own zone.
    uint64_t covered = 0;
    for (const Link& link : w.links) {
      if (link.target >= peers_.size() || link.target == id) {
        return Status::Internal("bad link target");
      }
      covered += link.region.TotalKeys();
      // The target's zone start must begin its region.
      if (!link.region.ContainsKey(peers_[link.target].key) &&
          link.region.TotalKeys() > 0) {
        return Status::Internal("link target outside its region");
      }
    }
    const uint64_t own = (w.zone_end + ring - w.key) % ring;
    const uint64_t own_span = peers_.size() == 1 ? ring : own;
    if (peers_.size() > 1 && covered != ring - own_span) {
      return Status::Internal("link regions do not cover ring minus zone");
    }
    const store::FlatStore& rows = w.store.flat();
    for (size_t r = 0; r < rows.size(); ++r) {
      const uint64_t key = zorder_.Encode(rows.PointAt(r));
      const uint64_t off = (key + ring - w.key) % ring;
      if (peers_.size() > 1 && off >= own_span) {
        return Status::Internal("tuple outside zone");
      }
    }
  }
  return Status::OK();
}

}  // namespace ripple

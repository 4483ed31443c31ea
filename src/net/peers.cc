#include "net/peers.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "geom/point.h"

namespace ripple::net {
namespace {

// Splits "key=value"; returns false when there is no '='.
bool SplitKeyValue(const std::string& token, std::string* key,
                   std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

// Decimal digits only: strtoull alone would also take a sign (so "-1"
// wraps to 2^64-1) and leading blanks, and saturates on overflow.
bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

Status ParseConfigLine(std::istringstream* in, NetConfig* config) {
  std::string token;
  while (*in >> token) {
    std::string key, value;
    if (!SplitKeyValue(token, &key, &value)) {
      return Status::InvalidArgument("config directive expects key=value, got '" +
                                     token + "'");
    }
    uint64_t num = 0;
    if (key == "dataset") {
      config->dataset = value;
    } else if (key == "peers" && ParseU64(value, &num) &&
               num <= kInvalidPeer) {
      // Ids run over [0, peers), so every one stays below kInvalidPeer.
      config->peers = num;
    } else if (key == "dims" && ParseU64(value, &num) && num >= 1 &&
               num <= static_cast<uint64_t>(kMaxDims)) {
      config->dims = static_cast<int64_t>(num);
    } else if (key == "tuples" && ParseU64(value, &num)) {
      config->tuples = num;
    } else if (key == "seed" && ParseU64(value, &num)) {
      config->seed = num;
    } else if (key == "patterns" && ParseU64(value, &num)) {
      config->patterns = num != 0;
    } else {
      return Status::InvalidArgument("bad config entry '" + token + "'");
    }
  }
  return Status::OK();
}

Status ParsePeerLine(std::istringstream* in, PeerAssignment* out) {
  std::string range, addr;
  if (!(*in >> range >> addr)) {
    return Status::InvalidArgument("peer directive expects '<id|lo-hi> host:port'");
  }
  uint64_t lo = 0, hi = 0;
  const size_t dash = range.find('-');
  if (dash == std::string::npos) {
    if (!ParseU64(range, &lo) || lo >= kInvalidPeer) {
      return Status::InvalidArgument("bad peer id '" + range + "'");
    }
    hi = lo;
  } else {
    if (!ParseU64(range.substr(0, dash), &lo) ||
        !ParseU64(range.substr(dash + 1), &hi) || hi < lo ||
        hi >= kInvalidPeer) {
      return Status::InvalidArgument("bad peer range '" + range + "'");
    }
  }
  auto endpoint = ParseEndpoint(addr);
  if (!endpoint.ok()) return endpoint.status();
  out->lo = static_cast<PeerId>(lo);
  out->hi = static_cast<PeerId>(hi);
  out->endpoint = *endpoint;
  return Status::OK();
}

}  // namespace

std::string Endpoint::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), ":%u", static_cast<unsigned>(port));
  return host + buf;
}

Result<Endpoint> ParseEndpoint(const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("endpoint '" + text +
                                   "' is not host:port");
  }
  uint64_t port = 0;
  if (!ParseU64(text.substr(colon + 1), &port) || port > 65535) {
    return Status::InvalidArgument("bad port in endpoint '" + text + "'");
  }
  Endpoint e;
  e.host = text.substr(0, colon);
  e.port = static_cast<uint16_t>(port);
  return e;
}

const Endpoint* PeersFile::Find(PeerId id) const {
  for (const PeerAssignment& a : assignments) {
    if (id >= a.lo && id <= a.hi) return &a.endpoint;
  }
  return nullptr;
}

std::vector<PeerId> PeersFile::PeersAt(const Endpoint& endpoint) const {
  std::vector<PeerId> out;
  for (const PeerAssignment& a : assignments) {
    if (!(a.endpoint == endpoint)) continue;
    for (PeerId id = a.lo; id <= a.hi; ++id) out.push_back(id);
  }
  return out;
}

std::vector<Endpoint> PeersFile::Processes() const {
  std::vector<Endpoint> out;
  for (const PeerAssignment& a : assignments) {
    bool seen = false;
    for (const Endpoint& e : out) seen = seen || e == a.endpoint;
    if (!seen) out.push_back(a.endpoint);
  }
  return out;
}

std::string PeersFile::Format() const {
  std::ostringstream out;
  out << "config dataset=" << config.dataset << " peers=" << config.peers
      << " dims=" << config.dims << " tuples=" << config.tuples
      << " seed=" << config.seed << " patterns=" << (config.patterns ? 1 : 0)
      << "\n";
  for (const PeerAssignment& a : assignments) {
    out << "peer " << a.lo;
    if (a.hi != a.lo) out << "-" << a.hi;
    out << " " << a.endpoint.ToString() << "\n";
  }
  return out.str();
}

Result<PeersFile> ParsePeersFile(const std::string& text) {
  PeersFile file;
  bool saw_config = false;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream in(line);
    std::string directive;
    if (!(in >> directive)) continue;  // blank / comment-only line
    Status s = Status::OK();
    if (directive == "config") {
      if (saw_config) {
        s = Status::InvalidArgument("duplicate config directive");
      } else {
        saw_config = true;
        s = ParseConfigLine(&in, &file.config);
      }
    } else if (directive == "peer") {
      PeerAssignment a;
      s = ParsePeerLine(&in, &a);
      if (s.ok()) file.assignments.push_back(a);
    } else {
      s = Status::InvalidArgument("unknown directive '" + directive + "'");
    }
    if (!s.ok()) {
      return Status::InvalidArgument("peers file line " +
                                     std::to_string(lineno) + ": " +
                                     std::string(s.message()));
    }
  }
  if (!saw_config) {
    return Status::InvalidArgument("peers file has no config directive");
  }
  // Coverage check: every peer id in [0, peers) served exactly once. The
  // ranges are walked in ascending order, so nothing is sized by the
  // declared peer count.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  ranges.reserve(file.assignments.size());
  for (const PeerAssignment& a : file.assignments) {
    ranges.emplace_back(a.lo, a.hi);
  }
  std::sort(ranges.begin(), ranges.end());
  uint64_t next = 0;  // lowest id not yet covered
  for (const auto& [lo, hi] : ranges) {
    if (hi >= file.config.peers) {
      return Status::InvalidArgument(
          "peer id " + std::to_string(hi) + " outside config peers=" +
          std::to_string(file.config.peers));
    }
    if (lo < next) {
      return Status::InvalidArgument("peer id " + std::to_string(lo) +
                                     " assigned more than once");
    }
    if (lo > next) break;
    next = hi + 1;
  }
  if (next < file.config.peers) {
    return Status::InvalidArgument("peer id " + std::to_string(next) +
                                   " is not assigned");
  }
  return file;
}

Result<PeersFile> LoadPeersFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open peers file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return ParsePeersFile(text.str());
}

}  // namespace ripple::net

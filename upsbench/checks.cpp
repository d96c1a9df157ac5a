#include "checks.h"

#include <algorithm>
#include <map>
#include <utility>

#include "sim/units.h"

namespace upsbench {

namespace {

using ups::sim::time_ps;

struct link_bound {
  ups::sim::bits_per_sec rate = 0;  // fastest parallel link
  time_ps delay = 0;                // shortest parallel link
};

// Undirected node pair -> the fastest rate and shortest delay among the
// links joining it, so the bounds below hold whichever link carried p.
class link_table {
 public:
  explicit link_table(const ups::topo::topology& t) {
    for (const auto& l : t.core_links) add(l.a, l.b, l.rate, l.delay);
    for (std::size_t h = 0; h < t.hosts.size(); ++h) {
      add(t.hosts[h].router, t.host_id(h), t.hosts[h].rate,
          t.hosts[h].delay);
    }
  }

  // nullptr when the topology has no such link.
  [[nodiscard]] const link_bound* find(ups::net::node_id a,
                                       ups::net::node_id b) const {
    const auto it = links_.find(std::minmax(a, b));
    return it == links_.end() ? nullptr : &it->second;
  }

 private:
  void add(ups::net::node_id a, ups::net::node_id b,
           ups::sim::bits_per_sec rate, time_ps delay) {
    const auto key = std::minmax(a, b);
    const auto it = links_.find(key);
    if (it == links_.end()) {
      links_.emplace(key, link_bound{rate, delay});
    } else {
      it->second.rate = std::max(it->second.rate, rate);
      it->second.delay = std::min(it->second.delay, delay);
    }
  }

  std::map<std::pair<ups::net::node_id, ups::net::node_id>, link_bound>
      links_;
};

time_ps tx(const link_bound& l, std::uint32_t bytes) {
  return l.rate == ups::sim::kInfiniteRate
             ? 0
             : ups::sim::transmission_time(bytes, l.rate);
}

// The link leaving path[j]: to path[j+1], or to the destination host at the
// egress router.
const link_bound* next_link(const link_table& links,
                            const ups::net::packet_record& r, std::size_t j) {
  const ups::net::node_id next =
      j + 1 < r.path.size() ? r.path[j + 1] : r.dst_host;
  return links.find(r.path[j], next);
}

std::string packet_name(const ups::net::packet_record& r) {
  return "packet " + std::to_string(r.id);
}

}  // namespace

void check_physical_lower_bound(const ups::net::trace& t,
                                const ups::topo::topology& topo,
                                failure_list& failures) {
  const link_table links(topo);
  for (const auto& r : t.packets) {
    if (r.dropped()) continue;
    if (r.path.empty()) {
      failures.push_back(packet_name(r) + ": empty path");
      return;
    }
    time_ps tmin = 0;
    for (std::size_t j = 0; j < r.path.size(); ++j) {
      const link_bound* l = next_link(links, r, j);
      if (l == nullptr) {
        failures.push_back(packet_name(r) + ": path leaves the topology");
        return;
      }
      tmin += tx(*l, r.size_bytes);
      if (j + 1 < r.path.size()) tmin += l->delay;
    }
    if (r.egress_time < r.ingress_time + tmin) {
      failures.push_back(packet_name(r) +
                         ": egress before ingress + tmin (physical bound)");
      return;
    }
  }
}

void check_causality(const ups::net::trace& t,
                     const ups::topo::topology& topo, failure_list& failures) {
  const link_table links(topo);
  for (const auto& r : t.packets) {
    if (r.dropped() || r.hop_departs.size() != r.path.size()) continue;
    time_ps arrival = r.ingress_time;  // last bit at path[j]
    for (std::size_t j = 0; j < r.path.size(); ++j) {
      const link_bound* l = next_link(links, r, j);
      if (l == nullptr) {
        failures.push_back(packet_name(r) + ": path leaves the topology");
        return;
      }
      if (r.hop_departs[j] < arrival + tx(*l, r.size_bytes)) {
        failures.push_back(packet_name(r) + ": hop " + std::to_string(j) +
                           " departs before arrival + transmission");
        return;
      }
      arrival = r.hop_departs[j] + l->delay;
    }
    if (r.egress_time != r.hop_departs.back()) {
      failures.push_back(packet_name(r) +
                         ": egress differs from the last hop departure");
      return;
    }
  }
}

void check_replay(const std::string& what, const ups::core::replay_result& r,
                  std::uint64_t records, failure_list& failures) {
  if (r.total + r.dropped != records) {
    failures.push_back(what + ": total + dropped != records (" +
                       std::to_string(r.total) + " + " +
                       std::to_string(r.dropped) + " vs " +
                       std::to_string(records) + ")");
  }
  if (r.overdue_beyond_T > r.overdue || r.overdue > r.total) {
    failures.push_back(what + ": overdue counts out of order");
  }
}

void check_same_counts(const std::string& what,
                       const ups::core::replay_result& a,
                       const ups::core::replay_result& b,
                       failure_list& failures) {
  if (a.total != b.total || a.overdue != b.overdue ||
      a.overdue_beyond_T != b.overdue_beyond_T || a.dropped != b.dropped) {
    failures.push_back(what + ": counts differ (overdue " +
                       std::to_string(a.overdue) + " vs " +
                       std::to_string(b.overdue) + ")");
  }
}

void check_same_slot(const ups::exp::shard_result& fabric,
                     const ups::exp::shard_result& local,
                     failure_list& failures) {
  bool same = fabric.trace_packets == local.trace_packets &&
              fabric.threshold_T == local.threshold_T &&
              fabric.original_peak_pool_packets ==
                  local.original_peak_pool_packets &&
              fabric.original_flows_completed ==
                  local.original_flows_completed &&
              fabric.replays.size() == local.replays.size();
  for (std::size_t m = 0; same && m < local.replays.size(); ++m) {
    const auto& a = fabric.replays[m];
    const auto& b = local.replays[m];
    same = a.mode == b.mode && a.result.total == b.result.total &&
           a.result.overdue == b.result.overdue &&
           a.result.overdue_beyond_T == b.result.overdue_beyond_T &&
           a.result.dropped == b.result.dropped &&
           a.result.peak_pool_packets == b.result.peak_pool_packets;
  }
  if (!same) {
    failures.push_back("dispatch: slot recomputed in-process differs from "
                       "the process backend's");
  }
}

}  // namespace upsbench

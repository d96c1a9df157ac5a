// Output checks that the benchmark derives on its own from the paper's
// model, never from a copy of an earlier run's output. Every check appends
// a message to `failures` when it does not hold.
#pragma once

#include <string>
#include <vector>

#include "core/replay.h"
#include "exp/dispatch/backend.h"
#include "net/trace.h"
#include "topo/topology.h"

namespace upsbench {

using failure_list = std::vector<std::string>;

// Physical lower bound: every delivered packet's o(p) is at least
// i(p) + tmin(p), with tmin recomputed here from the topology's link rates
// and propagation delays (transmission at every hop, propagation between
// routers), not taken from net::network::tmin.
void check_physical_lower_bound(const ups::net::trace& t,
                                const ups::topo::topology& topo,
                                failure_list& failures);

// Causality on traces recorded with hop times: each router's last-bit
// departure is at least the previous departure (i(p) at the ingress) plus
// the propagation delay in between plus this hop's transmission time.
// Records without hop times are skipped.
void check_causality(const ups::net::trace& t,
                     const ups::topo::topology& topo, failure_list& failures);

// Conservation (total + dropped == records) and ordering
// (overdue_T <= overdue <= total) of one replay.
void check_replay(const std::string& what, const ups::core::replay_result& r,
                  std::uint64_t records, failure_list& failures);

// Appendix E: LSTF and EDF (and LSTF on the p-heap) replay one trace to the
// same schedule, so their counts must be identical.
void check_same_counts(const std::string& what,
                       const ups::core::replay_result& a,
                       const ups::core::replay_result& b,
                       failure_list& failures);

// A dispatch slot recomputed in-process must equal the slot the fabric
// returned, field by field (wall times excepted).
void check_same_slot(const ups::exp::shard_result& fabric,
                     const ups::exp::shard_result& local,
                     failure_list& failures);

}  // namespace upsbench

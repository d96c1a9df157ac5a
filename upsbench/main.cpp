// upsbench — record and replay throughput of the library's public entry
// points on three workloads, with per-layer attribution.
//
//   upsbench --workload=NAME --seed=N --seconds=S --trace=0|1 --out-dir=DIR
//
// Runs whole rounds of the workload until S seconds have passed and prints
// one JSON object as its last line of output. With --trace=0 the metrics
// are the end-to-end ones (host time, never simulated time); with
// --trace=1 the run alternates untraced and traced rounds on the same
// inputs, records a span around every call into a layer, writes the spans
// with each layer's self time to DIR, and prints the per-layer metrics.
// setup_s is one cold set-up per run, timed from main()'s entry to the end
// of the first make_topology + populate + build; only argument parsing
// runs before it.
//
// Workloads (see upsbench/README.md for why each exists):
//   i2-table1         I2 1G-10G @70%, Random original, open-loop, hop
//                     times, v3 on disk, replayed under five modes
//   rocketfuel-sweep  small RocketFuel record+replay tasks on the process
//                     dispatch backend
//   fattree-tcp       fat tree @70%, closed-loop TCP, 0.1% wire loss, v3 on
//                     disk, replayed under live credit flow control

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/registry.h"
#include "core/replay.h"
#include "exp/dispatch/backend.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "sim/simulator.h"
#include "spans.h"
#include "topo/topology.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace {

using namespace ups;
using upsbench::clock_type;
using upsbench::failure_list;
using upsbench::span;
using upsbench::tracer;

struct mode_info {
  core::replay_mode mode;
  const char* key;  // metric-name component
  core::sched_kind sched;
};

constexpr mode_info kModes[] = {
    {core::replay_mode::lstf, "lstf", core::sched_kind::lstf},
    {core::replay_mode::lstf_pheap, "lstf_pheap",
     core::sched_kind::lstf_pheap},
    {core::replay_mode::edf, "edf", core::sched_kind::edf},
    {core::replay_mode::priority_output_time, "priority",
     core::sched_kind::static_priority},
    {core::replay_mode::omniscient, "omniscient",
     core::sched_kind::omniscient},
};

const mode_info& info_of(core::replay_mode m) {
  for (const auto& i : kModes) {
    if (i.mode == m) return i;
  }
  throw std::logic_error("upsbench: unknown replay mode");
}

// One round of a workload: every number the metrics are built from.
struct round_stats {
  double wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t recorded = 0;  // packets recorded
  double record_s = 0;         // host time inside run_original
  std::uint64_t replayed = 0;  // packets replayed, all modes
  double replay_s = 0;         // host time inside replay calls
  std::size_t replays_ok = 0;
  // Per-call rates (packets/s): one per run_original and per replay.
  std::vector<double> record_rates;
  std::vector<double> replay_rates;
  std::map<std::string, double> mode_s;
  std::map<std::string, std::uint64_t> mode_peak_pool;
  std::uint64_t peak_pool = 0;
  std::uint64_t peak_event_slots = 0;
  std::uint64_t ack_records = 0;
  std::uint64_t dropped_records = 0;
  double encode_s = 0;
  double bytes_per_packet = 0;
  double dispatch_wall_s = 0;
  double dispatch_busy_s = 0;
  std::uint64_t worker_failures = 0;
  // Traced rounds of a governed workload only: the governed LSTF replay's
  // wall minus an ungoverned replay of the same file, run after the round.
  double flow_overhead_s = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Metrics in printing order, each with its unit.
class metric_set {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }

  [[nodiscard]] std::string json() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.10g", items_[i].value);
      s += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<item> items_;
};

// make_topology + populate + build: what every record and every replay
// pays once before simulating.
void build_network(const topo::topology& t, net::network& net,
                   std::uint64_t seed) {
  topo::populate(t, net);
  net.set_scheduler_factory(
      core::make_factory(core::sched_kind::random, seed, &net));
  net.build();
}

// Peak resident memory of this process and of its reaped worker children.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// Drives one scheduler from core::make_factory with an enqueue/dequeue hold
// loop at `depth` queued packets: each dequeued packet is re-enqueued with
// its header pushed later by a pseudo-random increment. Returns ns per
// operation (an enqueue or a dequeue).
double sched_ns_per_op(const topo::topology& topology, const mode_info& mi,
                       const std::vector<net::packet_record>& sample,
                       std::size_t depth, std::uint64_t seed) {
  sim::simulator sim;
  net::network net(sim);
  build_network(topology, net, seed);
  const net::port* pt = nullptr;
  for (const auto& p : net.ports()) {
    if (net.is_router(p->from()) && net.is_router(p->to())) {
      pt = p.get();
      break;
    }
  }
  if (pt == nullptr || sample.empty() || depth == 0) return 0;
  const net::port_info info{pt->id(), pt->from(), pt->to(),
                            net::node_kind::router, pt->rate()};
  const auto sched = core::make_factory(mi.sched, seed, &net)(info);

  sim::time_ps lo = sample.front().egress_time;
  sim::time_ps hi = lo;
  for (const auto& r : sample) {
    lo = std::min(lo, r.egress_time);
    hi = std::max(hi, r.egress_time);
  }
  const sim::time_ps spread = hi - lo + 1;
  for (std::size_t i = 0; i < depth; ++i) {
    const net::packet_record& r = sample[i % sample.size()];
    net::packet_ptr p = net.pool().make();
    p->id = i;
    p->size_bytes = r.size_bytes;
    p->src_host = r.src_host;
    p->dst_host = r.dst_host;
    p->path = r.path;
    p->hop = 1;  // queued at path[0]'s output port
    // Header as the replay engine initializes it, offset so copies of one
    // record do not tie.
    const sim::time_ps out = r.egress_time + static_cast<sim::time_ps>(
                                                 i / sample.size()) * spread;
    p->slack = out - r.ingress_time - net.tmin(*p, 0);
    p->deadline = out;
    p->priority = out;
    p->hop_deadlines.assign(1, out);
    sched->enqueue(std::move(p), 0);
  }

  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  std::vector<sim::time_ps> bumps(1024);
  for (auto& b : bumps) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    b = spread / 2 + static_cast<sim::time_ps>(x % (static_cast<std::uint64_t>(
                                                        spread) + 1));
  }
  constexpr std::size_t kOps = 200'000;
  const auto t0 = clock_type::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    net::packet_ptr p = sched->dequeue(0);
    const sim::time_ps b = bumps[i % bumps.size()];
    p->slack += b;
    p->deadline += b;
    p->priority += b;
    p->hop_deadlines[0] += b;
    p->sched_key_port = -1;  // a fresh arrival, not a preempted re-enqueue
    sched->enqueue(std::move(p), 0);
  }
  const double s = upsbench::seconds_between(t0, clock_type::now());
  while (sched->dequeue(0)) {
  }
  return s * 1e9 / (2.0 * kOps);
}

// Up to this many delivered records of a round's trace are kept to build
// the scheduler hold loop's packets.
constexpr std::size_t kSampleRecords = 4096;

void keep_sample(const net::trace& t, std::vector<net::packet_record>& out) {
  out.clear();
  for (const auto& r : t.packets) {
    if (r.dropped()) continue;
    out.push_back(r);
    if (out.size() == kSampleRecords) break;
  }
}

class workload {
 public:
  virtual ~workload() = default;
  [[nodiscard]] virtual exp::topo_kind topology() const = 0;
  virtual round_stats round(std::uint64_t round_seed, tracer& tr,
                            failure_list& failures) = 0;
  // Traced-run-only measurements beyond the rounds, after them.
  virtual void layer_extras(tracer& tr, metric_set& m,
                            const std::vector<round_stats>& traced,
                            failure_list& failures) = 0;
  // Once-per-run checks after the rounds.
  virtual void final_checks(failure_list& failures) { (void)failures; }
};

// Shared traced-run measurements: warm network builds, flow generation and
// the scheduler hold loop at the workload's peak depth.
void common_extras(tracer& tr, metric_set& m, const exp::scenario& sc,
                   const std::vector<net::packet_record>& sample,
                   std::size_t depth, double& build_s) {
  const topo::topology topology = exp::make_topology(sc.topo);
  std::vector<double> builds;
  const int reps = sc.topo == exp::topo_kind::rocketfuel ? 5 : 15;
  for (int i = 0; i < reps; ++i) {
    span sp(tr, "topo.build");
    const topo::topology t = exp::make_topology(sc.topo);
    sim::simulator sim;
    net::network net(sim);
    build_network(t, net, sc.seed);
    builds.push_back(sp.stop());
  }
  build_s = median(builds);
  m.set("topo.build_s", build_s, "s");

  {
    sim::simulator sim;
    net::network net(sim);
    build_network(topology, net, sc.seed);
    const auto dist = traffic::default_heavy_tailed();
    traffic::workload_config cfg;
    cfg.utilization = sc.utilization;
    cfg.seed = sc.seed;
    cfg.packet_budget = sc.packet_budget;
    span sp(tr, "traffic.generate");
    const traffic::workload w = traffic::generate(net, topology, *dist, cfg);
    m.set("traffic.generate_s", sp.stop(), "s");
    m.set("traffic.flows", static_cast<double>(w.flows.size()), "count");
  }

  for (const auto& mi : kModes) {
    span sp(tr, std::string("sched.") + mi.key);
    m.set(std::string("sched.") + mi.key + ".ns_per_op",
          sched_ns_per_op(topology, mi, sample, depth, sc.seed), "ns");
  }
}

// Record a trace, write it as v3, replay it from disk under each mode —
// the path `tracec gen` + `tracec replay` takes.
class disk_workload final : public workload {
 public:
  // `acks_lack_hops`: the workload's ACK records carry no hop times, so its
  // Omniscient replay is refused every time (a known library fault); that
  // refusal is counted as failed instead of making the run incorrect.
  disk_workload(exp::scenario base, std::vector<core::replay_mode> modes,
                net::flow_spec replay_flow, std::string trace_path,
                bool acks_lack_hops)
      : base_(std::move(base)),
        modes_(std::move(modes)),
        replay_flow_(std::move(replay_flow)),
        path_(std::move(trace_path)),
        acks_lack_hops_(acks_lack_hops) {}

  [[nodiscard]] exp::topo_kind topology() const override { return base_.topo; }

  round_stats round(std::uint64_t round_seed, tracer& tr,
                    failure_list& failures) override {
    round_stats s;
    span whole(tr, "round");
    exp::scenario sc = base_;
    sc.seed = round_seed;
    last_ = sc;

    exp::original_run orig;
    {
      span sp(tr, "record");
      orig = exp::run_original(sc);
      s.record_s = sp.stop();
    }
    ++s.attempted;
    const std::uint64_t records = orig.trace.packets.size();
    s.recorded = records;
    s.record_rates.push_back(static_cast<double>(records) / s.record_s);
    s.peak_pool = orig.peak_pool_packets;
    s.peak_event_slots = orig.peak_event_slots;
    bool stall_free = true;
    {
      span sp(tr, "check.trace");
      upsbench::check_physical_lower_bound(orig.trace, orig.topology,
                                           failures);
      upsbench::check_causality(orig.trace, orig.topology, failures);
      for (const auto& r : orig.trace.packets) {
        if (r.flow_size_bytes == 0) ++s.ack_records;  // TCP stamps 0 on ACKs
        if (r.dropped()) ++s.dropped_records;
        if (r.stalled()) stall_free = false;
      }
    }
    {
      span sp(tr, "trace.encode");
      net::save_trace_v3(path_, orig.trace);
      s.encode_s = sp.stop();
    }
    ++s.attempted;
    s.bytes_per_packet =
        static_cast<double>(std::filesystem::file_size(path_)) /
        static_cast<double>(records);
    keep_sample(orig.trace, sample_);
    orig.trace = net::trace{};  // replays stream from disk

    std::map<core::replay_mode, core::replay_result> done;
    for (const core::replay_mode mode : modes_) {
      const mode_info& mi = info_of(mode);
      ++s.attempted;
      core::replay_result r;
      double replay_s = 0;
      bool ok = true;
      std::string error;
      {
        span sp(tr, std::string("replay.") + mi.key);
        try {
          r = exp::run_replay_file(path_, orig.topology, orig.threshold_T,
                                   mode, false,
                                   core::injection_mode::streaming,
                                   net::trace_access::sequential,
                                   replay_flow_);
        } catch (const std::exception& e) {
          ok = false;
          error = e.what();
        }
        replay_s = sp.stop();
        s.replay_s += replay_s;
        s.mode_s[mi.key] = replay_s;
      }
      if (!ok) {
        ++s.failed;
        const bool known = acks_lack_hops_ &&
                           mode == core::replay_mode::omniscient &&
                           s.ack_records > 0 &&
                           error.find("requires a trace recorded with hop "
                                      "times") != std::string::npos;
        if (!known) {
          failures.push_back(std::string("replay ") + mi.key + ": " + error);
        }
        continue;
      }
      ++s.replays_ok;
      s.replayed += r.total + r.dropped;
      s.replay_rates.push_back(static_cast<double>(r.total + r.dropped) /
                               replay_s);
      s.mode_peak_pool[mi.key] = r.peak_pool_packets;
      upsbench::check_replay(std::string("replay ") + mi.key, r, records,
                             failures);
      done.emplace(mode, r);
    }

    {
      span sp(tr, "check.replay");
      const auto lstf = done.find(core::replay_mode::lstf);
      for (const auto m :
           {core::replay_mode::lstf_pheap, core::replay_mode::edf}) {
        const auto other = done.find(m);
        if (lstf != done.end() && other != done.end()) {
          upsbench::check_same_counts(
              std::string("Appendix E: LSTF vs ") + info_of(m).key,
              lstf->second, other->second, failures);
        }
      }
      const auto omni = done.find(core::replay_mode::omniscient);
      if (omni != done.end() && stall_free && omni->second.overdue != 0) {
        failures.push_back("Appendix B: omniscient replay has " +
                           std::to_string(omni->second.overdue) +
                           " overdue packets on a stall-free trace");
      }
    }
    s.wall_s = whole.stop();

    // Flow-control cost, paired per traced round: an ungoverned LSTF replay
    // of the same file, outside the round's wall so tracing.overhead_s does
    // not see it. It is checked but not counted in `attempted`, so every
    // round, traced or not, attempts the same operations.
    const auto governed = s.mode_s.find("lstf");
    if (tr.enabled() && replay_flow_.enabled() && governed != s.mode_s.end()) {
      span sp(tr, "flow.ungoverned_replay");
      const auto r = exp::run_replay_file(path_, orig.topology,
                                          orig.threshold_T,
                                          core::replay_mode::lstf, false);
      s.flow_overhead_s = governed->second - sp.stop();
      upsbench::check_replay("ungoverned replay", r, records, failures);
    }
    return s;
  }

  void layer_extras(tracer& tr, metric_set& m,
                    const std::vector<round_stats>& traced,
                    failure_list& failures) override {
    std::uint64_t depth = 0;
    std::vector<double> flow_overhead;
    for (const auto& s : traced) {
      depth = std::max(depth, s.peak_pool);
      flow_overhead.push_back(s.flow_overhead_s);
    }
    double build_s = 0;
    common_extras(tr, m, last_, sample_, depth, build_s);

    std::uint64_t decoded = 0;
    double decode_s = 0;
    {
      span sp(tr, "trace.decode");
      const auto cur = net::open_trace_cursor(path_);
      std::vector<const net::packet_record*> run;
      while (true) {
        run.clear();
        const std::size_t n = cur->next_run(run);
        if (n == 0) break;
        decoded += n;
      }
      decode_s = sp.stop();
    }
    if (decoded != traced.back().recorded) {
      failures.push_back("trace decode: record count differs from the "
                         "recorded trace");
    }
    m.set("trace.decode_s", decode_s, "s");
    m.set("trace.decode_pps", static_cast<double>(decoded) / decode_s,
          "packets/s");

    m.set("flow.replay_overhead_s", median(flow_overhead), "s");

    std::vector<double> busy_modes;
    for (const auto& s : traced) {
      busy_modes.push_back(s.replay_s - static_cast<double>(s.replays_ok) *
                                            (decode_s + build_s));
    }
    m.set("replay.core_s", median(busy_modes), "s");
  }

 private:
  exp::scenario base_;
  std::vector<core::replay_mode> modes_;
  net::flow_spec replay_flow_;
  std::string path_;
  bool acks_lack_hops_;
  exp::scenario last_;
  std::vector<net::packet_record> sample_;
};

// Many small record+replay tasks fanned out by the process backend.
class sweep_workload final : public workload {
 public:
  sweep_workload(exp::scenario base, std::size_t tasks,
                 std::vector<core::replay_mode> modes)
      : base_(std::move(base)), tasks_(tasks), modes_(std::move(modes)) {
    // Half the CPUs, at most 4: with a worker on every CPU, any other
    // process on the machine stalls one of them, and the per-call rates
    // swung by a third from run to run.
    const unsigned n = std::thread::hardware_concurrency();
    spec_.kind = exp::dispatch::backend_kind::process;
    spec_.workers = std::clamp<std::size_t>(n / 2, 1, 4);
  }

  [[nodiscard]] exp::topo_kind topology() const override { return base_.topo; }

  round_stats round(std::uint64_t round_seed, tracer& tr,
                    failure_list& failures) override {
    round_stats s;
    span whole(tr, "round");
    std::vector<exp::shard_task> tasks;
    for (std::size_t j = 0; j < tasks_; ++j) {
      exp::shard_task t{base_, modes_};
      t.sc.seed = round_seed * 64 + j + 1;
      tasks.push_back(std::move(t));
    }
    auto plan = exp::dispatch::job_plan::from_tasks(std::move(tasks));
    exp::dispatch::run_report rep;
    {
      span sp(tr, "dispatch");
      rep = exp::dispatch::run(plan, spec_);
      s.dispatch_wall_s = sp.stop();
    }
    s.worker_failures = rep.worker_failures.size();
    {
      span sp(tr, "check.sweep");
      for (std::size_t j = 0; j < tasks_; ++j) {
        s.attempted += 1 + modes_.size();
        if (rep.status[j] != exp::dispatch::job_status::ok) {
          s.failed += 1 + modes_.size();
          failures.push_back("dispatch job " + std::to_string(j) + ": " +
                             rep.errors[j]);
          continue;
        }
        const exp::shard_result& r = rep.results[j];
        s.recorded += r.trace_packets;
        s.record_s += r.original_wall_seconds;
        s.record_rates.push_back(static_cast<double>(r.trace_packets) /
                                 r.original_wall_seconds);
        s.peak_pool = std::max(s.peak_pool, r.original_peak_pool_packets);
        s.dispatch_busy_s += r.original_wall_seconds;
        for (const auto& rp : r.replays) {
          const mode_info& mi = info_of(rp.mode);
          upsbench::check_replay(std::string("replay ") + mi.key, rp.result,
                                 r.trace_packets, failures);
          s.replayed += rp.result.total + rp.result.dropped;
          s.replay_s += rp.wall_seconds;
          s.replay_rates.push_back(
              static_cast<double>(rp.result.total + rp.result.dropped) /
              rp.wall_seconds);
          s.dispatch_busy_s += rp.wall_seconds;
          s.mode_s[mi.key] += rp.wall_seconds;
          s.mode_peak_pool[mi.key] =
              std::max(s.mode_peak_pool[mi.key], rp.result.peak_pool_packets);
          ++s.replays_ok;
        }
        if (r.replays.size() == 2) {
          upsbench::check_same_counts("Appendix E: LSTF vs edf",
                                      r.replays[0].result,
                                      r.replays[1].result, failures);
        }
      }
    }
    if (!first_plan_) {
      first_plan_ = std::make_unique<exp::dispatch::job_plan>(std::move(plan));
      first_report_ = std::move(rep);
    }
    s.wall_s = whole.stop();
    return s;
  }

  // One slot of the first round recomputed in-process must equal what the
  // process backend returned for it.
  void final_checks(failure_list& failures) override {
    if (!first_plan_) return;
    const std::size_t j = first_plan_->tasks.front().sc.seed % tasks_;
    if (first_report_.status[j] != exp::dispatch::job_status::ok) return;
    const exp::shard_result local =
        exp::dispatch::run_memory_job(*first_plan_, j);
    upsbench::check_same_slot(first_report_.results[j], local, failures);
  }

  void layer_extras(tracer& tr, metric_set& m,
                    const std::vector<round_stats>& traced,
                    failure_list& failures) override {
    std::uint64_t depth = 0;
    for (const auto& s : traced) depth = std::max(depth, s.peak_pool);
    exp::scenario sc = base_;
    sc.seed = first_plan_->tasks.front().sc.seed;
    // The event-slot high-water mark is not part of a dispatch result:
    // record one task in-process for it and for the hold loop's packets.
    std::vector<net::packet_record> sample;
    {
      span sp(tr, "record.in_process");
      const exp::original_run orig = exp::run_original(sc);
      upsbench::check_physical_lower_bound(orig.trace, orig.topology,
                                           failures);
      m.set("record.peak_event_slots",
            static_cast<double>(orig.peak_event_slots), "count");
      keep_sample(orig.trace, sample);
    }
    double build_s = 0;
    common_extras(tr, m, sc, sample, depth, build_s);
    std::vector<double> core;
    for (const auto& s : traced) {
      core.push_back(s.replay_s -
                     static_cast<double>(s.replays_ok) * build_s);
    }
    m.set("replay.core_s", median(core), "s");
    m.set("trace.decode_s", 0, "s");
    m.set("trace.decode_pps", 0, "packets/s");
    m.set("flow.replay_overhead_s", 0, "s");
  }

  [[nodiscard]] std::size_t workers() const { return spec_.workers; }

 private:
  exp::scenario base_;
  std::size_t tasks_;
  std::vector<core::replay_mode> modes_;
  exp::dispatch::backend_spec spec_;
  std::unique_ptr<exp::dispatch::job_plan> first_plan_;
  exp::dispatch::run_report first_report_;
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "upsbench: %s\n"
               "usage: upsbench --workload=i2-table1|rocketfuel-sweep|"
               "fattree-tcp --seed=N --seconds=S --trace=0|1 "
               "--out-dir=DIR\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.size() > 18 ||
      v.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " expects a non-negative integer, got '" + v + "'");
  }
  return std::stoull(v);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") {
      o.workload = v;
    } else if (key == "--seed") {
      o.seed = parse_u64(key, v);
    } else if (key == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(key, v));
      if (o.seconds < 1 || o.seconds > 600) usage("--seconds out of range");
    } else if (key == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (key == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  return o;
}

std::unique_ptr<workload> make_workload(const options& o,
                                        std::size_t& workers) {
  using core::replay_mode;
  const std::string trace_path = o.out_dir + "/" + o.workload + ".v3";
  workers = 1;
  if (o.workload == "i2-table1") {
    exp::scenario sc;  // I2 1G-10G, 70%, Random, open-loop heavy-tailed
    sc.packet_budget = 200'000;
    sc.record_hops = true;
    return std::make_unique<disk_workload>(
        sc,
        std::vector<replay_mode>{replay_mode::lstf, replay_mode::lstf_pheap,
                                 replay_mode::edf,
                                 replay_mode::priority_output_time,
                                 replay_mode::omniscient},
        net::flow_spec{}, trace_path, false);
  }
  if (o.workload == "fattree-tcp") {
    exp::scenario sc;
    sc.topo = exp::topo_kind::fattree;
    sc.packet_budget = 100'000;
    sc.record_hops = true;
    sc.workload_kind =
        traffic::parse_workload("closed-loop-tcp:16", sc.workload_spec);
    sc.fault = net::fault_spec::parse("bernoulli:0.001");
    return std::make_unique<disk_workload>(
        sc,
        std::vector<replay_mode>{replay_mode::lstf, replay_mode::edf,
                                 replay_mode::priority_output_time,
                                 replay_mode::omniscient},
        net::flow_spec::parse("credit:30000"), trace_path, true);
  }
  if (o.workload == "rocketfuel-sweep") {
    exp::scenario sc;
    sc.topo = exp::topo_kind::rocketfuel;
    sc.packet_budget = 3'000;
    auto w = std::make_unique<sweep_workload>(
        sc, 8, std::vector<replay_mode>{replay_mode::lstf, replay_mode::edf});
    workers = w->workers();
    return w;
  }
  usage("unknown workload '" + o.workload + "'");
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t k) {
  return seed * 1000 + k + 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = clock_type::now();
  const options o = parse(argc, argv);
  std::size_t workers = 1;
  auto w = make_workload(o, workers);

  // One cold set-up, timed from main()'s entry.
  {
    const topo::topology t = exp::make_topology(w->topology());
    sim::simulator sim;
    net::network net(sim);
    build_network(t, net, o.seed);
  }
  const double setup_s = upsbench::seconds_between(t_start, clock_type::now());

  tracer tr(t_start);
  failure_list failures;
  std::vector<round_stats> plain;
  std::vector<round_stats> traced;
  std::vector<double> overhead;
  round_stats warmup;
  double first_round_rss_mb = 0;
  try {
    const auto deadline =
        clock_type::now() + std::chrono::duration<double>(o.seconds);
    std::uint64_t k = 0;
    if (!o.trace) {
      do {
        plain.push_back(w->round(round_seed(o.seed, k++), tr, failures));
        const round_stats& r = plain.back();
        std::fprintf(stderr,
                     "upsbench: round %llu: wall %.3f s, record %.0f "
                     "packets/s, replay %.0f packets/s\n",
                     static_cast<unsigned long long>(k), r.wall_s,
                     static_cast<double>(r.recorded) / r.record_s,
                     static_cast<double>(r.replayed) / r.replay_s);
        // The allocator keeps some freed memory between rounds, so the
        // high-water mark would grow with the number of rounds run.
        if (k == 1) first_round_rss_mb = peak_rss_mb();
      } while (clock_type::now() < deadline);
    } else {
      // The first round of a process runs cold (heap growth, page faults),
      // so it warms up outside the comparison; each pair then replays one
      // seed untraced and traced, alternating which goes first.
      warmup = w->round(round_seed(o.seed, k++), tr, failures);
      do {
        const std::uint64_t rs = round_seed(o.seed, k);
        for (int side = 0; side < 2; ++side) {
          const bool on = (side == 0) == (k % 2 == 0);
          tr.set_enabled(on);
          (on ? traced : plain).push_back(w->round(rs, tr, failures));
        }
        tr.set_enabled(false);
        overhead.push_back(traced.back().wall_s - plain.back().wall_s);
        ++k;
      } while (clock_type::now() < deadline);
    }
    w->final_checks(failures);
  } catch (const std::exception& e) {
    failures.push_back(std::string("unexpected error: ") + e.what());
  }

  std::uint64_t attempted = warmup.attempted;
  std::uint64_t failed = warmup.failed;
  for (const auto* set : {&plain, &traced}) {
    for (const auto& s : *set) {
      attempted += s.attempted;
      failed += s.failed;
    }
  }

  metric_set m;
  if (!o.trace && !plain.empty()) {
    // Medians over calls and rounds: a call slowed by a noisy neighbour
    // moves them less than it would move a sum.
    std::vector<double> rec, rep, walls;
    for (const auto& s : plain) {
      rec.insert(rec.end(), s.record_rates.begin(), s.record_rates.end());
      rep.insert(rep.end(), s.replay_rates.begin(), s.replay_rates.end());
      walls.push_back(s.wall_s);
    }
    m.set("setup_s", setup_s, "s");
    m.set("record_pps", median(rec), "packets/s");
    m.set("replay_pps", median(rep), "packets/s");
    m.set("wall_s", median(walls), "s");
    m.set("peak_rss_mb", first_round_rss_mb, "MB");
  } else if (o.trace && !traced.empty() && failures.empty()) {
    tr.set_enabled(true);
    try {
      // Layers a workload does not exercise read 0; layer_extras below
      // overwrites the ones it measures.
      const auto med = [&](auto field) {
        std::vector<double> v;
        for (const auto& s : traced) v.push_back(field(s));
        return median(v);
      };
      m.set("record.s", med([](const round_stats& s) { return s.record_s; }),
            "s");
      std::uint64_t peak_pool = 0, peak_slots = 0;
      for (const auto& s : traced) {
        peak_pool = std::max(peak_pool, s.peak_pool);
        peak_slots = std::max(peak_slots, s.peak_event_slots);
      }
      m.set("record.peak_pool_packets", static_cast<double>(peak_pool),
            "count");
      m.set("record.peak_event_slots", static_cast<double>(peak_slots),
            "count");
      m.set("transport.ack_records",
            med([](const round_stats& s) {
              return static_cast<double>(s.ack_records);
            }),
            "count");
      m.set("trace.encode_s",
            med([](const round_stats& s) { return s.encode_s; }), "s");
      m.set("trace.bytes_per_packet",
            med([](const round_stats& s) { return s.bytes_per_packet; }),
            "B");
      m.set("trace.decode_s", 0, "s");
      m.set("trace.decode_pps", 0, "packets/s");
      for (const auto& mi : kModes) {
        const std::string key = mi.key;
        m.set("replay." + key + ".s", med([&](const round_stats& s) {
                const auto it = s.mode_s.find(key);
                return it == s.mode_s.end() ? 0.0 : it->second;
              }),
              "s");
      }
      for (const auto& mi : kModes) {
        const std::string key = mi.key;
        std::uint64_t peak = 0;
        for (const auto& s : traced) {
          const auto it = s.mode_peak_pool.find(key);
          if (it != s.mode_peak_pool.end()) peak = std::max(peak, it->second);
        }
        m.set("replay." + key + ".peak_pool_packets",
              static_cast<double>(peak), "count");
      }
      m.set("replay.core_s", 0, "s");
      for (const auto& mi : kModes) {
        m.set(std::string("sched.") + mi.key + ".ns_per_op", 0, "ns");
      }
      m.set("flow.replay_overhead_s", 0, "s");
      m.set("fault.dropped", med([](const round_stats& s) {
              return static_cast<double>(s.dropped_records);
            }),
            "count");
      const double dwall =
          med([](const round_stats& s) { return s.dispatch_wall_s; });
      const double dbusy =
          med([](const round_stats& s) { return s.dispatch_busy_s; });
      m.set("dispatch.wall_s", dwall, "s");
      m.set("dispatch.job_busy_s", dbusy, "s");
      m.set("dispatch.idle_share",
            dwall > 0 ? 1.0 - dbusy / (dwall * static_cast<double>(workers))
                      : 0.0,
            "ratio");
      std::uint64_t wf = 0;
      for (const auto& s : traced) wf += s.worker_failures;
      m.set("dispatch.worker_failures", static_cast<double>(wf), "count");
      m.set("tracing.overhead_s", median(overhead), "s");
      w->layer_extras(tr, m, traced, failures);
    } catch (const std::exception& e) {
      failures.push_back(std::string("unexpected error: ") + e.what());
    }
    tr.set_enabled(false);

    // Spans plus per-layer self time, written once at the end.
    const std::string path =
        o.out_dir + "/spans-" + o.workload + "-s" + std::to_string(o.seed) +
        ".json";
    std::ofstream f(path);
    f << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ", \"spans\": [";
    const auto& spans = tr.spans();
    char buf[160];
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"id\": %zu, \"parent\": %d, \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"name\": ",
                    i ? "," : "", i, spans[i].parent, spans[i].start_s,
                    spans[i].end_s);
      f << buf << '"' << spans[i].name << "\"}";
    }
    f << "\n], \"self_s\": {";
    bool first = true;
    for (const auto& [name, s] : tr.self_seconds()) {
      std::snprintf(buf, sizeof(buf), "%.9f", s);
      f << (first ? "\n  \"" : ",\n  \"") << name << "\": " << buf;
      first = false;
    }
    f << "\n}}\n";
    if (!f) failures.push_back("could not write " + path);
  }

  for (const auto& msg : failures) {
    std::fprintf(stderr, "upsbench: check failed: %s\n", msg.c_str());
  }
  const bool correct = failures.empty() && attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.json().c_str());
  return correct ? 0 : 1;
}

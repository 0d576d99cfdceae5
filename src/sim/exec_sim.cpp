#include "sim/exec_sim.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "core/error.hpp"
#include "fault/degraded_route.hpp"
#include "fault/remap.hpp"
#include "partition/symbolic.hpp"

namespace hypart {

double SimResult::speedup(const MachineParams& m, std::int64_t total_iterations,
                          std::int64_t flops_per_iteration) const {
  double seq = static_cast<double>(total_iterations) * static_cast<double>(flops_per_iteration) *
               m.t_calc;
  return time > 0 ? seq / time : 0.0;
}

bool same_outcome(const SimResult& a, const SimResult& b) {
  return a.total == b.total && a.time == b.time && a.compute_bottleneck == b.compute_bottleneck &&
         a.comm_bottleneck == b.comm_bottleneck && a.steps == b.steps &&
         a.messages == b.messages && a.words == b.words &&
         a.per_proc_iterations == b.per_proc_iterations &&
         a.max_link_words == b.max_link_words && a.failed_nodes == b.failed_nodes &&
         a.failed_links == b.failed_links && a.rerouted_messages == b.rerouted_messages &&
         a.migrated_blocks == b.migrated_blocks && a.migration_cost == b.migration_cost;
}

namespace {

/// Resolved fault state for one simulation: the concrete failure set plus
/// the degraded remapping.  Inactive (remap unset) when the plan is empty.
struct FaultState {
  const Hypercube* cube = nullptr;
  fault::FaultSet set;
  std::optional<fault::RemapResult> remap;

  [[nodiscard]] bool active() const { return remap.has_value(); }
};

FaultState resolve_faults(const SimOptions& opts, const Partition& part, const Mapping& mapping,
                          const Topology& topo) {
  FaultState fs;
  fs.cube = dynamic_cast<const Hypercube*>(&topo);
  if (opts.faults.machine_empty()) return fs;
  if (fs.cube == nullptr)
    throw FaultError("simulate_execution: fault injection requires a Hypercube topology");
  fs.set = opts.faults.resolve(*fs.cube);
  fs.remap = fault::remap_for_faults(part, mapping, *fs.cube, fs.set);
  return fs;
}

SimResult simulate_core(const ComputationStructure& q, const TimeFunction& tf,
                        const Partition& part, const Mapping& mapping, const Topology& topo,
                        const MachineParams& machine, const SimOptions& opts,
                        const FaultState& fstate) {
  if (mapping.block_to_proc.size() != part.block_count())
    throw std::invalid_argument("simulate_execution: mapping/partition size mismatch");
  const std::size_t nprocs = mapping.processor_count;
  if (topo.size() < nprocs)
    throw std::invalid_argument("simulate_execution: topology smaller than processor count");
  // Spare nodes may sit outside the mapping's processor range but inside
  // the cube, so degraded runs account over the whole topology.
  const std::size_t nslots = fstate.active() ? std::max(nprocs, topo.size()) : nprocs;

  SimResult res;
  res.per_proc_iterations.assign(nslots, 0);
  if (fstate.active()) {
    res.failed_nodes = static_cast<std::int64_t>(fstate.set.failed_node_count());
    res.failed_links = static_cast<std::int64_t>(fstate.set.failed_link_count());
    res.migrated_blocks = static_cast<std::int64_t>(fstate.remap->migrations.size());
    res.migration_cost = fstate.remap->migration_cost;
  }

  // Processor of every vertex (failure-timeline aware) and the schedule
  // extent.
  std::vector<ProcId> vproc(q.vertices().size());
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (std::size_t vid = 0; vid < q.vertices().size(); ++vid) {
    std::int64_t s = tf.step_of(q.vertices()[vid]);
    vproc[vid] = fstate.active() ? fstate.remap->proc_at(part.block_of(vid), s)
                                 : mapping.block_to_proc[part.block_of(vid)];
    ++res.per_proc_iterations[vproc[vid]];
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  res.steps = hi - lo + 1;

  // Degraded hop distance of one message; counts the reroute side effect.
  auto routed_hops = [&](ProcId src, ProcId dst, std::int64_t step) -> std::int64_t {
    if (!fstate.active()) return static_cast<std::int64_t>(topo.distance(src, dst));
    fault::Route r = fault::route_with_faults(*fstate.cube, src, dst, fstate.set, step);
    if (r.rerouted) ++res.rerouted_messages;
    return static_cast<std::int64_t>(r.hops.size());
  };

  // Bottleneck compute: the most loaded processor.
  std::int64_t max_iters = 0;
  for (std::int64_t c : res.per_proc_iterations) max_iters = std::max(max_iters, c);
  res.compute_bottleneck = Cost{max_iters * opts.flops_per_iteration, 0, 0};

  if (opts.accounting == CommAccounting::PaperMaxChannel) {
    // Channel volume per unordered processor pair (each crossing arc is a
    // one-word message); with faults the per-message hop charge detours
    // around failures, so volumes are accumulated in cost units directly.
    std::map<std::pair<ProcId, ProcId>, std::int64_t> channel;
    q.for_each_arc([&](const IntVec& src, const IntVec& dst, std::size_t) {
      ProcId ps = vproc[q.id_of(src)];
      ProcId pd = vproc[q.id_of(dst)];
      if (ps == pd) return;
      std::int64_t units = 1;
      if (fstate.active()) {
        std::int64_t hops = routed_hops(ps, pd, tf.step_of(src));
        if (opts.charge_hops) units = hops;
      } else if (opts.charge_hops) {
        units = static_cast<std::int64_t>(topo.distance(ps, pd));
      }
      auto key = std::minmax(ps, pd);
      channel[{key.first, key.second}] += units;
      ++res.messages;
      ++res.words;
    });
    std::int64_t worst = 0;
    for (const auto& [pair, units] : channel) worst = std::max(worst, units);
    res.comm_bottleneck = Cost{0, worst, worst};
    res.total = res.compute_bottleneck + res.comm_bottleneck + res.migration_cost;
    res.time = res.total.value(machine);
    return res;
  }

  if (opts.accounting == CommAccounting::LinkContention) {
    const auto* cube = fstate.cube;
    if (cube == nullptr)
      throw std::invalid_argument(
          "simulate_execution: LinkContention accounting requires a Hypercube topology");

    // Words per (step, src, dst) channel, then routed over e-cube links
    // (detouring around failures when a fault plan is active).
    std::map<std::tuple<std::int64_t, ProcId, ProcId>, std::int64_t> channel_words;
    q.for_each_arc([&](const IntVec& src, const IntVec& dst, std::size_t) {
      ProcId ps = vproc[q.id_of(src)];
      ProcId pd = vproc[q.id_of(dst)];
      if (ps == pd) return;
      ++channel_words[{tf.step_of(src), ps, pd}];
      ++res.words;
    });
    res.messages = static_cast<std::int64_t>(channel_words.size());

    std::map<std::pair<std::int64_t, ProcId>, std::int64_t> iters_at_step;
    for (std::size_t vid = 0; vid < q.vertices().size(); ++vid)
      ++iters_at_step[{tf.step_of(q.vertices()[vid]), vproc[vid]}];

    // Per step: busiest processor's compute + busiest link's serialized
    // traffic (a directed link is a (from, to) neighbor pair).
    std::map<std::int64_t, std::int64_t> step_compute;  // max iterations at step
    for (const auto& [key, count] : iters_at_step)
      step_compute[key.first] = std::max(step_compute[key.first], count);

    struct LinkLoad {
      std::int64_t msgs = 0;
      std::int64_t words = 0;
    };
    std::map<std::int64_t, std::map<std::pair<ProcId, ProcId>, LinkLoad>> per_step_links;
    std::map<std::pair<ProcId, ProcId>, std::int64_t> total_link_words;
    for (const auto& [key, words] : channel_words) {
      auto [step, src, dst] = key;
      std::vector<ProcId> hops;
      if (fstate.active()) {
        fault::Route route = fault::route_with_faults(*cube, src, dst, fstate.set, step);
        if (route.rerouted) ++res.rerouted_messages;
        hops = std::move(route.hops);
      } else {
        hops = cube->ecube_route(src, dst);
      }
      ProcId at = src;
      for (ProcId hop : hops) {
        LinkLoad& l = per_step_links[step][{at, hop}];
        ++l.msgs;
        l.words += words;
        total_link_words[{at, hop}] += words;
        at = hop;
      }
    }
    for (const auto& [link, words] : total_link_words)
      res.max_link_words = std::max(res.max_link_words, words);

    Cost total;
    for (const auto& [step, max_iters_step] : step_compute) {
      Cost step_cost{max_iters_step * opts.flops_per_iteration, 0, 0};
      auto it = per_step_links.find(step);
      if (it != per_step_links.end()) {
        std::int64_t worst_msgs = 0, worst_words = 0;
        double worst_val = -1.0;
        for (const auto& [link, load] : it->second) {
          double v = Cost{0, load.msgs, load.words}.value(machine);
          if (v > worst_val) {
            worst_val = v;
            worst_msgs = load.msgs;
            worst_words = load.words;
          }
        }
        step_cost += Cost{0, worst_msgs, worst_words};
        res.comm_bottleneck += Cost{0, worst_msgs, worst_words};
      }
      total += step_cost;
    }
    total += res.migration_cost;
    res.total = total;
    res.time = total.value(machine);
    return res;
  }

  // ---- PerStepBarrier ------------------------------------------------------
  // Iterations per (step, proc) and words per (step, src, dst).
  struct StepKey {
    std::int64_t step;
    ProcId src, dst;
    bool operator<(const StepKey& o) const {
      if (step != o.step) return step < o.step;
      if (src != o.src) return src < o.src;
      return dst < o.dst;
    }
  };
  std::map<std::pair<std::int64_t, ProcId>, std::int64_t> iters_at;
  for (std::size_t vid = 0; vid < q.vertices().size(); ++vid)
    ++iters_at[{tf.step_of(q.vertices()[vid]), vproc[vid]}];

  std::map<StepKey, std::int64_t> msg_words;
  q.for_each_arc([&](const IntVec& src, const IntVec& dst, std::size_t) {
    ProcId ps = vproc[q.id_of(src)];
    ProcId pd = vproc[q.id_of(dst)];
    if (ps == pd) return;
    ++msg_words[{tf.step_of(src), ps, pd}];
    ++res.words;
  });
  res.messages = static_cast<std::int64_t>(msg_words.size());

  // Per step: each processor's time = compute + its aggregated sends; the
  // step ends when the slowest processor finishes (barrier semantics).
  // Ordered by proc id so exact ties report the lowest processor's Cost
  // composition — the same tie-break as the symbolic path's ascending scan.
  std::map<std::int64_t, std::map<ProcId, Cost>> per_step_proc;
  for (const auto& [key, count] : iters_at)
    per_step_proc[key.first][key.second] +=
        Cost{count * opts.flops_per_iteration, 0, 0};
  for (const auto& [key, wordcount] : msg_words) {
    std::int64_t mult = 1;
    if (fstate.active()) {
      std::int64_t hops = routed_hops(key.src, key.dst, key.step);
      if (opts.charge_hops) mult = hops;
    } else if (opts.charge_hops) {
      mult = static_cast<std::int64_t>(topo.distance(key.src, key.dst));
    }
    per_step_proc[key.step][key.src] += Cost{0, mult, mult * wordcount};
  }

  Cost total;
  for (const auto& [step, procs] : per_step_proc) {
    double worst_val = -1.0;
    Cost worst;
    for (const auto& [p, c] : procs) {
      double v = c.value(machine);
      if (v > worst_val) {
        worst_val = v;
        worst = c;
      }
    }
    total += worst;
    res.comm_bottleneck += Cost{0, worst.start, worst.comm};
  }
  total += res.migration_cost;
  res.total = total;
  res.time = total.value(machine);
  return res;
}

// ---- observability -------------------------------------------------------
// Reconstructs the per-step schedule (iterations per processor, aggregated
// messages per channel, per-link occupancy under e-cube routing) and emits
// it as metrics and Chrome-trace events on the simulated clock (pid
// obs::kSimPid: one tid per processor, one per physical link).  Runs only
// when a sink or registry is installed, so the disabled path stays free.
// Under fault injection the reconstruction uses the degraded mapping and
// detoured routes, so the trace shows the machine that was actually priced.
void emit_observability(const ComputationStructure& q, const TimeFunction& tf,
                        const Partition& part, const Mapping& mapping, const Topology& topo,
                        const MachineParams& machine, const SimOptions& opts,
                        const FaultState& fstate, SimResult& res) {
  obs::TraceSink* sink = opts.obs.trace;
  obs::MetricsRegistry* reg = opts.obs.metrics;
  const std::size_t nprocs = res.per_proc_iterations.size();
  const auto* cube = fstate.cube;

  // Rebuild the schedule: processor per vertex, iterations per (step, proc),
  // words per (step, src, dst) aggregated channel message.
  std::vector<ProcId> vproc(q.vertices().size());
  std::map<std::int64_t, std::map<ProcId, std::int64_t>> step_iters;
  for (std::size_t vid = 0; vid < q.vertices().size(); ++vid) {
    std::int64_t s = tf.step_of(q.vertices()[vid]);
    vproc[vid] = fstate.active() ? fstate.remap->proc_at(part.block_of(vid), s)
                                 : mapping.block_to_proc[part.block_of(vid)];
    ++step_iters[s][vproc[vid]];
  }
  std::map<std::tuple<std::int64_t, ProcId, ProcId>, std::int64_t> channel_words;
  q.for_each_arc([&](const IntVec& src, const IntVec& dst, std::size_t) {
    ProcId ps = vproc[q.id_of(src)];
    ProcId pd = vproc[q.id_of(dst)];
    if (ps == pd) return;
    ++channel_words[{tf.step_of(src), ps, pd}];
  });

  // A message src->dst occupies these directed physical links (e-cube route
  // on a hypercube, detoured around failures when active; the logical
  // channel itself on other topologies).
  auto links_of = [&](ProcId src, ProcId dst, std::int64_t step) {
    std::vector<std::pair<ProcId, ProcId>> links;
    if (cube != nullptr) {
      std::vector<ProcId> hops =
          fstate.active() ? fault::route_with_faults(*cube, src, dst, fstate.set, step).hops
                          : cube->ecube_route(src, dst);
      ProcId at = src;
      for (ProcId hop : hops) {
        links.emplace_back(at, hop);
        at = hop;
      }
    } else {
      links.emplace_back(src, dst);
    }
    return links;
  };
  auto hop_count = [&](ProcId src, ProcId dst, std::int64_t step) -> std::int64_t {
    if (fstate.active())
      return fault::degraded_distance(*cube, src, dst, fstate.set, step);
    return static_cast<std::int64_t>(topo.distance(src, dst));
  };

  // ---- metrics -----------------------------------------------------------
  if (reg != nullptr) {
    reg->add("sim.steps", res.steps);
    reg->add("sim.messages", res.messages);
    reg->add("sim.words", res.words);
    reg->set_gauge("sim.time", res.time);
    if (fstate.active()) {
      reg->add("fault.reroutes", res.rerouted_messages);
      reg->add("fault.migrations", res.migrated_blocks);
      reg->add("fault.migration_words", fstate.remap->migration_words);
      reg->set_gauge("fault.failed_nodes", static_cast<double>(res.failed_nodes));
      reg->set_gauge("fault.failed_links", static_cast<double>(res.failed_links));
    }
    std::vector<std::int64_t> busy(nprocs, 0);
    for (const auto& [step, procs] : step_iters)
      for (const auto& [p, n] : procs) ++busy[p];
    for (std::size_t p = 0; p < nprocs; ++p) {
      const std::string base = "sim.proc." + std::to_string(p);
      reg->add(base + ".iterations", res.per_proc_iterations[p]);
      reg->add(base + ".busy_steps", busy[p]);
      reg->add(base + ".idle_steps", res.steps - busy[p]);
    }
    static const std::vector<std::int64_t> kWordBounds{1, 2, 4, 8, 16, 32, 64, 128, 256};
    static const std::vector<std::int64_t> kHopBounds{0, 1, 2, 3, 4, 6, 8};
    for (const auto& [key, words] : channel_words) {
      auto [step, src, dst] = key;
      reg->observe("sim.msg_words", words, kWordBounds);
      reg->observe("sim.msg_hops", hop_count(src, dst, step), kHopBounds);
    }
  }

  // ---- trace timeline + busiest-link series ------------------------------
  // Enumerate links deterministically so tid assignment and track names are
  // stable across runs.
  std::map<std::pair<ProcId, ProcId>, std::uint64_t> link_tid;
  for (const auto& [key, words] : channel_words) {
    auto [step, src, dst] = key;
    for (const auto& link : links_of(src, dst, step)) link_tid.emplace(link, 0);
  }
  {
    std::uint64_t next = obs::kLinkTidBase;
    for (auto& [link, tid] : link_tid) tid = next++;
  }

  if (sink != nullptr) {
    obs::emit_process_name(sink, obs::kSimPid, "hypart simulator (simulated time)");
    for (std::size_t p = 0; p < nprocs; ++p)
      obs::emit_thread_name(sink, obs::kSimPid, p, "proc " + std::to_string(p));
    for (const auto& [link, tid] : link_tid)
      obs::emit_thread_name(sink, obs::kSimPid, tid,
                            "link " + std::to_string(link.first) + "->" +
                                std::to_string(link.second));
  }

  struct LinkLoad {
    std::int64_t msgs = 0;
    std::int64_t words = 0;
  };
  std::map<std::pair<ProcId, ProcId>, std::int64_t> total_link_words;
  double t = 0.0;  // simulated clock
  for (const auto& [step, procs] : step_iters) {
    double max_compute = 0.0;
    for (const auto& [p, iters] : procs) {
      double c = static_cast<double>(iters * opts.flops_per_iteration) * machine.t_calc;
      max_compute = std::max(max_compute, c);
      obs::emit_complete(sink, "compute", "sim", t, c, obs::kSimPid, p,
                         {{"step", step}, {"iterations", iters}});
    }

    // Messages sent this step, serialized per link after the compute phase.
    std::map<std::pair<ProcId, ProcId>, LinkLoad> links;
    auto lo = channel_words.lower_bound({step, 0, 0});
    auto hi = channel_words.lower_bound({step + 1, 0, 0});
    for (auto it = lo; it != hi; ++it) {
      auto [s, src, dst] = it->first;
      std::int64_t words = it->second;
      if (sink != nullptr) {
        auto iter_it = procs.find(src);
        double c_src =
            iter_it == procs.end()
                ? 0.0
                : static_cast<double>(iter_it->second * opts.flops_per_iteration) * machine.t_calc;
        obs::emit_instant(sink, "msg", "sim", t + c_src, obs::kSimPid, src,
                          {{"src", static_cast<std::int64_t>(src)},
                           {"dst", static_cast<std::int64_t>(dst)},
                           {"words", words},
                           {"hops", hop_count(src, dst, s)},
                           {"step", s}});
      }
      for (const auto& link : links_of(src, dst, s)) {
        LinkLoad& l = links[link];
        ++l.msgs;
        l.words += words;
        total_link_words[link] += words;
      }
    }

    double comm_dur = 0.0;
    std::int64_t busiest_words = 0;
    for (const auto& [link, load] : links) {
      double occupancy = static_cast<double>(load.msgs) * machine.t_start +
                         static_cast<double>(load.words) * machine.t_comm;
      obs::emit_complete(sink, "xfer", "sim", t + max_compute, occupancy, obs::kSimPid,
                         link_tid.at(link), {{"step", step}, {"msgs", load.msgs},
                                             {"words", load.words}});
      comm_dur = std::max(comm_dur, occupancy);
      busiest_words = std::max(busiest_words, load.words);
    }
    if (!links.empty()) {
      if (reg != nullptr) reg->append("sim.link.busiest_words", step, static_cast<double>(busiest_words));
      obs::emit_counter(sink, "busiest_link_words", t + max_compute, obs::kSimPid,
                        static_cast<double>(busiest_words));
    }
    t += max_compute + comm_dur;
  }

  if (reg != nullptr) {
    std::int64_t max_words = 0;
    for (const auto& [link, words] : total_link_words) max_words = std::max(max_words, words);
    reg->set_gauge("sim.max_link_words", static_cast<double>(max_words));
    res.metrics = reg->snapshot();
  }
}

}  // namespace

SimResult simulate_execution(const ComputationStructure& q, const TimeFunction& tf,
                             const Partition& part, const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts) {
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  FaultState fstate = resolve_faults(opts, part, mapping, topo);
  SimResult res = simulate_core(q, tf, part, mapping, topo, machine, opts, fstate);
  if (opts.obs.enabled())
    emit_observability(q, tf, part, mapping, topo, machine, opts, fstate, res);
  span.arg("steps", res.steps);
  span.arg("messages", res.messages);
  return res;
}

namespace {

/// Resolved machine-fault state for one symbolic simulation.  `remap` is
/// present only when nodes fail (link-only plans keep the simulation free of
/// any O(groups) structure); `breaks` are the steps at which the machine's
/// fault state changes — ownership and routing are constant between them.
struct SymFaultState {
  const Hypercube* cube = nullptr;
  fault::FaultSet set;
  std::optional<fault::RemapResult> remap;
  std::vector<std::int64_t> breaks;  ///< distinct at_steps > kFromStart, ascending
  bool active = false;

  [[nodiscard]] bool remapped() const { return remap.has_value(); }
};

SymFaultState resolve_symbolic_faults(
    const SimOptions& opts, const Topology& topo,
    const std::function<void(std::vector<std::int64_t>&, Mapping&)>& materialize_blocks) {
  SymFaultState fs;
  if (opts.faults.machine_empty()) return fs;
  fs.cube = dynamic_cast<const Hypercube*>(&topo);
  if (fs.cube == nullptr)
    throw FaultError("simulate_execution: fault injection requires a Hypercube topology");
  fs.set = opts.faults.resolve(*fs.cube);
  fs.active = true;
  for (const fault::NodeFault& nf : fs.set.node_failures_in_order())
    if (nf.at_step > fault::kFromStart) fs.breaks.push_back(nf.at_step);
  for (const auto& [link, step] : fs.set.link_failures())
    if (step > fault::kFromStart) fs.breaks.push_back(step);
  std::sort(fs.breaks.begin(), fs.breaks.end());
  fs.breaks.erase(std::unique(fs.breaks.begin(), fs.breaks.end()), fs.breaks.end());
  if (fs.set.failed_node_count() > 0) {
    // Node failures need concrete migration targets, so the caller
    // materializes its block index (sizes + base mapping) once — the only
    // O(blocks) work of the symbolic fault path.
    std::vector<std::int64_t> sizes;
    Mapping base;
    materialize_blocks(sizes, base);
    fs.remap = fault::remap_for_faults(sizes, base, *fs.cube, fs.set);
  }
  return fs;
}

/// Per-(src, dst) table over the accounting slots: flat nslots × nslots
/// storage up to kFlatSlots slots (every machine the planner maps onto by
/// default), a hash map past that so huge cubes do not allocate slots².
template <class V>
class PairTable {
 public:
  PairTable(std::size_t nslots, V init) : n_(nslots), init_(init) {
    if (nslots <= kFlatSlots) flat_.assign(nslots * nslots, init);
  }
  V& at(ProcId a, ProcId b) {
    if (n_ <= kFlatSlots) return flat_[a * n_ + b];
    return sparse_.try_emplace(static_cast<std::uint64_t>(a) * n_ + b, init_).first->second;
  }
  template <class F>
  void for_each(F&& f) const {
    for (const V& v : flat_) f(v);
    for (const auto& [key, v] : sparse_) f(v);
  }

 private:
  static constexpr std::size_t kFlatSlots = 256;
  std::size_t n_;
  V init_;
  std::vector<V> flat_;
  std::unordered_map<std::uint64_t, V> sparse_;
};

/// Bottleneck compute of the most loaded slot, checked against int64.
void set_compute_bottleneck(SimResult& res, const SimOptions& opts) {
  std::int64_t max_iters = 0;
  for (std::int64_t c : res.per_proc_iterations) max_iters = std::max(max_iters, c);
  res.compute_bottleneck =
      Cost{checked::mul(max_iters, opts.flops_per_iteration, "simulated compute cost"), 0, 0};
}

/// The paper's Table I total: bottleneck compute plus the busiest
/// channel's volume (each unit one t_start + t_comm message).
void finish_paper_max_channel(SimResult& res, const PairTable<std::int64_t>& channel,
                              const MachineParams& machine) {
  std::int64_t worst = 0;
  channel.for_each([&](std::int64_t units) { worst = std::max(worst, units); });
  res.comm_bottleneck = Cost{0, worst, worst};
  res.total = res.compute_bottleneck + res.comm_bottleneck + res.migration_cost;
  res.time = res.total.value(machine);
}

/// Schedule span max - min + 1 of the lattice's space under Π, checked.
std::int64_t schedule_span(const IterSpace& space, const IntVec& pi, std::int64_t& lo) {
  lo = space.min_step(pi);
  return checked::add(checked::sub(space.max_step(pi), lo, "schedule span"), 1, "schedule span");
}

// Reduced observability for the symbolic path: aggregate counters only (the
// per-message histograms and the trace timeline need the materialized
// schedule, which is exactly what this path avoids building).
void emit_symbolic_metrics(const SimOptions& opts, const SymFaultState& fstate, SimResult& res) {
  obs::MetricsRegistry* reg = opts.obs.metrics;
  if (reg == nullptr) return;
  reg->add("sim.steps", res.steps);
  reg->add("sim.messages", res.messages);
  reg->add("sim.words", res.words);
  reg->set_gauge("sim.time", res.time);
  if (fstate.active) {
    reg->add("fault.reroutes", res.rerouted_messages);
    reg->add("fault.migrations", res.migrated_blocks);
    if (fstate.remap) reg->add("fault.migration_words", fstate.remap->migration_words);
    reg->set_gauge("fault.failed_nodes", static_cast<double>(res.failed_nodes));
    reg->set_gauge("fault.failed_links", static_cast<double>(res.failed_links));
  }
  for (std::size_t p = 0; p < res.per_proc_iterations.size(); ++p)
    reg->add("sim.proc." + std::to_string(p) + ".iterations", res.per_proc_iterations[p]);
  res.metrics = reg->snapshot();
}

/// One projection line of the symbolic feed.  `proc` is the fault-free
/// owner; `block` identifies the line's block for the degraded-ownership
/// lookup and is only meaningful when node faults are active.
struct SymLine {
  ProcId proc = 0;
  std::size_t block = 0;
  std::int64_t pop = 0;
  std::int64_t first_step = 0;
};

/// One (line, dependence) arc bundle.  `step_shift` is Π·d — the target
/// point of an arc leaving at step t fires at t + step_shift, which is when
/// its degraded owner must be evaluated.
struct SymBundle {
  ProcId src_proc = 0;
  ProcId dst_proc = 0;
  std::size_t src_block = 0;
  std::size_t dst_block = 0;
  std::int64_t step_shift = 0;
  std::int64_t count = 0;
  std::int64_t first_step = 0;
};

/// Feed for the shared symbolic accounting core: the caller provides the
/// frame (processors, schedule, stride) and two closed-form visitations —
/// every projection line and every dependence arc bundle.  Both the
/// line-based path (Grouping + Mapping) and the lattice path (GroupLattice +
/// LatticeHypercubeMapping) reduce to this.
struct SymbolicFeed {
  std::size_t nprocs = 0;
  std::size_t nslots = 0;  ///< accounting slots (== nprocs; whole cube when degraded)
  std::int64_t steps = 0;  ///< schedule length
  std::int64_t lo = 0;     ///< minimum step (rebases first_step values)
  std::int64_t sigma = 1;  ///< step stride of the projection lines
  std::function<void(const std::function<void(const SymLine&)>&)> lines;
  std::function<void(const std::function<void(const SymBundle&)>&)> bundles;
};

SimResult simulate_symbolic_core(const SymbolicFeed& in, const Topology& topo,
                                 const MachineParams& machine, const SimOptions& opts,
                                 const SymFaultState& fstate) {
  const std::size_t nprocs = in.nprocs;
  const std::size_t nslots = std::max(in.nslots, nprocs);
  SimResult res;
  res.per_proc_iterations.assign(nslots, 0);
  res.steps = in.steps;
  const std::int64_t lo = in.lo;
  const std::int64_t sigma = in.sigma;
  if (fstate.active) {
    res.failed_nodes = static_cast<std::int64_t>(fstate.set.failed_node_count());
    res.failed_links = static_cast<std::int64_t>(fstate.set.failed_link_count());
    if (fstate.remapped()) {
      res.migrated_blocks = static_cast<std::int64_t>(fstate.remap->migrations.size());
      res.migration_cost = fstate.remap->migration_cost;
    }
  }

  // Owner of a block at an absolute step (failure-timeline aware).
  auto owner = [&](ProcId fault_free, std::size_t blk, std::int64_t step) -> ProcId {
    return fstate.remapped() ? fstate.remap->proc_at(blk, step) : fault_free;
  };
  // Visit maximal equal-fault-state segments (seg_first, seg_count) of the
  // strided run first, first+σ, …: ownership and routing change only at the
  // cut steps, and a cut takes effect *at* the cut (matching
  // RemapResult::proc_at and FaultSet's at-step semantics).
  auto for_each_segment = [&](std::int64_t first, std::int64_t count,
                              const std::vector<std::int64_t>& cuts,
                              const std::function<void(std::int64_t, std::int64_t)>& emit) {
    if (count <= 0) return;
    const std::int64_t last = first + (count - 1) * sigma;
    std::int64_t i0 = 0;
    for (std::int64_t cut : cuts) {
      if (cut <= first) continue;
      if (cut > last) break;
      std::int64_t i = ceil_div(cut - first, sigma);
      if (i > i0) {
        emit(first + i0 * sigma, i - i0);
        i0 = i;
      }
    }
    emit(first + i0 * sigma, count - i0);
  };
  // An arc bundle's channel changes when the *source* step crosses a break
  // (source owner, route) or when the *target* step does (target owner);
  // the latter projects to source steps shifted by -Π·d.
  std::map<std::int64_t, std::vector<std::int64_t>> shift_cuts;
  auto cuts_for_shift = [&](std::int64_t shift) -> const std::vector<std::int64_t>& {
    auto it = shift_cuts.find(shift);
    if (it != shift_cuts.end()) return it->second;
    std::vector<std::int64_t> cuts = fstate.breaks;
    for (std::int64_t b : fstate.breaks) cuts.push_back(b - shift);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    return shift_cuts.emplace(shift, std::move(cuts)).first->second;
  };
  // Degraded route of a channel, cached per fault epoch (the number of
  // breaks at or before the step): the detour BFS runs once per
  // (channel, epoch), not once per step.
  std::map<std::tuple<ProcId, ProcId, std::size_t>, fault::Route> route_cache;
  auto routed = [&](ProcId ps, ProcId pd, std::int64_t step) -> const fault::Route& {
    const std::size_t epoch = static_cast<std::size_t>(
        std::upper_bound(fstate.breaks.begin(), fstate.breaks.end(), step) -
        fstate.breaks.begin());
    auto [it, inserted] = route_cache.try_emplace({ps, pd, epoch});
    if (inserted) it->second = fault::route_with_faults(*fstate.cube, ps, pd, fstate.set, step);
    return it->second;
  };

  // Per-processor loads: a line's run splits at the fault steps, each
  // segment owned by whoever holds its block then.
  in.lines([&](const SymLine& ln) {
    if (!fstate.remapped()) {
      res.per_proc_iterations[ln.proc] += ln.pop;
      return;
    }
    for_each_segment(ln.first_step, ln.pop, fstate.breaks,
                     [&](std::int64_t s, std::int64_t n) {
                       res.per_proc_iterations[owner(ln.proc, ln.block, s)] += n;
                     });
  });
  set_compute_bottleneck(res, opts);

  if (opts.accounting == CommAccounting::PaperMaxChannel) {
    // Channel volumes need no step resolution beyond the fault segments: one
    // bundle segment contributes its whole arc count to the unordered
    // processor pair, with the degraded route priced at its first step.
    PairTable<std::int64_t> channel(nslots, 0);
    auto charge = [&](ProcId ps, ProcId pd, std::int64_t count, std::int64_t step) {
      if (ps == pd) return;
      std::int64_t units = 1;
      if (fstate.active) {
        const fault::Route& rt = routed(ps, pd, step);
        if (rt.rerouted) res.rerouted_messages += count;
        if (opts.charge_hops) units = static_cast<std::int64_t>(rt.hops.size());
      } else if (opts.charge_hops) {
        units = static_cast<std::int64_t>(topo.distance(ps, pd));
      }
      auto key = std::minmax(ps, pd);
      std::int64_t& vol = channel.at(key.first, key.second);
      vol = checked::add(vol, checked::mul(units, count, "channel volume"), "channel volume");
      res.messages = checked::add(res.messages, count, "message count");
      res.words = checked::add(res.words, count, "word count");
    };
    in.bundles([&](const SymBundle& b) {
      if (!fstate.active) {
        charge(b.src_proc, b.dst_proc, b.count, b.first_step);
        return;
      }
      for_each_segment(b.first_step, b.count, cuts_for_shift(b.step_shift),
                       [&](std::int64_t s, std::int64_t n) {
                         charge(owner(b.src_proc, b.src_block, s),
                                owner(b.dst_proc, b.dst_block, s + b.step_shift), n, s);
                       });
    });
    finish_paper_max_channel(res, channel, machine);
    return res;
  }

  // Per-step accountings.  Every line (and every arc bundle segment)
  // occupies steps t0, t0+sigma, ..., so per-step tables are strided
  // difference arrays: +1 at the run's first step, -1 one stride past its
  // last, then a strided prefix sum recovers exact per-step counts in
  // O(steps) per row.
  const std::int64_t nsteps = res.steps;
  auto strided_prefix = [&](std::vector<std::int64_t>& v) {
    for (std::int64_t t = sigma; t < nsteps; ++t) v[t] += v[t - sigma];
  };

  std::vector<std::vector<std::int64_t>> iters(nslots, std::vector<std::int64_t>(nsteps, 0));
  auto add_line_run = [&](ProcId p, std::int64_t first, std::int64_t pop) {
    std::int64_t t0 = first - lo;
    std::int64_t end = t0 + pop * sigma;
    iters[p][t0] += 1;
    if (end < nsteps) iters[p][end] -= 1;
  };
  in.lines([&](const SymLine& ln) {
    if (!fstate.remapped()) {
      add_line_run(ln.proc, ln.first_step, ln.pop);
      return;
    }
    for_each_segment(ln.first_step, ln.pop, fstate.breaks,
                     [&](std::int64_t s, std::int64_t n) {
                       add_line_run(owner(ln.proc, ln.block, s), s, n);
                     });
  });
  for (auto& v : iters) strided_prefix(v);

  struct Channel {
    ProcId src = 0;
    ProcId dst = 0;
    std::vector<std::int64_t> words;
    std::int64_t total_words = 0;
  };
  constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);
  PairTable<std::size_t> channel_index(nslots, kNoChannel);
  std::vector<Channel> channels;
  auto add_bundle_run = [&](ProcId src, ProcId dst, std::int64_t count, std::int64_t first) {
    if (src == dst) return;
    res.words += count;
    std::size_t& idx = channel_index.at(src, dst);
    if (idx == kNoChannel) {
      idx = channels.size();
      channels.push_back({src, dst, std::vector<std::int64_t>(nsteps, 0), 0});
    }
    Channel& ch = channels[idx];
    std::int64_t t0 = first - lo;
    std::int64_t end = t0 + count * sigma;
    ch.words[t0] += 1;
    if (end < nsteps) ch.words[end] -= 1;
    ch.total_words += count;
  };
  in.bundles([&](const SymBundle& b) {
    if (!fstate.remapped()) {
      add_bundle_run(b.src_proc, b.dst_proc, b.count, b.first_step);
      return;
    }
    for_each_segment(b.first_step, b.count, cuts_for_shift(b.step_shift),
                     [&](std::int64_t s, std::int64_t n) {
                       add_bundle_run(owner(b.src_proc, b.src_block, s),
                                      owner(b.dst_proc, b.dst_block, s + b.step_shift), n, s);
                     });
  });
  for (Channel& ch : channels) strided_prefix(ch.words);

  if (opts.accounting == CommAccounting::LinkContention) {
    const auto* cube = dynamic_cast<const Hypercube*>(&topo);
    if (cube == nullptr)
      throw std::invalid_argument(
          "simulate_execution: LinkContention accounting requires a Hypercube topology");
    // Fault-free channels keep one static e-cube route; degraded channels
    // look their route up per occupied step through the epoch cache.
    std::vector<std::vector<ProcId>> static_routes;
    std::map<std::pair<ProcId, ProcId>, std::int64_t> total_link_words;
    if (!fstate.active) {
      static_routes.resize(channels.size());
      for (std::size_t c = 0; c < channels.size(); ++c) {
        static_routes[c] = cube->ecube_route(channels[c].src, channels[c].dst);
        ProcId at = channels[c].src;
        for (ProcId hop : static_routes[c]) {
          total_link_words[{at, hop}] += channels[c].total_words;
          at = hop;
        }
      }
    }

    struct LinkLoad {
      std::int64_t msgs = 0;
      std::int64_t words = 0;
    };
    Cost total;
    for (std::int64_t t = 0; t < nsteps; ++t) {
      std::int64_t step_iters = 0;
      for (std::size_t p = 0; p < nslots; ++p) step_iters = std::max(step_iters, iters[p][t]);
      if (step_iters == 0) continue;  // messages only originate from computing procs
      Cost step_cost{step_iters * opts.flops_per_iteration, 0, 0};
      std::map<std::pair<ProcId, ProcId>, LinkLoad> links;
      for (std::size_t c = 0; c < channels.size(); ++c) {
        std::int64_t w = channels[c].words[t];
        if (w == 0) continue;
        ++res.messages;
        const std::vector<ProcId>* hops = nullptr;
        if (fstate.active) {
          const fault::Route& rt = routed(channels[c].src, channels[c].dst, t + lo);
          if (rt.rerouted) ++res.rerouted_messages;
          hops = &rt.hops;
        } else {
          hops = &static_routes[c];
        }
        ProcId at = channels[c].src;
        for (ProcId hop : *hops) {
          LinkLoad& l = links[{at, hop}];
          ++l.msgs;
          l.words += w;
          if (fstate.active) total_link_words[{at, hop}] += w;
          at = hop;
        }
      }
      if (!links.empty()) {
        std::int64_t worst_msgs = 0, worst_words = 0;
        double worst_val = -1.0;
        for (const auto& [link, load] : links) {
          double v = Cost{0, load.msgs, load.words}.value(machine);
          if (v > worst_val) {
            worst_val = v;
            worst_msgs = load.msgs;
            worst_words = load.words;
          }
        }
        step_cost += Cost{0, worst_msgs, worst_words};
        res.comm_bottleneck += Cost{0, worst_msgs, worst_words};
      }
      total += step_cost;
    }
    for (const auto& [link, words] : total_link_words)
      res.max_link_words = std::max(res.max_link_words, words);
    total += res.migration_cost;
    res.total = total;
    res.time = total.value(machine);
    return res;
  }

  // ---- PerStepBarrier (symbolic) ------------------------------------------
  Cost total;
  std::vector<Cost> proc_cost(nslots);
  for (std::int64_t t = 0; t < nsteps; ++t) {
    bool any = false;
    for (std::size_t p = 0; p < nslots; ++p) {
      proc_cost[p] = Cost{iters[p][t] * opts.flops_per_iteration, 0, 0};
      any = any || iters[p][t] > 0;
    }
    if (!any) continue;
    for (const Channel& ch : channels) {
      std::int64_t w = ch.words[t];
      if (w == 0) continue;
      ++res.messages;
      std::int64_t mult = 1;
      if (fstate.active) {
        const fault::Route& rt = routed(ch.src, ch.dst, t + lo);
        if (rt.rerouted) ++res.rerouted_messages;
        if (opts.charge_hops) mult = static_cast<std::int64_t>(rt.hops.size());
      } else if (opts.charge_hops) {
        mult = static_cast<std::int64_t>(topo.distance(ch.src, ch.dst));
      }
      proc_cost[ch.src] += Cost{0, mult, mult * w};
    }
    double worst_val = -1.0;
    Cost worst;
    for (std::size_t p = 0; p < nslots; ++p) {
      if (iters[p][t] == 0) continue;  // senders always compute; idle procs cost nothing
      double v = proc_cost[p].value(machine);
      if (v > worst_val) {
        worst_val = v;
        worst = proc_cost[p];
      }
    }
    total += worst;
    res.comm_bottleneck += Cost{0, worst.start, worst.comm};
  }
  total += res.migration_cost;
  res.total = total;
  res.time = total.value(machine);
  return res;
}

}  // namespace

SimResult simulate_execution(const IterSpace& space, const Grouping& grouping,
                             const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts) {
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  const ProjectedStructure& ps = grouping.projected();
  const TimeFunction& tf = ps.time_function();
  if (mapping.block_to_proc.size() != grouping.group_count())
    throw std::invalid_argument("simulate_execution: mapping/partition size mismatch");
  if (topo.size() < mapping.processor_count)
    throw std::invalid_argument("simulate_execution: topology smaller than processor count");

  SymFaultState fstate = resolve_symbolic_faults(
      opts, topo, [&](std::vector<std::int64_t>& sizes, Mapping& base) {
        sizes = symbolic_block_sizes(grouping);
        base = mapping;
      });

  // Processor (and block, for the degraded-ownership lookups) of every
  // projection line; a line's points all live in one block.
  std::vector<std::size_t> pblock(ps.point_count());
  std::vector<ProcId> pproc(ps.point_count());
  for (std::size_t pid = 0; pid < ps.point_count(); ++pid) {
    pblock[pid] = grouping.group_of_point(pid);
    pproc[pid] = mapping.block_to_proc[pblock[pid]];
  }

  std::vector<std::int64_t> shifts(space.dependences().size(), 0);
  for (std::size_t k = 0; k < space.dependences().size(); ++k)
    shifts[k] = dot(tf.pi, space.dependences()[k]);

  SymbolicFeed feed;
  feed.nprocs = mapping.processor_count;
  feed.nslots =
      fstate.active ? std::max(mapping.processor_count, topo.size()) : mapping.processor_count;
  feed.steps = schedule_span(space, tf.pi, feed.lo);
  feed.sigma = ps.step_stride();
  feed.lines = [&](const std::function<void(const SymLine&)>& v) {
    for (std::size_t pid = 0; pid < ps.point_count(); ++pid)
      v({pproc[pid], pblock[pid], static_cast<std::int64_t>(ps.line_population(pid)),
         tf.step_of(ps.line_representative(pid))});
  };
  feed.bundles = [&](const std::function<void(const SymBundle&)>& v) {
    for_each_line_dep(space, ps, [&](const LineDepArcs& b) {
      v({pproc[b.point], pproc[b.target], pblock[b.point], pblock[b.target], shifts[b.dep],
         b.count, b.first_step});
    });
  };
  SimResult res = simulate_symbolic_core(feed, topo, machine, opts, fstate);
  emit_symbolic_metrics(opts, fstate, res);
  return res;
}

SimResult simulate_execution_closed_form(const GroupLattice& lattice,
                                         const LatticeHypercubeMapping& mapping,
                                         const Topology& topo, const MachineParams& machine,
                                         const SimOptions& opts) {
  if (lattice.layout() != LatticeLayout::Chain ||
      opts.accounting != CommAccounting::PaperMaxChannel || !opts.faults.machine_empty())
    throw std::invalid_argument(
        "simulate_execution_closed_form: fault-free PaperMaxChannel on a chain lattice only");
  if (topo.size() < mapping.processor_count)
    throw std::invalid_argument("simulate_execution: topology smaller than processor count");
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  // Every run has one source and one target processor per dependence.
  SimResult res;
  std::int64_t lo = 0;
  res.steps = schedule_span(lattice.space(), lattice.time_function().pi, lo);
  res.per_proc_iterations.assign(mapping.processor_count, 0);
  PairTable<std::int64_t> channel(mapping.processor_count, 0);
  lattice.for_each_chain_run(mapping.boundaries, [&](const GroupLattice::ChainRunTotals& run) {
    const ProcId ps = mapping.proc_of_group(lattice, run.src);
    res.per_proc_iterations[ps] =
        checked::add(res.per_proc_iterations[ps], run.population, "processor load");
    for (std::size_t k = 0; k < run.arcs.size(); ++k) {
      if (run.arcs[k] == 0) continue;
      if (!run.dst[k])
        throw Error(ErrorKind::Internal, "simulate_execution: arcs into an unpopulated line");
      const ProcId pd = mapping.proc_of_group(lattice, *run.dst[k]);
      if (ps == pd) continue;
      const std::int64_t units =
          opts.charge_hops ? static_cast<std::int64_t>(topo.distance(ps, pd)) : 1;
      auto key = std::minmax(ps, pd);
      std::int64_t& vol = channel.at(key.first, key.second);
      vol = checked::add(vol, checked::mul(units, run.arcs[k], "channel volume"),
                         "channel volume");
      res.messages = checked::add(res.messages, run.arcs[k], "message count");
      res.words = checked::add(res.words, run.arcs[k], "word count");
    }
  });
  set_compute_bottleneck(res, opts);
  finish_paper_max_channel(res, channel, machine);
  emit_symbolic_metrics(opts, SymFaultState{}, res);
  return res;
}

SimResult simulate_execution(const GroupLattice& lattice, const LatticeHypercubeMapping& mapping,
                             const Topology& topo, const MachineParams& machine,
                             const SimOptions& opts) {
  if (lattice.closed_form_pays() && opts.accounting == CommAccounting::PaperMaxChannel &&
      opts.faults.machine_empty())
    return simulate_execution_closed_form(lattice, mapping, topo, machine, opts);
  return simulate_execution_per_line(lattice, mapping, topo, machine, opts);
}

SimResult simulate_execution_per_line(const GroupLattice& lattice,
                                      const LatticeHypercubeMapping& mapping,
                                      const Topology& topo, const MachineParams& machine,
                                      const SimOptions& opts) {
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  const IterSpace& space = lattice.space();
  const TimeFunction& tf = lattice.time_function();
  if (topo.size() < mapping.processor_count)
    throw std::invalid_argument("simulate_execution: topology smaller than processor count");

  // Node failures need migration targets, i.e. real block indices: the one
  // O(groups) materialization of the lattice path (fault-free runs and
  // link-only plans stay independent of the group count).  Blocks are
  // indexed in the lattice's canonical sorted order.
  std::map<GroupLattice::GroupKey, std::size_t> key_index;
  SymFaultState fstate = resolve_symbolic_faults(
      opts, topo, [&](std::vector<std::int64_t>& sizes, Mapping& base) {
        base.processor_count = mapping.processor_count;
        lattice.for_each_group([&](const GroupLattice::GroupKey& g, std::int64_t pop) {
          key_index.emplace(g, sizes.size());
          sizes.push_back(pop);
          base.block_to_proc.push_back(mapping.proc_of_group(lattice, g));
        });
      });
  auto block_of = [&](const GroupLattice::GroupKey& g) -> std::size_t {
    return fstate.remapped() ? key_index.at(g) : 0;
  };

  std::vector<std::int64_t> shifts(space.dependences().size(), 0);
  for (std::size_t k = 0; k < space.dependences().size(); ++k)
    shifts[k] = dot(tf.pi, space.dependences()[k]);

  SymbolicFeed feed;
  feed.nprocs = mapping.processor_count;
  feed.nslots =
      fstate.active ? std::max(mapping.processor_count, topo.size()) : mapping.processor_count;
  feed.steps = schedule_span(space, tf.pi, feed.lo);
  feed.sigma = lattice.step_stride();
  feed.lines = [&](const std::function<void(const SymLine&)>& v) {
    lattice.for_each_line(
        [&](const GroupLattice::GroupKey& g, std::int64_t pop, std::int64_t first_step) {
          v({mapping.proc_of_group(lattice, g), block_of(g), pop, first_step});
        });
  };
  feed.bundles = [&](const std::function<void(const SymBundle&)>& v) {
    lattice.for_each_arc_bundle([&](const GroupLattice::GroupKey& src,
                                    const GroupLattice::GroupKey& dst, std::size_t dep,
                                    std::int64_t count, std::int64_t first_step) {
      v({mapping.proc_of_group(lattice, src), mapping.proc_of_group(lattice, dst), block_of(src),
         block_of(dst), shifts[dep], count, first_step});
    });
  };
  SimResult res = simulate_symbolic_core(feed, topo, machine, opts, fstate);
  emit_symbolic_metrics(opts, fstate, res);
  return res;
}

}  // namespace hypart

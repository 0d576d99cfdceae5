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

/// Resolved machine-fault state for one simulation.  `remap` is present only
/// when nodes fail (link-only plans keep the simulation free of any
/// O(blocks) structure); `breaks` are the steps at which the machine's fault
/// state changes — ownership and routing are constant between them.
struct FaultState {
  const Hypercube* cube = nullptr;
  fault::FaultSet set;
  std::optional<fault::RemapResult> remap;
  std::vector<std::int64_t> breaks;  ///< distinct at_steps > kFromStart, ascending
  bool active = false;

  [[nodiscard]] bool remapped() const { return remap.has_value(); }
};

FaultState resolve_faults(
    const SimOptions& opts, const Topology& topo,
    const std::function<fault::RemapResult(const Hypercube&, const fault::FaultSet&)>& remap) {
  FaultState fs;
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
  // Node failures need concrete migration targets, so the caller remaps
  // its block index once — the only O(blocks) work of a symbolic fault path.
  if (fs.set.failed_node_count() > 0) fs.remap = remap(*fs.cube, fs.set);
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

/// The one metrics emitter: aggregate counters, fault gauges and the
/// per-slot iteration counters, then the snapshot.  A dense run's schedule
/// part (Core::emit_schedule) has already recorded its histograms and
/// series in the same registry.
void emit_metrics(const SimOptions& opts, const FaultState& fstate, SimResult& res) {
  obs::MetricsRegistry* reg = opts.obs.metrics;
  if (reg == nullptr) return;
  reg->add("sim.steps", res.steps);
  reg->add("sim.messages", res.messages);
  reg->add("sim.words", res.words);
  reg->set_gauge("sim.time", res.time);
  if (fstate.active) {
    reg->add("fault.reroutes", res.rerouted_messages);
    reg->add("fault.migrations", res.migrated_blocks);
    if (fstate.remapped()) reg->add("fault.migration_words", res.migration_cost.start);
    reg->set_gauge("fault.failed_nodes", static_cast<double>(res.failed_nodes));
    reg->set_gauge("fault.failed_links", static_cast<double>(res.failed_links));
  }
  for (std::size_t p = 0; p < res.per_proc_iterations.size(); ++p)
    reg->add("sim.proc." + std::to_string(p) + ".iterations", res.per_proc_iterations[p]);
  res.metrics = reg->snapshot();
}

/// One run of iterations in the feed: `pop` points on steps first_step,
/// first_step + σ, …  `proc` is the fault-free owner; `block` identifies the
/// run's block for the degraded-ownership lookup and is only meaningful
/// when node faults are active.
struct FeedLine {
  ProcId proc = 0;
  std::size_t block = 0;
  std::int64_t pop = 0;
  std::int64_t first_step = 0;
};

/// One run of dependence arcs: `count` one-word messages leaving at steps
/// first_step, first_step + σ, …  `step_shift` is Π·d — the target point of
/// an arc leaving at step t fires at t + step_shift, which is when its
/// degraded owner must be evaluated.
struct FeedBundle {
  ProcId src_proc = 0;
  ProcId dst_proc = 0;
  std::size_t src_block = 0;
  std::size_t dst_block = 0;
  std::int64_t step_shift = 0;
  std::int64_t count = 0;
  std::int64_t first_step = 0;
};

/// Input of the accounting core: the frame (processors, schedule, stride)
/// and two visitations — every run of iterations and every run of arcs.
/// Dense points (one line per vertex, one bundle per arc, σ = 1),
/// projection lines (Grouping + Mapping) and lattice lines (GroupLattice +
/// LatticeHypercubeMapping) all reduce to this.
struct SimFeed {
  std::size_t nprocs = 0;
  std::int64_t steps = 0;  ///< schedule length
  std::int64_t lo = 0;     ///< minimum step (rebases first_step values)
  std::int64_t sigma = 1;  ///< step stride of the runs
  /// Emit the per-step schedule (histograms, busy/idle steps, busiest-link
  /// series, simulated-clock timeline) when observability is on.  Only the
  /// dense feed sets it: its points already exist, so the O(steps × slots)
  /// tables it needs are bounded by them.
  bool schedule = false;
  std::function<void(const std::function<void(const FeedLine&)>&)> lines;
  std::function<void(const std::function<void(const FeedBundle&)>&)> bundles;
};

/// A channel's words per step (index step - lo) and in total.
struct Channel {
  ProcId src = 0;
  ProcId dst = 0;
  std::vector<std::int64_t> words;
  std::int64_t total_words = 0;
};

/// The per-step schedule: iterations per (slot, step) and the channels.
struct StepTables {
  std::vector<std::vector<std::int64_t>> iters;
  std::vector<Channel> channels;
};

struct LinkLoad {
  std::int64_t msgs = 0;
  std::int64_t words = 0;
};

/// One step's per-link loads: a PairTable over the topology's nodes plus
/// the links touched in the step, visited in (from, to) order and reset
/// after, so a step allocates nothing once its links have been seen.
class StepLinks {
 public:
  explicit StepLinks(std::size_t nodes) : loads_(nodes, LinkLoad{}) {}
  void add(ProcId from, ProcId to, std::int64_t words) {
    LinkLoad& l = loads_.at(from, to);
    if (l.msgs == 0) touched_.emplace_back(from, to);
    ++l.msgs;
    l.words += words;
  }
  [[nodiscard]] bool empty() const { return touched_.empty(); }
  /// f(link, load) per touched link in (from, to) order, then clear.
  template <class F>
  void drain(F&& f) {
    std::sort(touched_.begin(), touched_.end());
    for (const std::pair<ProcId, ProcId>& link : touched_) {
      LinkLoad& l = loads_.at(link.first, link.second);
      f(link, l);
      l = LinkLoad{};
    }
    touched_.clear();
  }

 private:
  PairTable<LinkLoad> loads_;
  std::vector<std::pair<ProcId, ProcId>> touched_;
};

/// The accounting core shared by every feed: per-slot loads, then one of
/// the three accountings, then the metrics.  Fault plans split line and
/// bundle runs at the failure steps (ownership and routing are constant in
/// between) and route degraded channels through a per-epoch cache.
class Core {
 public:
  Core(const SimFeed& in, const Topology& topo, const MachineParams& machine,
       const SimOptions& opts, const FaultState& fstate)
      : in_(in),
        topo_(topo),
        machine_(machine),
        opts_(opts),
        fs_(fstate),
        // Spare nodes may sit outside the mapping's processor range but
        // inside the cube, so degraded runs account over the whole topology.
        nslots_(fstate.active ? std::max(in.nprocs, topo.size()) : in.nprocs) {}

  SimResult run() {
    SimResult res;
    res.per_proc_iterations.assign(nslots_, 0);
    res.steps = in_.steps;
    if (fs_.active) {
      res.failed_nodes = static_cast<std::int64_t>(fs_.set.failed_node_count());
      res.failed_links = static_cast<std::int64_t>(fs_.set.failed_link_count());
      if (fs_.remapped()) {
        res.migrated_blocks = static_cast<std::int64_t>(fs_.remap->migrations.size());
        res.migration_cost = fs_.remap->migration_cost;
      }
    }
    for_each_line_run([&](ProcId p, std::int64_t, std::int64_t n) {
      res.per_proc_iterations[p] = checked::add(res.per_proc_iterations[p], n, "processor load");
    });
    set_compute_bottleneck(res, opts_);

    // The schedule feeds the metrics registry and any sink that reads the
    // simulated-time events; a span profiler alone reads neither.
    const bool schedule =
        in_.schedule && (opts_.obs.metrics != nullptr || schedule_sink() != nullptr);
    std::optional<StepTables> tables;
    if (opts_.accounting == CommAccounting::PaperMaxChannel) {
      paper_max_channel(res);
      if (schedule) tables = step_tables();
    } else {
      tables = step_tables();
      for (const Channel& ch : tables->channels)
        res.words = checked::add(res.words, ch.total_words, "word count");
      if (opts_.accounting == CommAccounting::LinkContention)
        link_contention(res, *tables);
      else
        per_step_barrier(res, *tables);
      res.total += res.migration_cost;
      res.time = res.total.value(machine_);
    }
    if (schedule) emit_schedule(res, *tables);
    emit_metrics(opts_, fs_, res);
    return res;
  }

 private:
  /// Owner of a block at an absolute step (failure-timeline aware).
  [[nodiscard]] ProcId owner(ProcId fault_free, std::size_t blk, std::int64_t step) const {
    return fs_.remapped() ? fs_.remap->proc_at(blk, step) : fault_free;
  }

  /// Visit maximal equal-fault-state segments (seg_first, seg_count) of the
  /// strided run first, first+σ, …: ownership and routing change only at
  /// the cut steps, and a cut takes effect *at* the cut (matching
  /// RemapResult::proc_at and FaultSet's at-step semantics).
  template <class F>
  void for_each_segment(std::int64_t first, std::int64_t count,
                        const std::vector<std::int64_t>& cuts, F&& emit) const {
    if (count <= 0) return;
    const std::int64_t sigma = in_.sigma;
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
  }

  /// An arc bundle's channel changes when the *source* step crosses a break
  /// (source owner, route) or when the *target* step does (target owner);
  /// the latter projects to source steps shifted by -Π·d.
  const std::vector<std::int64_t>& cuts_for_shift(std::int64_t shift) {
    auto it = shift_cuts_.find(shift);
    if (it != shift_cuts_.end()) return it->second;
    std::vector<std::int64_t> cuts = fs_.breaks;
    for (std::int64_t b : fs_.breaks) cuts.push_back(b - shift);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    return shift_cuts_.emplace(shift, std::move(cuts)).first->second;
  }

  /// Degraded route of a channel, cached per fault epoch (the number of
  /// breaks at or before the step): the detour BFS runs once per
  /// (channel, epoch), not once per step.
  const fault::Route& routed(ProcId ps, ProcId pd, std::int64_t step) {
    const std::size_t epoch = static_cast<std::size_t>(
        std::upper_bound(fs_.breaks.begin(), fs_.breaks.end(), step) - fs_.breaks.begin());
    auto [it, inserted] = route_cache_.try_emplace({ps, pd, epoch});
    if (inserted) it->second = fault::route_with_faults(*fs_.cube, ps, pd, fs_.set, step);
    return it->second;
  }

  /// Charge multiplier of `n` messages ps -> pd sent at `step`: the hop
  /// count with charge_hops, else 1.  Degraded routes count the detours.
  std::int64_t hop_charge(ProcId ps, ProcId pd, std::int64_t step, std::int64_t n,
                          SimResult& res) {
    if (fs_.active) {
      const fault::Route& rt = routed(ps, pd, step);
      if (rt.rerouted) res.rerouted_messages += n;
      return opts_.charge_hops ? static_cast<std::int64_t>(rt.hops.size()) : 1;
    }
    return opts_.charge_hops ? static_cast<std::int64_t>(topo_.distance(ps, pd)) : 1;
  }

  /// Every line as runs (owner, first step, population) of constant
  /// ownership.
  template <class F>
  void for_each_line_run(F&& f) {
    in_.lines([&](const FeedLine& ln) {
      if (!fs_.remapped()) {
        f(ln.proc, ln.first_step, ln.pop);
        return;
      }
      for_each_segment(ln.first_step, ln.pop, fs_.breaks, [&](std::int64_t s, std::int64_t n) {
        f(owner(ln.proc, ln.block, s), s, n);
      });
    });
  }

  /// Every arc bundle as runs (source owner, target owner, count, first
  /// step) of constant fault state.
  template <class F>
  void for_each_bundle_run(F&& f) {
    in_.bundles([&](const FeedBundle& b) {
      if (!fs_.active) {
        f(b.src_proc, b.dst_proc, b.count, b.first_step);
        return;
      }
      for_each_segment(b.first_step, b.count, cuts_for_shift(b.step_shift),
                       [&](std::int64_t s, std::int64_t n) {
                         f(owner(b.src_proc, b.src_block, s),
                           owner(b.dst_proc, b.dst_block, s + b.step_shift), n, s);
                       });
    });
  }

  /// PaperMaxChannel needs no step resolution beyond the fault segments:
  /// one bundle run adds its whole arc count to the unordered processor
  /// pair, with the degraded route priced at its first step.
  void paper_max_channel(SimResult& res) {
    PairTable<std::int64_t> channel(nslots_, 0);
    for_each_bundle_run([&](ProcId ps, ProcId pd, std::int64_t count, std::int64_t step) {
      if (ps == pd) return;
      const std::int64_t units = hop_charge(ps, pd, step, count, res);
      auto key = std::minmax(ps, pd);
      std::int64_t& vol = channel.at(key.first, key.second);
      vol = checked::add(vol, checked::mul(units, count, "channel volume"), "channel volume");
      res.messages = checked::add(res.messages, count, "message count");
      res.words = checked::add(res.words, count, "word count");
    });
    finish_paper_max_channel(res, channel, machine_);
  }

  /// Every run occupies steps t0, t0+σ, …, so the per-step tables are
  /// strided difference arrays: +1 at the run's first step, -1 one stride
  /// past its last, then a strided prefix sum recovers exact per-step
  /// counts in O(steps) per row.
  StepTables step_tables() {
    const std::int64_t nsteps = in_.steps;
    const std::int64_t sigma = in_.sigma;
    auto add_run = [&](std::vector<std::int64_t>& v, std::int64_t first, std::int64_t count) {
      const std::int64_t t0 = first - in_.lo;
      const std::int64_t end = t0 + count * sigma;
      v[t0] += 1;
      if (end < nsteps) v[end] -= 1;
    };
    auto strided_prefix = [&](std::vector<std::int64_t>& v) {
      for (std::int64_t t = sigma; t < nsteps; ++t) v[t] += v[t - sigma];
    };

    StepTables st;
    st.iters.assign(nslots_, std::vector<std::int64_t>(nsteps, 0));
    for_each_line_run([&](ProcId p, std::int64_t first, std::int64_t pop) {
      add_run(st.iters[p], first, pop);
    });
    for (auto& v : st.iters) strided_prefix(v);

    constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);
    PairTable<std::size_t> channel_index(nslots_, kNoChannel);
    for_each_bundle_run([&](ProcId src, ProcId dst, std::int64_t count, std::int64_t first) {
      if (src == dst) return;
      std::size_t& idx = channel_index.at(src, dst);
      if (idx == kNoChannel) {
        idx = st.channels.size();
        st.channels.push_back({src, dst, std::vector<std::int64_t>(nsteps, 0), 0});
      }
      Channel& ch = st.channels[idx];
      add_run(ch.words, first, count);
      ch.total_words = checked::add(ch.total_words, count, "word count");
    });
    for (Channel& ch : st.channels) strided_prefix(ch.words);
    // (src, dst) order: the order a step's messages are routed and listed.
    std::sort(st.channels.begin(), st.channels.end(), [](const Channel& a, const Channel& b) {
      return std::pair(a.src, a.dst) < std::pair(b.src, b.dst);
    });
    return st;
  }

  /// Per step: busiest slot's compute + busiest link's serialized traffic
  /// under e-cube routing (detoured around failures).
  void link_contention(SimResult& res, const StepTables& st) {
    const auto* cube = dynamic_cast<const Hypercube*>(&topo_);
    if (cube == nullptr)
      throw std::invalid_argument(
          "simulate_execution: LinkContention accounting requires a Hypercube topology");
    // Fault-free channels keep one static e-cube route; degraded channels
    // look their route up per occupied step through the epoch cache.
    std::vector<std::vector<ProcId>> static_routes;
    std::map<std::pair<ProcId, ProcId>, std::int64_t> total_link_words;
    if (!fs_.active) {
      static_routes.resize(st.channels.size());
      for (std::size_t c = 0; c < st.channels.size(); ++c) {
        const Channel& ch = st.channels[c];
        static_routes[c] = cube->ecube_route(ch.src, ch.dst);
        ProcId at = ch.src;
        for (ProcId hop : static_routes[c]) {
          total_link_words[{at, hop}] += ch.total_words;
          at = hop;
        }
      }
    }

    StepLinks links(std::max(nslots_, topo_.size()));
    for (std::int64_t t = 0; t < in_.steps; ++t) {
      std::int64_t step_iters = 0;
      for (std::size_t p = 0; p < nslots_; ++p) step_iters = std::max(step_iters, st.iters[p][t]);
      if (step_iters == 0) continue;  // messages only originate from computing procs
      res.total += Cost{step_iters * opts_.flops_per_iteration, 0, 0};
      for (std::size_t c = 0; c < st.channels.size(); ++c) {
        const Channel& ch = st.channels[c];
        const std::int64_t w = ch.words[t];
        if (w == 0) continue;
        ++res.messages;
        const std::vector<ProcId>* hops = nullptr;
        if (fs_.active) {
          const fault::Route& rt = routed(ch.src, ch.dst, t + in_.lo);
          if (rt.rerouted) ++res.rerouted_messages;
          hops = &rt.hops;
        } else {
          hops = &static_routes[c];
        }
        ProcId at = ch.src;
        for (ProcId hop : *hops) {
          links.add(at, hop, w);
          if (fs_.active) total_link_words[{at, hop}] += w;
          at = hop;
        }
      }
      // The busiest link's occupancy, ties to the lowest (from, to) link.
      Cost worst;
      double worst_val = -1.0;
      links.drain([&](const std::pair<ProcId, ProcId>&, const LinkLoad& load) {
        const Cost c{0, load.msgs, load.words};
        if (c.value(machine_) > worst_val) {
          worst_val = c.value(machine_);
          worst = c;
        }
      });
      res.total += worst;
      res.comm_bottleneck += worst;
    }
    for (const auto& [link, words] : total_link_words)
      res.max_link_words = std::max(res.max_link_words, words);
  }

  /// Per step: each slot's compute plus its aggregated sends; the step ends
  /// when the slowest slot finishes (barrier semantics).  Exact ties report
  /// the lowest slot's Cost composition.
  void per_step_barrier(SimResult& res, const StepTables& st) {
    std::vector<Cost> proc_cost(nslots_);
    for (std::int64_t t = 0; t < in_.steps; ++t) {
      bool any = false;
      for (std::size_t p = 0; p < nslots_; ++p) {
        proc_cost[p] = Cost{st.iters[p][t] * opts_.flops_per_iteration, 0, 0};
        any = any || st.iters[p][t] > 0;
      }
      if (!any) continue;
      for (const Channel& ch : st.channels) {
        const std::int64_t w = ch.words[t];
        if (w == 0) continue;
        ++res.messages;
        const std::int64_t mult = hop_charge(ch.src, ch.dst, t + in_.lo, 1, res);
        proc_cost[ch.src] += Cost{0, mult, mult * w};
      }
      double worst_val = -1.0;
      Cost worst;
      for (std::size_t p = 0; p < nslots_; ++p) {
        if (st.iters[p][t] == 0) continue;  // senders always compute; idle procs cost nothing
        double v = proc_cost[p].value(machine_);
        if (v > worst_val) {
          worst_val = v;
          worst = proc_cost[p];
        }
      }
      res.total += worst;
      res.comm_bottleneck += Cost{0, worst.start, worst.comm};
    }
  }

  /// The trace sink when it consumes schedule events, else nullptr.
  [[nodiscard]] obs::TraceSink* schedule_sink() const {
    obs::TraceSink* sink = opts_.obs.trace;
    return sink != nullptr && sink->consumes_schedule() ? sink : nullptr;
  }

  /// The schedule part of the metrics and the simulated-clock timeline
  /// (pid obs::kSimPid: one tid per slot, one per physical link), read off
  /// the per-step tables.  Messages of one step are listed in (src, dst)
  /// order, links in (from, to) order.  Under fault injection the degraded
  /// owners and detoured routes are the ones that were priced.
  void emit_schedule(const SimResult& res, const StepTables& st) {
    obs::TraceSink* sink = schedule_sink();
    obs::MetricsRegistry* reg = opts_.obs.metrics;
    const auto* cube = dynamic_cast<const Hypercube*>(&topo_);
    const std::int64_t flops = opts_.flops_per_iteration;

    // A message occupies the directed links of its (degraded) e-cube route
    // on a hypercube, its logical channel elsewhere.
    std::vector<std::vector<ProcId>> static_paths(st.channels.size());
    for (std::size_t c = 0; c < st.channels.size(); ++c)
      static_paths[c] = cube != nullptr ? cube->ecube_route(st.channels[c].src, st.channels[c].dst)
                                        : std::vector<ProcId>{st.channels[c].dst};
    auto path = [&](std::size_t c, std::int64_t step) -> const std::vector<ProcId>& {
      return fs_.active ? routed(st.channels[c].src, st.channels[c].dst, step).hops
                        : static_paths[c];
    };
    auto hops = [&](std::size_t c, std::int64_t step) -> std::int64_t {
      return fs_.active ? static_cast<std::int64_t>(path(c, step).size())
                        : static_cast<std::int64_t>(
                              topo_.distance(st.channels[c].src, st.channels[c].dst));
    };

    std::map<std::pair<ProcId, ProcId>, std::uint64_t> link_tid;
    for (std::int64_t t = 0; t < in_.steps; ++t)
      for (std::size_t c = 0; c < st.channels.size(); ++c) {
        const std::int64_t w = st.channels[c].words[t];
        if (w == 0) continue;
        if (reg != nullptr) {
          static const std::vector<std::int64_t> kWordBounds{1, 2, 4, 8, 16, 32, 64, 128, 256};
          static const std::vector<std::int64_t> kHopBounds{0, 1, 2, 3, 4, 6, 8};
          reg->observe("sim.msg_words", w, kWordBounds);
          reg->observe("sim.msg_hops", hops(c, t + in_.lo), kHopBounds);
        }
        ProcId at = st.channels[c].src;
        for (ProcId hop : path(c, t + in_.lo)) {
          link_tid.emplace(std::pair(at, hop), 0);
          at = hop;
        }
      }
    std::uint64_t next_tid = obs::kLinkTidBase;
    for (auto& [link, tid] : link_tid) tid = next_tid++;

    if (reg != nullptr)
      for (std::size_t p = 0; p < nslots_; ++p) {
        std::int64_t busy = 0;
        for (std::int64_t n : st.iters[p]) busy += n > 0 ? 1 : 0;
        const std::string base = "sim.proc." + std::to_string(p);
        reg->add(base + ".busy_steps", busy);
        reg->add(base + ".idle_steps", res.steps - busy);
      }
    if (sink != nullptr) {
      obs::emit_process_name(sink, obs::kSimPid, "hypart simulator (simulated time)");
      for (std::size_t p = 0; p < nslots_; ++p)
        obs::emit_thread_name(sink, obs::kSimPid, p, "proc " + std::to_string(p));
      for (const auto& [link, tid] : link_tid)
        obs::emit_thread_name(sink, obs::kSimPid, tid,
                              "link " + std::to_string(link.first) + "->" +
                                  std::to_string(link.second));
    }

    // Per step: compute phase, then the step's messages serialized per link.
    std::map<std::pair<ProcId, ProcId>, std::int64_t> total_link_words;
    StepLinks links(std::max(nslots_, topo_.size()));
    double clock = 0.0;
    for (std::int64_t t = 0; t < in_.steps; ++t) {
      const std::int64_t step = t + in_.lo;
      bool any = false;
      double max_compute = 0.0;
      for (std::size_t p = 0; p < nslots_; ++p) {
        const std::int64_t iters = st.iters[p][t];
        if (iters == 0) continue;
        any = true;
        const double c = static_cast<double>(iters * flops) * machine_.t_calc;
        max_compute = std::max(max_compute, c);
        if (sink != nullptr)
          obs::emit_complete(sink, "compute", "sim", clock, c, obs::kSimPid, p,
                             {{"step", step}, {"iterations", iters}});
      }
      if (!any) continue;

      for (std::size_t c = 0; c < st.channels.size(); ++c) {
        const Channel& ch = st.channels[c];
        const std::int64_t w = ch.words[t];
        if (w == 0) continue;
        if (sink != nullptr)
          obs::emit_instant(
              sink, "msg", "sim",
              clock + static_cast<double>(st.iters[ch.src][t] * flops) * machine_.t_calc,
              obs::kSimPid, ch.src,
              {{"src", static_cast<std::int64_t>(ch.src)},
               {"dst", static_cast<std::int64_t>(ch.dst)},
               {"words", w},
               {"hops", hops(c, step)},
               {"step", step}});
        ProcId at = ch.src;
        for (ProcId hop : path(c, step)) {
          links.add(at, hop, w);
          total_link_words[{at, hop}] += w;
          at = hop;
        }
      }

      double comm_dur = 0.0;
      std::int64_t busiest_words = 0;
      const bool any_link = !links.empty();
      links.drain([&](const std::pair<ProcId, ProcId>& link, const LinkLoad& load) {
        const double occupancy = static_cast<double>(load.msgs) * machine_.t_start +
                                 static_cast<double>(load.words) * machine_.t_comm;
        if (sink != nullptr)
          obs::emit_complete(sink, "xfer", "sim", clock + max_compute, occupancy, obs::kSimPid,
                             link_tid.at(link),
                             {{"step", step}, {"msgs", load.msgs}, {"words", load.words}});
        comm_dur = std::max(comm_dur, occupancy);
        busiest_words = std::max(busiest_words, load.words);
      });
      if (any_link) {
        if (reg != nullptr)
          reg->append("sim.link.busiest_words", step, static_cast<double>(busiest_words));
        if (sink != nullptr)
          obs::emit_counter(sink, "busiest_link_words", clock + max_compute, obs::kSimPid,
                            static_cast<double>(busiest_words));
      }
      clock += max_compute + comm_dur;
    }

    if (reg != nullptr) {
      std::int64_t max_words = 0;
      for (const auto& [link, words] : total_link_words) max_words = std::max(max_words, words);
      reg->set_gauge("sim.max_link_words", static_cast<double>(max_words));
    }
  }

  const SimFeed& in_;
  const Topology& topo_;
  const MachineParams& machine_;
  const SimOptions& opts_;
  const FaultState& fs_;
  const std::size_t nslots_;
  std::map<std::int64_t, std::vector<std::int64_t>> shift_cuts_;
  std::map<std::tuple<ProcId, ProcId, std::size_t>, fault::Route> route_cache_;
};

SimResult simulate_core(const SimFeed& in, const Topology& topo, const MachineParams& machine,
                        const SimOptions& opts, const FaultState& fstate) {
  return Core(in, topo, machine, opts, fstate).run();
}

}  // namespace

SimResult simulate_execution(const ComputationStructure& q, const TimeFunction& tf,
                             const Partition& part, const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts) {
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  if (mapping.block_to_proc.size() != part.block_count())
    throw std::invalid_argument("simulate_execution: mapping/partition size mismatch");
  if (topo.size() < mapping.processor_count)
    throw std::invalid_argument("simulate_execution: topology smaller than processor count");

  FaultState fstate =
      resolve_faults(opts, topo, [&](const Hypercube& cube, const fault::FaultSet& set) {
        return fault::remap_for_faults(part, mapping, cube, set);
      });
  // Dense runs report the migration volume under any fault plan, zero for
  // link-only plans where nothing migrates.
  if (fstate.active && opts.obs.metrics != nullptr)
    opts.obs.metrics->add("fault.migration_words", 0);

  // The dense feed: one line per vertex, one bundle per arc, stride 1.
  const std::vector<IntVec>& verts = q.vertices();
  const std::vector<IntVec>& deps = q.dependences();
  std::vector<std::int64_t> vstep(verts.size());
  std::int64_t lo = 0, hi = -1;
  for (std::size_t vid = 0; vid < verts.size(); ++vid) {
    vstep[vid] = tf.step_of(verts[vid]);
    if (vid == 0 || vstep[vid] < lo) lo = vstep[vid];
    if (vid == 0 || vstep[vid] > hi) hi = vstep[vid];
  }
  SimFeed feed;
  feed.nprocs = mapping.processor_count;
  feed.lo = lo;
  feed.steps = checked::add(checked::sub(hi, lo, "schedule span"), 1, "schedule span");
  feed.schedule = true;
  feed.lines = [&](const std::function<void(const FeedLine&)>& v) {
    for (std::size_t vid = 0; vid < verts.size(); ++vid) {
      const std::size_t blk = part.block_of(vid);
      v({mapping.block_to_proc[blk], blk, 1, vstep[vid]});
    }
  };
  feed.bundles = [&](const std::function<void(const FeedBundle&)>& v) {
    const PointIndexMap& index = q.vertex_index();
    IntVec target(q.dimension());
    for (std::size_t vid = 0; vid < verts.size(); ++vid) {
      const std::size_t sblk = part.block_of(vid);
      for (const IntVec& d : deps) {
        for (std::size_t i = 0; i < target.size(); ++i) target[i] = verts[vid][i] + d[i];
        auto it = index.find(target);
        if (it == index.end()) continue;
        const std::size_t dblk = part.block_of(it->second);
        v({mapping.block_to_proc[sblk], mapping.block_to_proc[dblk], sblk, dblk,
           vstep[it->second] - vstep[vid], 1, vstep[vid]});
      }
    }
  };
  SimResult res = simulate_core(feed, topo, machine, opts, fstate);
  span.arg("steps", res.steps);
  span.arg("messages", res.messages);
  return res;
}

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

  FaultState fstate =
      resolve_faults(opts, topo, [&](const Hypercube& cube, const fault::FaultSet& set) {
        return fault::remap_for_faults(symbolic_block_sizes(grouping), mapping, cube, set);
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

  SimFeed feed;
  feed.nprocs = mapping.processor_count;
  feed.steps = schedule_span(space, tf.pi, feed.lo);
  feed.sigma = ps.step_stride();
  feed.lines = [&](const std::function<void(const FeedLine&)>& v) {
    for (std::size_t pid = 0; pid < ps.point_count(); ++pid)
      v({pproc[pid], pblock[pid], static_cast<std::int64_t>(ps.line_population(pid)),
         tf.step_of(ps.line_representative(pid))});
  };
  feed.bundles = [&](const std::function<void(const FeedBundle&)>& v) {
    for_each_line_dep(space, ps, [&](const LineDepArcs& b) {
      v({pproc[b.point], pproc[b.target], pblock[b.point], pblock[b.target], shifts[b.dep],
         b.count, b.first_step});
    });
  };
  return simulate_core(feed, topo, machine, opts, fstate);
}

SimResult simulate_execution_closed_form(const GroupLattice& lattice,
                                         const LatticeHypercubeMapping& mapping,
                                         const Topology& topo, const MachineParams& machine,
                                         const SimOptions& opts) {
  if (!lattice.closed_form_applies() || opts.accounting != CommAccounting::PaperMaxChannel ||
      !opts.faults.machine_empty())
    throw std::invalid_argument(
        "simulate_execution_closed_form: fault-free PaperMaxChannel on a closed-form lattice "
        "only");
  if (topo.size() < mapping.processor_count)
    throw std::invalid_argument("simulate_execution: topology smaller than processor count");
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  SimResult res;
  std::int64_t lo = 0;
  res.steps = schedule_span(lattice.space(), lattice.time_function().pi, lo);
  res.per_proc_iterations.assign(mapping.processor_count, 0);
  PairTable<std::int64_t> channel(mapping.processor_count, 0);
  auto load = [&](ProcId p, std::int64_t n) {
    res.per_proc_iterations[p] = checked::add(res.per_proc_iterations[p], n, "processor load");
  };
  auto send = [&](ProcId ps, ProcId pd, std::int64_t n) {
    if (ps == pd) return;
    const std::int64_t units =
        opts.charge_hops ? static_cast<std::int64_t>(topo.distance(ps, pd)) : 1;
    auto key = std::minmax(ps, pd);
    std::int64_t& vol = channel.at(key.first, key.second);
    vol = checked::add(vol, checked::mul(units, n, "channel volume"), "channel volume");
    res.messages = checked::add(res.messages, n, "message count");
    res.words = checked::add(res.words, n, "word count");
  };
  if (lattice.layout() == LatticeLayout::Plane) {
    lattice.for_each_plane_owner_total(
        {mapping.frag_b, mapping.frag_off, mapping.frag_runs}, load,
        [&](ProcId ps, ProcId pd, std::size_t, std::int64_t n) { send(ps, pd, n); });
  } else {
    // Every run has one source and one target processor per dependence.
    lattice.for_each_chain_run(mapping.boundaries, [&](const GroupLattice::ChainRunTotals& run) {
      const ProcId ps = mapping.proc_of_group(lattice, run.src);
      load(ps, run.population);
      for (std::size_t k = 0; k < run.arcs.size(); ++k) {
        if (run.arcs[k] == 0) continue;
        if (!run.dst[k])
          throw Error(ErrorKind::Internal, "simulate_execution: arcs into an unpopulated line");
        send(ps, mapping.proc_of_group(lattice, *run.dst[k]), run.arcs[k]);
      }
    });
  }
  set_compute_bottleneck(res, opts);
  finish_paper_max_channel(res, channel, machine);
  emit_metrics(opts, FaultState{}, res);
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
  FaultState fstate =
      resolve_faults(opts, topo, [&](const Hypercube& cube, const fault::FaultSet& set) {
        std::vector<std::int64_t> sizes;
        Mapping base;
        base.processor_count = mapping.processor_count;
        lattice.for_each_group([&](const GroupLattice::GroupKey& g, std::int64_t pop) {
          key_index.emplace(g, sizes.size());
          sizes.push_back(pop);
          base.block_to_proc.push_back(mapping.proc_of_group(lattice, g));
        });
        return fault::remap_for_faults(sizes, base, cube, set);
      });
  auto block_of = [&](const GroupLattice::GroupKey& g) -> std::size_t {
    return fstate.remapped() ? key_index.at(g) : 0;
  };

  std::vector<std::int64_t> shifts(space.dependences().size(), 0);
  for (std::size_t k = 0; k < space.dependences().size(); ++k)
    shifts[k] = dot(tf.pi, space.dependences()[k]);

  SimFeed feed;
  feed.nprocs = mapping.processor_count;
  feed.steps = schedule_span(space, tf.pi, feed.lo);
  feed.sigma = lattice.step_stride();
  feed.lines = [&](const std::function<void(const FeedLine&)>& v) {
    lattice.for_each_line(
        [&](const GroupLattice::GroupKey& g, std::int64_t pop, std::int64_t first_step) {
          v({mapping.proc_of_group(lattice, g), block_of(g), pop, first_step});
        });
  };
  feed.bundles = [&](const std::function<void(const FeedBundle&)>& v) {
    lattice.for_each_arc_bundle([&](const GroupLattice::GroupKey& src,
                                    const GroupLattice::GroupKey& dst, std::size_t dep,
                                    std::int64_t count, std::int64_t first_step) {
      v({mapping.proc_of_group(lattice, src), mapping.proc_of_group(lattice, dst), block_of(src),
         block_of(dst), shifts[dep], count, first_step});
    });
  };
  return simulate_core(feed, topo, machine, opts, fstate);
}

}  // namespace hypart

// hypart — execution simulator for partitioned, mapped nested loops.
//
// We have no 1991 message-passing hypercube, so the machine is simulated:
// iterations execute step-synchronously by hyperplane (all points with
// Π·x = t run at step t on their assigned processors); every dependence arc
// crossing processors becomes a one-word message charged t_start + t_comm
// (optionally scaled by hop count).
//
// One engine prices every partition representation.  Its input is a feed:
// runs of iterations (owner, block, population, first step) and runs of
// arcs (source and target owner, count, first step, Π·d), both stepping by
// the schedule's stride.  Fault plans, the three accountings and the
// metrics are implemented once, in the engine, so every feed prices the
// same machine the same way.  There are four ways in:
//
//  * dense points (ComputationStructure + Partition): one run per vertex,
//    one per arc, stride 1;
//  * projection lines (IterSpace + Grouping): one run per line and per
//    (line, dependence) bundle, no index point materialized;
//  * lattice lines (GroupLattice + LatticeHypercubeMapping): the same runs
//    visited from the lattice, without Group objects;
//  * the closed form (chain lattices and unit-slope plane lattices,
//    fault-free PaperMaxChannel only): loads and channel volumes summed
//    over breakpoint runs (and, on planes, folded over b-runs of aux
//    chains) instead of lines, finished by the engine's PaperMaxChannel
//    total and metrics.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mapping/hypercube_map.hpp"
#include "mapping/tig.hpp"
#include "obs/obs.hpp"
#include "partition/blocks.hpp"
#include "partition/group_lattice.hpp"
#include "sim/machine.hpp"
#include "topology/topology.hpp"

namespace hypart {

/// How communication is charged:
///
///  * PaperMaxChannel — the paper's Table I convention:
///        T = max_p compute_p + max_{p!=q} channel_volume(p,q)*(t_start+t_comm)
///    ("the communication time is determined by the largest amount of
///     interblock communication that occurred between two processors").
///  * PerStepBarrier — a step-synchronous model with per-(step, src, dst)
///    message aggregation:
///        T = sum_t max_p [ compute_p(t) + sum_{msgs sent by p at t}
///                                          (t_start + words*t_comm) ]
///  * LinkContention — messages are routed over the hypercube's physical
///    links with deterministic e-cube routing; each link serializes its
///    traffic, so the communication time of a step is the busiest link's
///    total (msgs*t_start + words*t_comm).  Models the congestion that the
///    first two conventions ignore.
enum class CommAccounting {
  PaperMaxChannel,
  PerStepBarrier,
  LinkContention,
};

struct SimOptions {
  CommAccounting accounting = CommAccounting::PaperMaxChannel;
  bool charge_hops = false;            ///< multiply message cost by hop distance
  std::int64_t flops_per_iteration = 1;
  /// Deterministic fault injection (see fault/fault_plan.hpp).  When
  /// non-empty the topology must be a Hypercube: failed nodes' blocks are
  /// remapped to live Gray-code neighbors (migration charged), messages
  /// detour around failed links, and SimResult reports the degraded totals.
  fault::FaultPlan faults;
  /// Optional tracing/metrics hooks (see obs/obs.hpp).  When both pointers
  /// are null (the default), the simulator does no extra work at all.  Every
  /// entry point records the aggregate metrics (steps, messages, words,
  /// time, fault counters, per-processor iterations); only the dense entry
  /// point also records the per-step schedule — message word/hop
  /// histograms, busy/idle steps, the busiest-link series and the
  /// simulated-clock trace timeline — read off the engine's per-step tables.
  obs::ObsContext obs{};
};

struct SimResult {
  Cost total;               ///< symbolic total execution cost
  double time = 0.0;        ///< total.value(machine)
  Cost compute_bottleneck;  ///< max over processors of total compute
  Cost comm_bottleneck;     ///< communication term of `total`
  std::int64_t steps = 0;   ///< schedule length (hyperplane count)
  std::int64_t messages = 0;  ///< total messages (after aggregation, if any)
  std::int64_t words = 0;     ///< total words crossing processors
  std::vector<std::int64_t> per_proc_iterations;

  /// Speedup vs. the same work on one processor (all-compute, no comm).
  [[nodiscard]] double speedup(const MachineParams& m, std::int64_t total_iterations,
                               std::int64_t flops_per_iteration) const;

  /// Busiest-link word count over the whole run (LinkContention only).
  std::int64_t max_link_words = 0;

  // ---- degraded-machine accounting (all zero without fault injection) ----
  std::int64_t failed_nodes = 0;        ///< nodes the fault plan ever fails
  std::int64_t failed_links = 0;        ///< links the plan fails directly
  std::int64_t rerouted_messages = 0;   ///< messages detoured off their e-cube path
  std::int64_t migrated_blocks = 0;     ///< blocks moved off failed nodes
  Cost migration_cost;                  ///< words x (t_start + t_comm), in `total`

  /// Metrics captured during this run; set only when SimOptions::obs carried
  /// a MetricsRegistry (snapshot taken as the simulation returns).
  std::optional<obs::MetricsSnapshot> metrics;
};

/// Every field of two results equal, except the metrics snapshot — the
/// cross-check between simulator variants.
[[nodiscard]] bool same_outcome(const SimResult& a, const SimResult& b);

/// Dense feed: one iteration run per vertex and one arc run per arc
/// (O(points·deps) hash lookups), stride 1.  The reference for the other
/// feeds (`--space verify`), and the only entry point whose observability
/// includes the per-step schedule.
SimResult simulate_execution(const ComputationStructure& q, const TimeFunction& tf,
                             const Partition& part, const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts = {});

/// Projection-line feed: one run per line and per (line, dependence) arc
/// bundle — O(lines·deps) visits plus, for the per-step accountings,
/// O(steps·channels) strided difference arrays — without materializing any
/// index point.  Fault plans split the runs at the failure steps, route
/// degraded channels once per fault epoch, and remap node failures over
/// per-block iteration counts with the dense block ids, so every SimResult
/// field equals the dense feed's.  Observability is reduced to the
/// aggregate metrics (no per-message histograms or trace timeline).
SimResult simulate_execution(const IterSpace& space, const Grouping& grouping,
                             const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts = {});

/// Lattice variant: no per-line processor array, no Group objects.
/// Fault-free PaperMaxChannel (the pipeline and serve default) on a
/// lattice where GroupLattice::closed_form_pays() runs
/// simulate_execution_closed_form; every other case (small lattices, plane
/// nests with fractional k-bounds, per-step accountings, fault plans) runs
/// simulate_execution_per_line.
SimResult simulate_execution(const GroupLattice& lattice, const LatticeHypercubeMapping& mapping,
                             const Topology& topo, const MachineParams& machine,
                             const SimOptions& opts = {});

/// Closed-form fault-free PaperMaxChannel: loads and channel volumes
/// summed over GroupLattice::for_each_chain_run's runs, cut at the
/// mapping's processor-run edges (chain layout), or taken from
/// GroupLattice::for_each_plane_owner_total over the fragment index (plane
/// layout) — time independent of the line count, memory
/// O(processors² + breakpoints).  Throws std::invalid_argument unless
/// GroupLattice::closed_form_applies(), for other accountings and for a
/// fault plan.
SimResult simulate_execution_closed_form(const GroupLattice& lattice,
                                         const LatticeHypercubeMapping& mapping,
                                         const Topology& topo, const MachineParams& machine,
                                         const SimOptions& opts = {});

/// The lattice simulator fed line by line (GroupLattice line/bundle
/// visitations, O(lines·deps)) into the shared accounting engine;
/// the per-step accountings keep their O(steps·channels) difference
/// arrays.  Fault plans are supported as in the line-based variant;
/// link-only plans stay independent of the group count, while node failures
/// materialize one O(groups) block index (sizes + owners in lattice sorted
/// order) to feed the spare-node remap.  Also the cross-check oracle of the
/// closed form (`--space verify`).
SimResult simulate_execution_per_line(const GroupLattice& lattice,
                                      const LatticeHypercubeMapping& mapping,
                                      const Topology& topo, const MachineParams& machine,
                                      const SimOptions& opts = {});

}  // namespace hypart

#include "sim/exec_sim.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "mapping/baseline_map.hpp"
#include "mapping/hypercube_map.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/perf_model.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

struct PartitionFixture {
  std::unique_ptr<ComputationStructure> q;
  std::unique_ptr<ProjectedStructure> ps;
  Grouping grouping;
  Partition partition;
  TaskInteractionGraph tig;
  TimeFunction tf;
};

PartitionFixture make(const LoopNest& nest, const IntVec& pi) {
  PartitionFixture s;
  s.q = std::make_unique<ComputationStructure>(ComputationStructure::from_loop(nest));
  s.tf = TimeFunction{pi};
  s.ps = std::make_unique<ProjectedStructure>(*s.q, s.tf);
  s.grouping = Grouping::compute(*s.ps);
  s.partition = Partition::build(*s.q, s.grouping);
  s.tig = TaskInteractionGraph::from_partition(*s.q, s.partition, s.grouping);
  return s;
}

TEST(ExecSim, PerStepBarrierWorstProcTieBreaksToLowestPid) {
  // Constructed exact tie at step 0 with t_calc=1, t_start=3, t_comm=4:
  // proc 0 computes 8 iterations (Cost{8,0,0}, value 8) while proc 1
  // computes 1 iteration and sends one 1-word message (Cost{1,1,1}, value
  // 1 + 3 + 4 = 8).  The reported worst-proc Cost composition must be the
  // lowest processor id's: the engine scans processors in ascending order.
  std::vector<IntVec> pts;
  for (std::int64_t j = 0; j <= 8; ++j) pts.push_back({0, j});
  pts.push_back({1, 8});  // target of the only cross-processor arc
  ComputationStructure q(pts, {{1, 0}});
  std::vector<std::size_t> labels(pts.size(), 0);
  labels[8] = 1;   // (0,8): the comm-heavy processor's single iteration
  labels[9] = 2;   // (1,8): step-1 vertex, back on proc 0
  Partition part = Partition::from_labels(q, labels);
  Mapping m;
  m.processor_count = 2;
  m.block_to_proc = {0, 1, 0};
  const MachineParams machine{1.0, 3.0, 4.0};
  SimOptions opts;
  opts.accounting = CommAccounting::PerStepBarrier;
  opts.flops_per_iteration = 1;
  SimResult r =
      simulate_execution(q, TimeFunction{{1, 0}}, part, m, Hypercube(1), machine, opts);
  EXPECT_EQ(r.messages, 1);
  EXPECT_EQ(r.words, 1);
  // Step 0 worst = proc 0's {8,0,0} (not proc 1's {1,1,1}); step 1 adds
  // {1,0,0}.  A wrong tie-break would report total {2,1,1} instead.
  EXPECT_EQ(r.total, (Cost{9, 0, 0}));
  EXPECT_EQ(r.comm_bottleneck, (Cost{0, 0, 0}));

  // Swapped processor assignment: now the comm-heavy composition sits on
  // proc 0 and must win the same tie.
  m.block_to_proc = {1, 0, 1};
  SimResult rs =
      simulate_execution(q, TimeFunction{{1, 0}}, part, m, Hypercube(1), machine, opts);
  EXPECT_EQ(rs.total, (Cost{2, 1, 1}));
  EXPECT_EQ(rs.comm_bottleneck, (Cost{0, 1, 1}));
}

TEST(ExecSim, SingleProcessorIsAllCompute) {
  PartitionFixture s = make(workloads::matrix_vector(8), {1, 1});
  Mapping one;
  one.processor_count = 1;
  one.block_to_proc.assign(s.partition.block_count(), 0);
  SimOptions opts;
  opts.flops_per_iteration = 2;
  SimResult r = simulate_execution(*s.q, s.tf, s.partition, one, Hypercube(0), MachineParams{}, opts);
  EXPECT_EQ(r.total, (Cost{2 * 64, 0, 0}));
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.words, 0);
  EXPECT_EQ(r.per_proc_iterations[0], 64);
}

TEST(ExecSim, MatvecMatchesClosedFormPaperAccounting) {
  // The simulator under PaperMaxChannel accounting must reproduce the
  // Section IV closed form exactly for the matvec partition/mapping.
  const std::int64_t m = 32;
  PartitionFixture s = make(workloads::matrix_vector(m), {1, 1});
  for (unsigned dim : {1u, 2u, 3u}) {
    HypercubeMappingResult hm = map_to_hypercube(s.tig, dim);
    SimOptions opts;
    opts.flops_per_iteration = 2;
    SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(dim),
                                     MachineParams{}, opts);
    Cost expected = perf::matvec_exec_time(m, std::int64_t{1} << dim);
    EXPECT_EQ(r.total, expected) << "N = " << (1 << dim);
  }
}

TEST(ExecSim, CommInvariantInMachineSize) {
  // Table I's observation: the comm term is independent of N.
  const std::int64_t m = 24;
  PartitionFixture s = make(workloads::matrix_vector(m), {1, 1});
  std::int64_t comm_start = -1;
  for (unsigned dim : {1u, 2u, 3u}) {
    HypercubeMappingResult hm = map_to_hypercube(s.tig, dim);
    SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(dim),
                                     MachineParams{}, SimOptions{});
    if (comm_start < 0) comm_start = r.comm_bottleneck.start;
    EXPECT_EQ(r.comm_bottleneck.start, comm_start);
    EXPECT_EQ(r.comm_bottleneck.start, 2 * m - 2);
  }
}

TEST(ExecSim, StepsMatchScheduleSpan) {
  PartitionFixture s = make(workloads::example_l1(), {1, 1});
  Mapping one;
  one.processor_count = 1;
  one.block_to_proc.assign(s.partition.block_count(), 0);
  SimResult r = simulate_execution(*s.q, s.tf, s.partition, one, Hypercube(0), MachineParams{},
                                   SimOptions{});
  EXPECT_EQ(r.steps, 7);  // hyperplanes i+j = 0..6
}

TEST(ExecSim, PerStepBarrierAggregatesMessages) {
  PartitionFixture s = make(workloads::example_l1(), {1, 1});
  HypercubeMappingResult hm = map_to_hypercube(s.tig, 1);
  SimOptions opts;
  opts.accounting = CommAccounting::PerStepBarrier;
  SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(1),
                                   MachineParams{}, opts);
  // Aggregation: messages (per step/src/dst) <= words (per arc).
  EXPECT_GT(r.words, 0);
  EXPECT_LE(r.messages, r.words);
  EXPECT_GT(r.time, 0.0);
}

TEST(ExecSim, BarrierModelIsAtLeastMaxChannelCompute) {
  // The step-synchronous model includes idle time, so its compute+comm time
  // is at least the bottleneck-compute of the aggregate model.
  PartitionFixture s = make(workloads::matrix_vector(12), {1, 1});
  HypercubeMappingResult hm = map_to_hypercube(s.tig, 2);
  MachineParams mp{1.0, 0.0, 0.0};  // compute only
  SimOptions agg;
  SimOptions barrier;
  barrier.accounting = CommAccounting::PerStepBarrier;
  SimResult ra = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(2), mp, agg);
  SimResult rb = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(2), mp, barrier);
  EXPECT_GE(rb.time, ra.compute_bottleneck.value(mp));
}

TEST(ExecSim, ChargeHopsIncreasesRemoteCost) {
  PartitionFixture s = make(workloads::matrix_vector(16), {1, 1});
  // Round-robin scatters adjacent blocks across the cube -> multi-hop routes.
  Mapping rr = map_round_robin(s.tig, 8);
  SimOptions plain;
  SimOptions hops;
  hops.charge_hops = true;
  SimResult r0 = simulate_execution(*s.q, s.tf, s.partition, rr, Hypercube(3), MachineParams{},
                                    plain);
  SimResult r1 = simulate_execution(*s.q, s.tf, s.partition, rr, Hypercube(3), MachineParams{},
                                    hops);
  EXPECT_GE(r1.time, r0.time);
}

TEST(ExecSim, SpeedupSaneAndBounded) {
  const std::int64_t m = 32;
  PartitionFixture s = make(workloads::matrix_vector(m), {1, 1});
  HypercubeMappingResult hm = map_to_hypercube(s.tig, 3);
  SimOptions opts;
  opts.flops_per_iteration = 2;
  MachineParams mp{1.0, 2.0, 1.0};
  SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(3), mp, opts);
  double sp = r.speedup(mp, static_cast<std::int64_t>(s.q->vertices().size()), 2);
  EXPECT_GT(sp, 1.0);
  EXPECT_LE(sp, 8.0);
}

TEST(ExecSim, ValidationErrors) {
  PartitionFixture s = make(workloads::example_l1(), {1, 1});
  Mapping bad;
  bad.processor_count = 2;
  bad.block_to_proc = {0};  // wrong size
  EXPECT_THROW(simulate_execution(*s.q, s.tf, s.partition, bad, Hypercube(1), MachineParams{},
                                  SimOptions{}),
               std::invalid_argument);
  Mapping too_many;
  too_many.processor_count = 8;
  too_many.block_to_proc.assign(s.partition.block_count(), 0);
  EXPECT_THROW(simulate_execution(*s.q, s.tf, s.partition, too_many, Hypercube(1), MachineParams{},
                                  SimOptions{}),
               std::invalid_argument);
}

TEST(ExecSim, BarrierHandComputedTinyCase) {
  // 1-D chain of 4 iterations, d = (1); two blocks of two iterations, one
  // per processor.  Steps 0..3, one iteration each; the boundary arc
  // (1)->(2) is a one-word message sent at step 1.
  ComputationStructure q({{0}, {1}, {2}, {3}}, {{1}});
  TimeFunction tf{{1}};
  Partition part = Partition::from_labels(q, {0, 0, 1, 1});
  Mapping map;
  map.processor_count = 2;
  map.block_to_proc = {0, 1};
  SimOptions opts;
  opts.accounting = CommAccounting::PerStepBarrier;
  opts.flops_per_iteration = 3;
  MachineParams mp{1.0, 10.0, 2.0};
  SimResult r = simulate_execution(q, tf, part, map, Hypercube(1), mp, opts);
  // Steps 0..3: compute 3 t_calc each; step 1 additionally sends one
  // message (10 + 2).  Total = 4*3 + 12 = 24.
  EXPECT_EQ(r.steps, 4);
  EXPECT_EQ(r.messages, 1);
  EXPECT_EQ(r.words, 1);
  EXPECT_DOUBLE_EQ(r.time, 24.0);
  EXPECT_EQ(r.total, (Cost{12, 1, 1}));
}

TEST(ExecSim, PaperAccountingHandComputedTinyCase) {
  // Same chain: compute bottleneck 2 iterations * 3 flops; one channel of
  // one word.
  ComputationStructure q({{0}, {1}, {2}, {3}}, {{1}});
  TimeFunction tf{{1}};
  Partition part = Partition::from_labels(q, {0, 0, 1, 1});
  Mapping map;
  map.processor_count = 2;
  map.block_to_proc = {0, 1};
  SimOptions opts;
  opts.flops_per_iteration = 3;
  SimResult r = simulate_execution(q, tf, part, map, Hypercube(1), MachineParams{}, opts);
  EXPECT_EQ(r.total, (Cost{6, 1, 1}));
  EXPECT_EQ(r.compute_bottleneck, (Cost{6, 0, 0}));
  EXPECT_EQ(r.comm_bottleneck, (Cost{0, 1, 1}));
}

TEST(ExecSim, LinkContentionHandComputedTwoHopCase) {
  // Iterations on procs 00 and 11 of a 2-cube: the e-cube route 00->01->11
  // uses two links; each carries the single one-word message.
  ComputationStructure q({{0}, {1}}, {{1}});
  TimeFunction tf{{1}};
  Partition part = Partition::from_labels(q, {0, 1});
  Mapping map;
  map.processor_count = 4;
  map.block_to_proc = {0b00, 0b11};
  SimOptions opts;
  opts.accounting = CommAccounting::LinkContention;
  MachineParams mp{1.0, 10.0, 2.0};
  SimResult r = simulate_execution(q, tf, part, map, Hypercube(2), mp, opts);
  // Step 0: compute 1 + busiest link (1 msg, 1 word) = 1 + 12; step 1:
  // compute 1.  Total = 14... the message occupies each of the two links
  // with (10+2), but per-step max is a single link's 12.
  EXPECT_DOUBLE_EQ(r.time, 1.0 + 12.0 + 1.0);
  EXPECT_EQ(r.max_link_words, 1);
  EXPECT_EQ(r.words, 1);
}

TEST(ExecSim, FromLabelsPartitionSimulates) {
  // Partition::from_labels wraps arbitrary partitionings (e.g. the GCD
  // baseline's residue classes) for the simulator.
  ComputationStructure q = ComputationStructure::from_loop(workloads::strided_recurrence(5, 2));
  std::vector<std::size_t> labels(q.vertices().size());
  for (std::size_t vid = 0; vid < labels.size(); ++vid) {
    const IntVec& v = q.vertices()[vid];
    labels[vid] = static_cast<std::size_t>((v[0] % 2) * 2 + (v[1] % 2));
  }
  Partition part = Partition::from_labels(q, labels);
  EXPECT_EQ(part.block_count(), 4u);
  Mapping map;
  map.processor_count = 4;
  map.block_to_proc = {0, 1, 2, 3};
  SimResult r = simulate_execution(q, TimeFunction{{1, 1}}, part, map, Hypercube(2),
                                   MachineParams{}, SimOptions{});
  // Residue classes are dependence-independent: zero messages.
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.comm_bottleneck, (Cost{0, 0, 0}));
}

/// Collects the simulated-clock events (pid obs::kSimPid), one JSON object
/// per line; the wall-clock pipeline spans are dropped.
class SimClockSink final : public obs::TraceSink {
 public:
  void event(const obs::TraceEvent& e) override {
    if (e.pid == obs::kSimPid) out += obs::event_to_json(e) + "\n";
  }
  std::string out;
};

/// Compares `actual` with the committed golden file tests/golden/<name>.
/// On a mismatch the actual text lands next to the test binary as
/// <name>.actual for diffing; copying it over the golden file refreshes the
/// pin, which is only right when a change is meant to alter that output.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(HYPART_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() != actual) {
    std::ofstream(name + ".actual", std::ios::binary) << actual;
    FAIL() << name << " differs from its golden file; actual output written to " << name
           << ".actual";
  }
}

/// One instrumented dense run, pinned against golden files <name>.trace.jsonl
/// (the simulated-clock events) and <name>.metrics.json (the snapshot).
void expect_pinned_run(const std::string& name, const LoopNest& nest, const Topology& topo,
                       const Mapping& map, const TimeFunction& tf, const ComputationStructure& q,
                       const Partition& part, CommAccounting acc, const std::string& faults) {
  SimClockSink sink;
  obs::MetricsRegistry reg;
  SimOptions opts;
  opts.accounting = acc;
  opts.flops_per_iteration = nest.body_flops();
  if (!faults.empty()) opts.faults = fault::FaultPlan::parse(faults);
  opts.obs.trace = &sink;
  opts.obs.metrics = &reg;
  SimResult r = simulate_execution(q, tf, part, map, topo, MachineParams{}, opts);
  ASSERT_TRUE(r.metrics.has_value());
  expect_golden(name + ".trace.jsonl", sink.out);
  expect_golden(name + ".metrics.json", r.metrics->to_json() + "\n");
}

TEST(ExecSim, DenseTimelineAndMetricsArePinned) {
  // The dense simulator's full observability output — the simulated-clock
  // timeline (compute spans, message instants, per-link transfers, the
  // busiest-link counter) and the metrics snapshot with its histograms and
  // busy/idle counters — for matmul n = 8 on a 2-cube under LinkContention.
  LoopNest nest = workloads::matrix_multiplication(8);
  ComputationStructure q = ComputationStructure::from_loop(nest);
  TimeFunction tf = *search_time_function(q);
  ProjectedStructure ps(q, tf);
  Grouping grouping = Grouping::compute(ps);
  Partition part = Partition::build(q, grouping);
  TaskInteractionGraph tig = TaskInteractionGraph::from_partition(q, part, grouping);
  Mapping map = map_to_hypercube(tig, 2).mapping;
  expect_pinned_run("dense_sim_matmul8_contention", nest, Hypercube(2), map, tf, q, part,
                    CommAccounting::LinkContention, "");
}

TEST(ExecSim, DegradedAndMeshTimelinesArePinned) {
  // The same output on a degraded cube (detoured links, a node whose blocks
  // migrate mid-run, and a link-only plan that migrates nothing) and on a
  // non-hypercube topology, where a message occupies its logical channel.
  LoopNest nest = workloads::sor2d(10, 10);
  ComputationStructure q = ComputationStructure::from_loop(nest);
  TimeFunction tf = *search_time_function(q);
  ProjectedStructure ps(q, tf);
  Grouping grouping = Grouping::compute(ps);
  Partition part = Partition::build(q, grouping);
  TaskInteractionGraph tig = TaskInteractionGraph::from_partition(q, part, grouping);
  Mapping map = map_to_hypercube(tig, 3).mapping;
  expect_pinned_run("dense_sim_sor2d10_barrier_faults", nest, Hypercube(3), map, tf, q, part,
                    CommAccounting::PerStepBarrier, "link:0-1@3,node:2@5");
  expect_pinned_run("dense_sim_sor2d10_paper_link_fault", nest, Hypercube(3), map, tf, q, part,
                    CommAccounting::PaperMaxChannel, "link:0-1@3");
  Mapping mesh_map;
  mesh_map.processor_count = 4;
  for (std::size_t b = 0; b < part.block_count(); ++b) mesh_map.block_to_proc.push_back(b % 4);
  expect_pinned_run("dense_sim_sor2d10_mesh", nest, Mesh2D(2, 2), mesh_map, tf, q, part,
                    CommAccounting::PerStepBarrier, "");
}

class SimMonotonicityProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SimMonotonicityProperty, MoreProcessorsNeverIncreaseComputeBottleneck) {
  std::int64_t m = GetParam();
  PartitionFixture s = make(workloads::matrix_vector(m), {1, 1});
  std::int64_t prev = INT64_MAX;
  for (unsigned dim : {0u, 1u, 2u}) {
    HypercubeMappingResult hm = map_to_hypercube(s.tig, dim);
    SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(dim),
                                     MachineParams{}, SimOptions{});
    EXPECT_LE(r.compute_bottleneck.calc, prev);
    prev = r.compute_bottleneck.calc;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimMonotonicityProperty, ::testing::Values(8, 16, 20, 32));

}  // namespace
}  // namespace hypart

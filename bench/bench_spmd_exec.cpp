// Ablation A8 — semantic validation at scale: distributed (message-passing)
// execution equals sequential execution for every workload, plus the cost of
// the interpreters and the volume of value traffic vs the analytic
// interblock-arc counts.  Every row's deterministic columns land in
// bench::metrics() as spmd_exec.<workload>.* so the byte-exact baseline
// pins the executors; mailbox depth and other thread-timing figures stay
// out.
#include "bench_common.hpp"

#include <memory>
#include <string>

#include "exec/interpreter.hpp"
#include "exec/parallel_runtime.hpp"
#include "mapping/hypercube_map.hpp"
#include "perf/table.hpp"
#include "sim/report.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;

struct Pieces {
  std::unique_ptr<ComputationStructure> q;
  std::unique_ptr<ProjectedStructure> ps;
  Grouping grouping;
  Partition partition;
  TaskInteractionGraph tig;
  TimeFunction tf;
  DependenceInfo deps;
  LoopNest nest;

  explicit Pieces(LoopNest n) : nest(std::move(n)) {
    deps = analyze_dependences(nest);
    IndexSet is(nest);
    q = std::make_unique<ComputationStructure>(is.points(), deps.distance_vectors());
    auto found = search_time_function(*q);
    tf = *found;
    ps = std::make_unique<ProjectedStructure>(*q, tf);
    grouping = Grouping::compute(*ps);
    partition = Partition::build(*q, grouping);
    tig = TaskInteractionGraph::from_partition(*q, partition, grouping);
  }
};

void report() {
  bench::banner("Ablation A8: distributed execution == sequential (all workloads)");
  TextTable t({"workload", "iterations", "procs", "interp equal", "threads equal", "elements",
               "value msgs", "halo loads", "mean utilization"});
  auto add = [&](LoopNest nest, unsigned dim) {
    Pieces p(std::move(nest));
    Mapping map = map_to_hypercube(p.tig, dim).mapping;
    ArrayStore seq = run_sequential(p.nest);
    DistributedResult dist =
        run_distributed(p.nest, *p.q, p.tf, p.partition, map, p.deps);
    EquivalenceReport eq = compare_stores(seq, dist.written);
    // And once more on real OS threads with blocking message passing.
    ParallelRunResult par = run_parallel(p.nest, *p.q, p.tf, p.partition, map, p.deps);
    EquivalenceReport eq_par = compare_stores(seq, par.written);
    UtilizationReport util = processor_utilization(*p.q, p.tf, p.partition, map);
    t.row(p.nest.name(), p.q->vertices().size(), std::size_t{1} << dim,
          eq.equal ? "YES" : "NO", eq_par.equal ? "YES" : "NO", eq.compared,
          dist.stats.value_messages, dist.stats.halo_loads, util.mean_utilization);
    const std::string key = "spmd_exec." + p.nest.name();
    bench::metrics().add(key + ".iterations", static_cast<std::int64_t>(p.q->vertices().size()));
    bench::metrics().add(key + ".elements", static_cast<std::int64_t>(eq.compared));
    bench::metrics().add(key + ".value_messages", dist.stats.value_messages);
    bench::metrics().add(key + ".halo_loads", dist.stats.halo_loads);
    bench::metrics().add(key + ".threads_messages", par.stats.messages_sent);
    bench::metrics().set_gauge(key + ".interp_equal", eq.equal ? 1.0 : 0.0);
    bench::metrics().set_gauge(key + ".threads_equal", eq_par.equal ? 1.0 : 0.0);
  };
  add(workloads::example_l1(15), 2);
  add(workloads::matrix_vector(32), 3);
  add(workloads::matrix_multiplication(9), 3);
  add(workloads::sor2d(24, 24), 3);
  add(workloads::convolution1d(48, 16), 2);
  add(workloads::wavefront3d(8), 3);
  add(workloads::transitive_closure(8), 3);
  add(workloads::strided_recurrence(20, 2), 2);
  std::printf("%s", t.to_string().c_str());
  std::printf("\nEvery row must read YES: the Gray-mapped hyperplane execution with\n"
              "explicit value messages reproduces sequential semantics exactly.\n");
}

void bm_sequential_exec(benchmark::State& state) {
  LoopNest nest = workloads::sor2d(state.range(0), state.range(0));
  for (auto _ : state) {
    ArrayStore s = run_sequential(nest);
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_sequential_exec)->Arg(16)->Arg(32)->Arg(64)->Complexity()
    ->Unit(benchmark::kMillisecond);

void bm_distributed_exec(benchmark::State& state) {
  Pieces p(workloads::sor2d(state.range(0), state.range(0)));
  Mapping map = map_to_hypercube(p.tig, 3).mapping;
  for (auto _ : state) {
    DistributedResult r = run_distributed(p.nest, *p.q, p.tf, p.partition, map, p.deps);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_distributed_exec)->Arg(16)->Arg(32)->Arg(64)->Complexity()
    ->Unit(benchmark::kMillisecond);

}  // namespace

HYPART_BENCH_MAIN(report)

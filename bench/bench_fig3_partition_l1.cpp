// Fig. 3 — projected structure and partitioning of loop (L1) with Π = (1,1).
//
// Reproduces: the 7 projected points / projection lines (Fig. 3(a)), the
// grouping into 4 groups, and the headline count "33 dependencies, only 12
// interblock" (Fig. 3(b)).  Benchmarks time projection and grouping.
#include "bench_common.hpp"

#include "partition/blocks.hpp"
#include "partition/checkers.hpp"
#include "perf/table.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;

void report() {
  bench::banner("Fig. 3: projected structure & partitioning of loop (L1), Pi=(1,1)");

  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  TimeFunction tf{{1, 1}};
  ProjectedStructure ps(q, tf);

  std::printf("projected points |V^p| = %zu (paper: 7)\n", ps.point_count());
  TextTable pts({"projected point", "line population"});
  for (std::size_t i = 0; i < ps.point_count(); ++i)
    pts.row(to_string(ps.point_rational(i)), ps.line_population(i));
  std::printf("%s", pts.to_string().c_str());

  std::printf("projected dependence vectors:\n");
  for (std::size_t k = 0; k < q.dependences().size(); ++k)
    std::printf("  d%zu = %s -> d%zu^p = %s (r_%zu = %lld)\n", k + 1,
                to_string(q.dependences()[k]).c_str(), k + 1,
                to_string(ps.projected_dep_rational(k)).c_str(), k + 1,
                static_cast<long long>(ps.replication_factor(k)));

  Grouping g = Grouping::compute(ps);
  std::printf("\ngroup size r = %lld, beta = %zu, groups = %zu (paper: 4)\n",
              static_cast<long long>(g.group_size_r()), g.beta(), g.group_count());
  TextTable groups({"group", "projected points", "block iterations"});
  Partition part = Partition::build(q, g);
  for (std::size_t i = 0; i < g.group_count(); ++i) {
    std::string members;
    for (std::size_t pid : g.groups()[i].members()) {
      if (!members.empty()) members += " ";
      members += to_string(ps.point_rational(pid));
    }
    groups.row("G" + std::to_string(i), members, part.blocks()[i].iterations.size());
  }
  std::printf("%s", groups.to_string().c_str());

  PartitionStats stats = compute_partition_stats(q, part);
  std::printf("dependence pairs total = %zu (paper: 33), interblock = %zu (paper: 12)\n",
              stats.total_arcs, stats.interblock_arcs);
  // The headline arc counts, pinned by the baseline.
  bench::metrics().add("fig3.total_arcs", static_cast<std::int64_t>(stats.total_arcs));
  bench::metrics().add("fig3.interblock_arcs", static_cast<std::int64_t>(stats.interblock_arcs));
  std::printf("%s\n", check_theorem2(g).to_string().c_str());
  std::printf("Theorem 1 (schedule preserved): %s\n",
              check_theorem1(q, tf, part) ? "HOLDS" : "VIOLATED");
}

void bm_projection(benchmark::State& state) {
  ComputationStructure q =
      ComputationStructure::from_loop(workloads::example_l1(state.range(0)));
  TimeFunction tf{{1, 1}};
  for (auto _ : state) {
    ProjectedStructure ps(q, tf);
    benchmark::DoNotOptimize(ps);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_projection)->Arg(7)->Arg(15)->Arg(31)->Arg(63)->Complexity();

void bm_grouping(benchmark::State& state) {
  ComputationStructure q =
      ComputationStructure::from_loop(workloads::example_l1(state.range(0)));
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  for (auto _ : state) {
    Grouping g = Grouping::compute(ps);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(bm_grouping)->Arg(7)->Arg(15)->Arg(31)->Arg(63);

void bm_partition_stats(benchmark::State& state) {
  ComputationStructure q =
      ComputationStructure::from_loop(workloads::example_l1(state.range(0)));
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  Grouping g = Grouping::compute(ps);
  Partition p = Partition::build(q, g);
  for (auto _ : state) {
    PartitionStats s = compute_partition_stats(q, p);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(bm_partition_stats)->Arg(15)->Arg(63);

}  // namespace

HYPART_BENCH_MAIN(report)

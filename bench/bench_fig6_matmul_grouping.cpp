// Fig. 6 — grouping the projected points of the 4x4x4 matrix multiplication.
//
// Reproduces the paper's exact grouping: grouping vector d_A^p, auxiliary
// d_C^p, base vertex (-1,-1,2) -> 17 groups of size <= 3, and compares it
// with the library's default (lexicographic-seed) grouping.
#include "bench_common.hpp"

#include "partition/blocks.hpp"
#include "partition/checkers.hpp"
#include "perf/table.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;

GroupingOptions paper_options(const ProjectedStructure& ps) {
  GroupingOptions opts;
  std::vector<std::size_t> aux;
  const std::vector<IntVec>& pdeps = ps.projected_deps_scaled();
  for (std::size_t k = 0; k < pdeps.size(); ++k) {
    if (pdeps[k] == IntVec{-1, 2, -1}) opts.grouping_vector = k;   // d_A^p
    if (pdeps[k] == IntVec{-1, -1, 2}) aux.push_back(k);           // d_C^p
  }
  opts.auxiliary_vectors = aux;
  opts.seed_policy = SeedPolicy::ExplicitBases;
  opts.explicit_bases = {{-3, -3, 6}};  // the paper's base vertex (-1,-1,2)
  return opts;
}

/// Print one grouping's summary; with a `metrics_prefix`, also record its
/// group count and full/boundary split as counters.
void describe(const char* label, const ComputationStructure& q, const Grouping& g,
              const char* metrics_prefix = nullptr) {
  Partition part = Partition::build(q, g);
  PartitionStats stats = compute_partition_stats(q, part);
  std::printf("%s: r=%lld, groups=%zu, interblock=%zu/%zu, %s\n", label,
              static_cast<long long>(g.group_size_r()), g.group_count(), stats.interblock_arcs,
              stats.total_arcs, check_theorem2(g).to_string().c_str());
  std::size_t full = 0, partial = 0;
  for (const Group& grp : g.groups()) (grp.size() == 3 ? full : partial)++;
  std::printf("  full groups (3 points): %zu, boundary groups: %zu\n", full, partial);
  if (metrics_prefix != nullptr) {
    const std::string prefix = metrics_prefix;
    bench::metrics().add(prefix + ".groups", static_cast<std::int64_t>(g.group_count()));
    bench::metrics().add(prefix + ".full_groups", static_cast<std::int64_t>(full));
    bench::metrics().add(prefix + ".boundary_groups", static_cast<std::int64_t>(partial));
  }
}

void report() {
  bench::banner("Fig. 6: grouping the matrix-multiplication projected points");

  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication());
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});

  Grouping paper = Grouping::compute(ps, paper_options(ps));
  describe("paper seed (Fig. 6, expects 17 groups)", q, paper, "fig6.paper_seed");

  TextTable t({"group", "size", "base (rational)", "lattice (a, b)"});
  for (std::size_t i = 0; i < paper.group_count(); ++i) {
    const Group& grp = paper.groups()[i];
    RatVec base(grp.base.size());
    for (std::size_t c = 0; c < grp.base.size(); ++c)
      base[c] = Rational(grp.base[c], ps.scale());
    t.row("G" + std::to_string(i + 1), grp.size(), to_string(base), to_string(grp.lattice));
  }
  std::printf("%s", t.to_string().c_str());

  Grouping dflt = Grouping::compute(ps);
  describe("default lexicographic seed", q, dflt);
}

void bm_grouping_matmul(benchmark::State& state) {
  ComputationStructure q =
      ComputationStructure::from_loop(workloads::matrix_multiplication(state.range(0)));
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  for (auto _ : state) {
    Grouping g = Grouping::compute(ps);
    benchmark::DoNotOptimize(g);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_grouping_matmul)->Arg(3)->Arg(7)->Arg(11)->Arg(15)->Complexity();

void bm_block_build_matmul(benchmark::State& state) {
  ComputationStructure q =
      ComputationStructure::from_loop(workloads::matrix_multiplication(state.range(0)));
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  Grouping g = Grouping::compute(ps);
  for (auto _ : state) {
    Partition p = Partition::build(q, g);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(bm_block_build_matmul)->Arg(3)->Arg(7)->Arg(11);

}  // namespace

HYPART_BENCH_MAIN(report)

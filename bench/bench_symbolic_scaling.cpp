// Symbolic-vs-dense scaling — the point of the IterSpace refactor.
//
// Part 1 runs the full pipeline in verify mode (symbolic and dense paths
// both executed; run_pipeline throws on any disagreement) at sizes the
// dense path can still materialize — on the rectangular sor2d AND on the
// affine (slab-decomposed) triangular_matvec.  Part 2 sweeps the symbolic
// path far past the dense ceiling: with the group lattice the full
// pipeline — grouping, mapping, theorem checks, and the simulated
// execution — runs sor2d past 1e7 projection lines at flat peak RSS; the
// chain layout's closed-form sweep and simulator plan sor2d and the
// strided recurrence at N = 2^30 (~2^31 lines); and the grouping+mapping
// stages alone (O(slabs + deps) closed forms) reach 1e8 lines in
// microseconds.
//
// Only the symbolic sweeps route metrics into the shared registry, so the
// HYPART_BENCH_METRICS dump must report pipeline.points_materialized = 0
// AND pipeline.groups_materialized = 0; CI fails the build if not (see
// .github/workflows/ci.yml).
#include "bench_common.hpp"

#include <sys/resource.h>

#include <chrono>

#include "core/pipeline.hpp"
#include "loop/iter_space.hpp"
#include "mapping/hypercube_map.hpp"
#include "obs/metrics.hpp"
#include "partition/group_lattice.hpp"
#include "perf/table.hpp"
#include "schedule/hyperplane.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;

PipelineConfig base_config() {
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1};
  cfg.cube_dim = 3;
  return cfg;
}

/// Peak RSS of the process so far, in MiB (ru_maxrss is KiB on Linux).
/// A high-water mark: if it stays flat while N grows 64x, the symbolic
/// path's memory is independent of N.
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Projected-line count regardless of grouping backend (the lattice path
/// leaves `projected` null).
std::uint64_t lines_of(const PipelineResult& r) {
  return r.lattice ? r.lattice->line_count() : r.projected->point_count();
}

std::uint64_t blocks_of(const PipelineResult& r) {
  return r.lattice ? r.lattice->group_count()
                   : static_cast<std::uint64_t>(r.block_sizes.size());
}

void verify_agreement() {
  std::printf("\nVerify mode (dense and symbolic both run; any disagreement throws):\n");
  TextTable t({"N", "iterations", "blocks", "interblock", "steps", "T_exec"});
  for (std::int64_t n : {16, 32, 64, 128}) {
    PipelineConfig cfg = base_config();
    cfg.space_mode = SpaceMode::Verify;
    PipelineResult r = run_pipeline(workloads::sor2d(n, n), cfg);
    t.row(n, r.iteration_count(), r.block_sizes.size(), r.stats.interblock_arcs,
          static_cast<std::uint64_t>(r.sim.steps), r.sim.time);
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("all sizes agree (verify mode raises on any symbolic/dense mismatch)\n");
}

void symbolic_sweep() {
  std::printf("\nSymbolic-only sweep, full pipeline incl. simulation (sor2d NxN; "
              "dense ceiling is roughly N=512):\n");
  TextTable t({"N", "iterations", "lines", "blocks", "steps", "T_exec", "messages", "peakRSS_MiB"});
  for (std::int64_t n : {256, 4096, 65536, 1048576, 8388608}) {
    PipelineConfig cfg = base_config();
    cfg.space_mode = SpaceMode::Symbolic;
    cfg.obs = bench::obs_context();
    PipelineResult r = run_pipeline(workloads::sor2d(n, n), cfg);
    t.row(n, r.iteration_count(), lines_of(r), blocks_of(r),
          static_cast<std::uint64_t>(r.sim.steps), r.sim.time,
          static_cast<std::uint64_t>(r.sim.messages), peak_rss_mib());
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("N=8388608 is ~7.0e13 iterations over 1.7e7 projection lines; the flat\n"
              "peakRSS column is the group lattice at work (no points, no groups).\n");
}

void triangular_verify() {
  std::printf("\nAffine domain, verify mode (triangular_matvec, j < i):\n");
  TextTable t({"N", "iterations", "slabs", "blocks", "steps", "T_exec"});
  for (std::int64_t n : {16, 32, 64, 128}) {
    PipelineConfig cfg = base_config();
    cfg.space_mode = SpaceMode::Verify;
    PipelineResult r = run_pipeline(workloads::triangular_matvec(n), cfg);
    t.row(n, r.iteration_count(), static_cast<std::uint64_t>(r.space->slab_count()),
          r.block_sizes.size(), static_cast<std::uint64_t>(r.sim.steps), r.sim.time);
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("all sizes agree (verify mode raises on any symbolic/dense mismatch)\n");
}

void triangular_sweep() {
  std::printf("\nAffine symbolic-only sweep (triangular_matvec, ~N^2/2 points):\n");
  TextTable t({"N", "iterations", "slabs", "lines", "blocks", "steps", "T_exec", "peakRSS_MiB"});
  for (std::int64_t n : {256, 4096, 65536, 1048576}) {
    PipelineConfig cfg = base_config();
    cfg.space_mode = SpaceMode::Symbolic;
    cfg.obs = bench::obs_context();
    PipelineResult r = run_pipeline(workloads::triangular_matvec(n), cfg);
    t.row(n, r.iteration_count(), static_cast<std::uint64_t>(r.space->slab_count()),
          lines_of(r), blocks_of(r), static_cast<std::uint64_t>(r.sim.steps), r.sim.time,
          peak_rss_mib());
  }
  std::printf("%s", t.to_string().c_str());
}

void closure_sweep() {
  // The classes PR 8's lattice extensions admit: one 3-D nest (plane
  // layout), one strided chain (residue-class sublattices), and one
  // disjunctive-bound nest (slab splitting on the comparison hyperplane).
  // All three route metrics into the shared registry, so the CI gate
  // (points_materialized == 0 AND groups_materialized == 0) covers them.
  std::printf("\nClosure sweep (3-D plane lattice / strided residue chains / "
              "disjunctive bounds), full pipeline:\n");
  TextTable t({"workload", "N", "iterations", "lines", "blocks", "steps", "T_exec",
               "peakRSS_MiB"});
  auto run_case = [&](const char* name, std::int64_t n, const LoopNest& nest, IntVec pi) {
    PipelineConfig cfg;
    cfg.time_function = std::move(pi);
    cfg.cube_dim = 3;
    cfg.space_mode = SpaceMode::Symbolic;
    cfg.obs = bench::obs_context();
    PipelineResult r = run_pipeline(nest, cfg);
    t.row(name, static_cast<std::uint64_t>(n), r.iteration_count(), lines_of(r), blocks_of(r),
          static_cast<std::uint64_t>(r.sim.steps), r.sim.time, peak_rss_mib());
  };
  for (std::int64_t n : {64, 512, 2048})
    run_case("wavefront3d", n, workloads::wavefront3d(n), IntVec{1, 1, 1});
  for (std::int64_t n : {4096, 65536, 1048576})
    run_case("strided_recurrence s=3", n, workloads::strided_recurrence(n, 3), IntVec{1, 1});
  for (std::int64_t n : {4096, 65536, 1048576})
    run_case("pyramid_stencil", n, workloads::pyramid_stencil(n), IntVec{1, 1});
  std::printf("%s", t.to_string().c_str());
  std::printf("wavefront3d N=2048 is ~8.6e9 iterations (past the dense ceiling) on the\n"
              "2-D plane lattice; the strided and disjunctive sweeps stay O(lines).\n");
}

void closed_form_sweep() {
  // The chain layout's sweep and simulator are closed-form: N = 2^30 is
  // ~2^31 projection lines (over ten minutes line by line at ~0.36 µs per
  // line), so finishing here at all shows the closed form ran.  Each run reports into its own
  // registry (the shared dump's existing counters stay as they were); only
  // the lattice layout and closed-form sweep counters are forwarded, so the
  // CI check pipeline.lattice_sweep.closed_form == pipeline.lattice_layout.chain
  // + pipeline.lattice_layout.plane covers these runs too.
  std::printf("\nClosed-form chain sweep + simulator at N = 2^30 (full pipeline):\n");
  TextTable t({"workload", "N", "iterations", "lines", "blocks", "steps", "messages",
               "closed_form", "wall_ms"});
  auto run_case = [&](const char* name, std::int64_t n, const LoopNest& nest) {
    obs::MetricsRegistry local;
    PipelineConfig cfg = base_config();
    cfg.space_mode = SpaceMode::Symbolic;
    cfg.obs = obs::ObsContext{nullptr, &local};
    auto t0 = std::chrono::steady_clock::now();
    PipelineResult r = run_pipeline(nest, cfg);
    double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                    .count();
    const obs::MetricsSnapshot snap = local.snapshot();
    auto counter = [&](const char* key) {
      auto it = snap.counters.find(key);
      return it == snap.counters.end() ? std::int64_t{0} : it->second;
    };
    const std::int64_t closed = counter("pipeline.lattice_sweep.closed_form");
    bench::metrics().add("pipeline.lattice_sweep.closed_form", closed);
    bench::metrics().add("pipeline.lattice_layout.chain", counter("pipeline.lattice_layout.chain"));
    bench::metrics().add("pipeline.lattice_layout.plane", counter("pipeline.lattice_layout.plane"));
    t.row(name, static_cast<std::uint64_t>(n), r.iteration_count(), lines_of(r), blocks_of(r),
          static_cast<std::uint64_t>(r.sim.steps), static_cast<std::uint64_t>(r.sim.messages),
          static_cast<std::uint64_t>(closed), ms);
  };
  const std::int64_t n = std::int64_t{1} << 30;
  run_case("sor2d", n, workloads::sor2d(n, n));
  run_case("strided_recurrence s=3", n, workloads::strided_recurrence(n, 3));
  std::printf("%s", t.to_string().c_str());
  std::printf("2^60 iterations each, counted exactly; wall time is independent of N.\n");
}

void grouping_mapping_sweep() {
  std::printf("\nGrouping + mapping only (closed forms; no per-line pass, no simulation):\n");
  TextTable t({"N", "lines", "groups", "r", "procs", "build+map_us", "peakRSS_MiB"});
  for (std::int64_t n : {1'000'000, 10'000'000, 50'000'000}) {
    IterSpace space = IterSpace::from_nest(workloads::sor2d(n, n));
    TimeFunction tf;
    tf.pi = IntVec{1, 1};
    auto t0 = std::chrono::steady_clock::now();
    std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
    if (!gl) {
      std::printf("  N=%lld: lattice gate refused (unexpected)\n", static_cast<long long>(n));
      continue;
    }
    LatticeHypercubeMapping lm = map_to_hypercube(*gl, 3);
    auto t1 = std::chrono::steady_clock::now();
    double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    t.row(n, gl->line_count(), gl->group_count(), gl->group_size_r(), lm.processor_count, us,
          peak_rss_mib());
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("N=50000000 is ~1e8 projection lines; grouping and Algorithm 2 are\n"
              "O(slabs + deps) — time and memory do not grow with N.\n");
}

void report() {
  bench::banner("Symbolic IterSpace scaling (dense parity, then past the ceiling)");
  verify_agreement();
  symbolic_sweep();
  triangular_verify();
  triangular_sweep();
  closure_sweep();
  closed_form_sweep();
  grouping_mapping_sweep();
}

void bm_dense_pipeline(benchmark::State& state) {
  PipelineConfig cfg = base_config();
  LoopNest nest = workloads::sor2d(state.range(0), state.range(0));
  for (auto _ : state) {
    PipelineResult r = run_pipeline(nest, cfg);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_dense_pipeline)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity()->Unit(benchmark::kMillisecond);

void bm_symbolic_pipeline(benchmark::State& state) {
  PipelineConfig cfg = base_config();
  cfg.space_mode = SpaceMode::Symbolic;
  LoopNest nest = workloads::sor2d(state.range(0), state.range(0));
  for (auto _ : state) {
    PipelineResult r = run_pipeline(nest, cfg);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_symbolic_pipeline)->Arg(32)->Arg(256)->Arg(4096)->Arg(65536)
    ->Complexity()->Unit(benchmark::kMillisecond);

void bm_symbolic_triangular(benchmark::State& state) {
  PipelineConfig cfg = base_config();
  cfg.space_mode = SpaceMode::Symbolic;
  LoopNest nest = workloads::triangular_matvec(state.range(0));
  for (auto _ : state) {
    PipelineResult r = run_pipeline(nest, cfg);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_symbolic_triangular)->Arg(32)->Arg(256)->Arg(4096)->Arg(65536)
    ->Complexity()->Unit(benchmark::kMillisecond);

// Grouping + mapping alone: the stages the group lattice turns into
// closed forms.  Dense-comparable sizes and far beyond — complexity is
// O(slabs + deps), so the timings should be flat in N.
void bm_lattice_group_map(benchmark::State& state) {
  IterSpace space = IterSpace::from_nest(workloads::sor2d(state.range(0), state.range(0)));
  TimeFunction tf;
  tf.pi = IntVec{1, 1};
  for (auto _ : state) {
    std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
    LatticeHypercubeMapping lm = map_to_hypercube(*gl, 3);
    benchmark::DoNotOptimize(lm);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_lattice_group_map)->Arg(256)->Arg(65536)->Arg(1 << 24)->Arg(50'000'000)
    ->Complexity()->Unit(benchmark::kMicrosecond);

}  // namespace

HYPART_BENCH_MAIN(report)

// plan-symbolic: one thread, closed loop.  Each operation parses a `.loop`
// text and plans it with run_pipeline under SpaceMode::Symbolic, a searched
// Π, validation on and a 3-cube.  The seed rotates over six nests (sor2d
// twice per cycle of seven, see kCycle), drawing each N near its centre:
//   - sor2d and strided_recurrence (s = 3) at N ~ 2^16: the lattice sweep
//     and the lattice simulator dominate;
//   - triangular_matvec and pyramid_stencil at N ~ 2^16: affine bounds, so
//     the O(slabs) IterSpace, Π search and lattice build dominate;
//   - wavefront3d at N ~ 160: the 3-D plane layout of the lattice;
//   - strided_recurrence3d (s = 2) at N ~ 48: the only traffic on the
//     line-based fallback (the lattice refuses it as plane-multi-coset).
// Bypassed: dense points, the threaded runtime and the plan service.
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "frontend/parser.hpp"
#include "partition/group_lattice.hpp"
#include "partition/symbolic.hpp"
#include "schedule/hyperplane.hpp"
#include "topology/topology.hpp"

namespace perfbench {
namespace {

using namespace hypart;

struct NestClass {
  const char* name;
  std::int64_t centre;
  std::int64_t step;
};

// N = centre + step * u for u in [-kSpread, kSpread]: every (nest, N) an
// operation can draw has a pinned digest (pinned_digests.inc).
constexpr int kSpread = 4;
constexpr NestClass kClasses[] = {
    {"sor2d", 65536, 512},          {"strided_recurrence", 65536, 512},
    {"triangular_matvec", 65536, 512}, {"pyramid_stencil", 65536, 512},
    {"wavefront3d", 160, 2},        {"strided_recurrence3d", 48, 1},
};
constexpr int kClassCount = 6;
/// The rotation: every nest once and sor2d twice per seven operations.  With
/// six equal shares the median would sit exactly on the edge between the
/// third and fourth fastest nests and jump between them from run to run;
/// with seven slots it falls inside one nest's band.
constexpr int kCycle[] = {0, 1, 2, 3, 4, 5, 0};

std::string nest_text(int cls, std::int64_t n) {
  std::string N = std::to_string(n);
  switch (cls) {
    case 0:
      return "loop sor2d {\n  for i = 1 to " + N + "\n  for j = 1 to " + N +
             "\n  A[i, j] = (A[i-1, j] + A[i, j-1]) * 0.5 + 0.125;\n}\n";
    case 1:
      return "loop strided {\n  for i = 0 to " + N + "\n  for j = 0 to " + N +
             "\n  A[i, j] = A[i-3, j] + A[i, j-3];\n}\n";
    case 2:
      return "loop trimv {\n  for i = 1 to " + N +
             "\n  for j = 1 to i - 1\n  y[i] = y[i] + L[i, j] * b[j];\n}\n";
    case 3:
      return "loop pyramid {\n  for i = 0 to " + N + "\n  for j = 0 to min(i, " + N +
             " - i)\n  A[i, j] = (A[i-1, j] + A[i, j-1]) / 2;\n}\n";
    case 4:
      return "loop wave3d {\n  for i = 1 to " + N + "\n  for j = 1 to " + N + "\n  for k = 1 to " +
             N + "\n  A[i, j, k] = (A[i-1, j, k] + A[i, j-1, k] + A[i, j, k-1]) / 3;\n}\n";
    default:
      return "loop strided3d {\n  for i = 0 to " + N + "\n  for j = 0 to " + N +
             "\n  for k = 0 to " + N +
             "\n  A[i, j, k] = A[i-2, j, k] + A[i, j-2, k] + A[i, j, k-2];\n}\n";
  }
}

/// Iteration count computed from the bounds, independently of the library.
std::int64_t expected_iterations(int cls, std::int64_t n) {
  switch (cls) {
    case 0: return n * n;
    case 1: return (n + 1) * (n + 1);
    case 2: return n * (n - 1) / 2;
    case 3: {
      std::int64_t c = 0;
      for (std::int64_t i = 0; i <= n; ++i) c += std::min(i, n - i) + 1;
      return c;
    }
    case 4: return n * n * n;
    default: return (n + 1) * (n + 1) * (n + 1);
  }
}

struct Digest {
  const char* nest;
  std::int64_t n, iterations, calc, start, comm, steps, messages, blocks, interblock;
  bool operator==(const Digest& o) const {
    return n == o.n && iterations == o.iterations && calc == o.calc && start == o.start &&
           comm == o.comm && steps == o.steps && messages == o.messages && blocks == o.blocks &&
           interblock == o.interblock;
  }
};

constexpr Digest kPinned[] = {
#include "pinned_digests.inc"
};

Digest digest_of(int cls, std::int64_t n, const PipelineResult& r) {
  std::int64_t blocks = r.lattice_stats ? static_cast<std::int64_t>(r.lattice_stats->group_count)
                                        : static_cast<std::int64_t>(r.block_sizes.size());
  return {kClasses[cls].name,
          n,
          static_cast<std::int64_t>(r.iteration_count()),
          r.sim.total.calc,
          r.sim.total.start,
          r.sim.total.comm,
          r.sim.steps,
          r.sim.messages,
          blocks,
          static_cast<std::int64_t>(r.stats.interblock_arcs)};
}

std::string describe(const Digest& d) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld},",
                d.nest, static_cast<long long>(d.n), static_cast<long long>(d.iterations),
                static_cast<long long>(d.calc), static_cast<long long>(d.start),
                static_cast<long long>(d.comm), static_cast<long long>(d.steps),
                static_cast<long long>(d.messages), static_cast<long long>(d.blocks),
                static_cast<long long>(d.interblock));
  return buf;
}

PipelineConfig plan_config(SpaceMode mode) {
  PipelineConfig cfg;
  cfg.space_mode = mode;
  cfg.cube_dim = 3;
  cfg.validate = true;
  return cfg;
}

struct Op {
  int cls;
  std::int64_t n;
  std::string text;
};

std::vector<Op> make_ops(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    int cls = kCycle[(k + seed) % std::size(kCycle)];
    std::int64_t n = kClasses[cls].centre + kClasses[cls].step * rng.range(-kSpread, kSpread);
    ops.push_back({cls, n, nest_text(cls, n)});
  }
  return ops;
}

/// Every output check of one operation; returns "" when all hold.
std::string check(const Op& op, const PipelineResult& r) {
  std::string where = std::string(kClasses[op.cls].name) + " N=" + std::to_string(op.n) + ": ";
  std::int64_t expect = expected_iterations(op.cls, op.n);
  if (static_cast<std::int64_t>(r.iteration_count()) != expect)
    return where + "iteration count " + std::to_string(r.iteration_count()) + " != " +
           std::to_string(expect);
  std::int64_t per_proc = 0;
  for (std::int64_t c : r.sim.per_proc_iterations) per_proc += c;
  if (per_proc != expect) return where + "per-processor iterations do not sum to the count";
  if (!r.exact_cover || !r.theorem1) return where + "exact_cover/theorem1 false";
  Digest got = digest_of(op.cls, op.n, r);
  for (const Digest& d : kPinned)
    if (std::string(d.nest) == kClasses[op.cls].name && d.n == op.n)
      return d == got ? "" : where + "digest " + describe(got) + " != pinned " + describe(d);
  return where + "no pinned digest";
}

/// The traced operation: the stages of run_pipeline's symbolic path, each
/// called through its module's public function inside its own span.
/// Returns the composed digest so it can be checked against run_pipeline.
Digest traced_stages(const Op& op, Tracer& tr, Outcome& out, std::int64_t& fallbacks) {
  PipelineConfig cfg = plan_config(SpaceMode::Symbolic);
  std::optional<LoopNest> nest;
  {
    Scope s(&tr, "frontend.parse");
    nest.emplace(parse_loop_nest(op.text));
  }
  DependenceInfo dep;
  {
    Scope s(&tr, "loop.dependence");
    dep = analyze_dependences(*nest, cfg.dependence);
  }
  std::optional<IterSpace> space;
  {
    Scope s(&tr, "loop.iter_space");
    space.emplace(*nest, dep.distance_vectors());
  }
  out.per_layer["loop.slabs"].value += static_cast<double>(space->slab_count());
  std::optional<TimeFunction> tf;
  {
    Scope s(&tr, "schedule.pi_search");
    tf = search_time_function(*space, cfg.tf_search);
  }
  if (!tf) throw std::runtime_error("no time function");
  std::optional<GroupLattice> lattice;
  {
    Scope s(&tr, "partition.lattice_build");
    lattice = GroupLattice::build(*space, *tf, cfg.grouping);
  }
  Hypercube cube(cfg.cube_dim);
  SimOptions sim_opts = cfg.sim;
  sim_opts.flops_per_iteration = nest->body_flops();
  SimResult sim;
  PartitionStats stats;
  std::int64_t blocks = 0;
  bool cover = false, th1 = false;
  if (lattice) {
    LatticeSweepResult sweep;
    {
      Scope s(&tr, "partition.sweep");
      sweep = lattice->sweep(cfg.validate);
    }
    out.per_layer["partition.lines"].value += static_cast<double>(lattice->line_count());
    std::optional<LatticeHypercubeMapping> mapping;
    {
      Scope s(&tr, "mapping.map");
      mapping = map_to_hypercube(*lattice, cfg.cube_dim, cfg.mapping);
    }
    {
      Scope s(&tr, "sim.lattice");
      sim = simulate_execution(*lattice, *mapping, cube, cfg.machine, sim_opts);
    }
    stats = sweep.partition;
    blocks = static_cast<std::int64_t>(sweep.stats.group_count);
    cover = sweep.exact_cover;
    th1 = sweep.theorem1;
  } else {
    ++fallbacks;
    std::optional<ProjectedStructure> projected;
    Grouping grouping;
    {
      Scope s(&tr, "partition.line_grouping");
      projected.emplace(*space, *tf);
      grouping = Grouping::compute(*projected, cfg.grouping);
      blocks = static_cast<std::int64_t>(symbolic_block_sizes(grouping).size());
      stats = compute_partition_stats(*space, grouping);
    }
    out.per_layer["partition.lines"].value += static_cast<double>(projected->point_count());
    HypercubeMappingResult mapping;
    {
      Scope s(&tr, "mapping.map");
      TaskInteractionGraph tig = TaskInteractionGraph::from_symbolic(*space, grouping);
      mapping = map_to_hypercube(tig, cfg.cube_dim, cfg.mapping);
    }
    {
      Scope s(&tr, "sim.line");
      sim = simulate_execution(*space, grouping, mapping.mapping, cube, cfg.machine, sim_opts);
    }
    {
      Scope s(&tr, "partition.validate");
      cover = check_exact_cover(*space, grouping);
      th1 = check_theorem1(*space, grouping);
      (void)check_theorem2(grouping);
      (void)check_lemmas(grouping);
    }
  }
  if (!cover || !th1) fail(out, std::string(kClasses[op.cls].name) + ": traced stages: checks false");
  return {kClasses[op.cls].name, op.n, static_cast<std::int64_t>(space->size()),
          sim.total.calc, sim.total.start, sim.total.comm, sim.steps, sim.messages,
          blocks, static_cast<std::int64_t>(stats.interblock_arcs)};
}

/// Set-up as a user pays it before the first timed plan: inputs generated,
/// then one warm-up plan per nest class at its largest N (first-touch
/// pages, lazy statics; the heap reaches its working size here, so the
/// peak RSS does not depend on the order the seed draws sizes in).
std::vector<Op> setup(std::uint64_t seed) {
  std::vector<Op> ops = make_ops(seed, 4096);
  for (int cls = 0; cls < kClassCount; ++cls) {
    LoopNest nest = parse_loop_nest(nest_text(cls, kClasses[cls].centre + kClasses[cls].step * kSpread));
    (void)run_pipeline(nest, plan_config(SpaceMode::Symbolic));
  }
  return ops;
}

}  // namespace

int pin_digests_main() {
  for (int cls = 0; cls < kClassCount; ++cls)
    for (int u = -kSpread; u <= kSpread; ++u) {
      std::int64_t n = kClasses[cls].centre + kClasses[cls].step * u;
      PipelineResult r = run_pipeline(parse_loop_nest(nest_text(cls, n)),
                                      plan_config(SpaceMode::Symbolic));
      std::printf("%s\n", describe(digest_of(cls, n, r)).c_str());
    }
  return 0;
}

Outcome run_plan_symbolic(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  std::vector<Op> ops;
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = now_us();
    ops = setup(args.seed);
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  out.end_to_end["setup_s"] = {median(setup_s), "s", static_cast<std::int64_t>(setup_s.size())};

  Tracer tracer;
  std::int64_t fallbacks = 0;
  std::vector<double> op_us, traced_us, pipeline_us, parse_us;
  double start = now_us();
  double deadline = start + args.seconds * 1e6;
  std::size_t k = 0;
  while (now_us() < deadline) {
    const Op& op = ops[k++ % ops.size()];
    ++out.attempted;
    const std::int64_t failed_before = out.failed;
    try {
      double t0 = now_us();
      std::optional<LoopNest> nest(parse_loop_nest(op.text));
      double t1 = now_us();
      std::optional<PipelineResult> r(run_pipeline(*nest, plan_config(SpaceMode::Symbolic)));
      double t2 = now_us();
      op_us.push_back(t2 - t0);
      if (std::string why = check(op, *r); !why.empty()) fail(out, why);
      Digest planned = digest_of(op.cls, op.n, *r);
      // The traced stages run on a heap free of this plan's result.
      r.reset();
      nest.reset();
      if (args.trace) {
        parse_us.push_back(t1 - t0);
        pipeline_us.push_back(t2 - t1);
        double t3 = now_us();
        Digest composed;
        {
          Scope s(&tracer, "op");
          composed = traced_stages(op, tracer, out, fallbacks);
        }
        traced_us.push_back(now_us() - t3);
        if (!(composed == planned))
          fail(out, std::string(kClasses[op.cls].name) + ": traced stages disagree with run_pipeline");
      }
    } catch (const std::exception& e) {
      fail(out, std::string(kClasses[op.cls].name) + " N=" + std::to_string(op.n) + ": " + e.what());
    }
    out.failed = std::min(out.failed, failed_before + 1);  // one failed operation, however many checks
  }
  double measured_s = (now_us() - start) / 1e6;

  // Cross-check one small instance of each nest class under Verify (dense
  // re-derivation of every symbolic stage), outside the timed region.
  for (int cls = 0; cls < kClassCount; ++cls) {
    std::int64_t n = cls >= 4 ? 8 : 24;
    ++out.attempted;
    try {
      LoopNest nest = parse_loop_nest(nest_text(cls, n));
      PipelineResult v = run_pipeline(nest, plan_config(SpaceMode::Verify));
      PipelineResult s = run_pipeline(nest, plan_config(SpaceMode::Symbolic));
      if (!(digest_of(cls, n, v) == digest_of(cls, n, s)))
        fail(out, std::string(kClasses[cls].name) + ": verify and symbolic disagree at N=" +
                      std::to_string(n));
    } catch (const std::exception& e) {
      fail(out, std::string(kClasses[cls].name) + ": verify: " + e.what());
    }
  }

  if (args.trace) {
    // Untraced and traced timings come from the same operations, so the
    // run's own mix cancels out of the ratio.
    auto ops_done = static_cast<std::int64_t>(traced_us.size());
    add_layer_metrics(out, tracer);
    double stage_sum = 0.0;
    for (const auto& [name, layer] : tracer.layers())
      if (name != "op" && name != "frontend.parse") stage_sum += layer.self_us;
    double n = static_cast<double>(std::max<std::int64_t>(ops_done, 1));
    out.per_layer["pipeline.overhead_us"] = {mean(pipeline_us) - stage_sum / n, "us", ops_done};
    out.per_layer["loop.slabs"] = {out.per_layer["loop.slabs"].value / n, "count", 0};
    out.per_layer["partition.lines"] = {out.per_layer["partition.lines"].value / n, "count", 0};
    out.per_layer["partition.lattice_fallbacks"] = {static_cast<double>(fallbacks), "count", 0};
    out.per_layer["trace.overhead_ratio"] = {median(traced_us) / median(op_us), "ratio", ops_done};
    out.notes.push_back("accounting: mean op " + std::to_string(mean(op_us)) +
                        " us = parse " + std::to_string(mean(parse_us)) + " + run_pipeline " +
                        std::to_string(mean(pipeline_us)) + " (stage self times " +
                        std::to_string(stage_sum / n) + " + overhead)");
    std::int64_t strided3d = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(ops_done); ++i)
      strided3d += ops[i % ops.size()].cls == kClassCount - 1 ? 1 : 0;
    out.notes.push_back("lattice fallbacks " + std::to_string(fallbacks) + " of " +
                        std::to_string(ops_done) + " operations; strided_recurrence3d operations " +
                        std::to_string(strided3d));
    write_out(args, "plan-symbolic.trace.json", tracer.to_chrome_json());
  } else {
    add_latency_metrics(out, op_us, measured_s);
  }
  return out;
}

}  // namespace perfbench

// exec-dense: one client thread, closed loop.  Each operation parses a nest,
// plans it with run_pipeline under SpaceMode::Dense on a 2-cube, runs the
// mapped schedule on the threaded runtime (one worker per processor: 4, or
// fewer when the machine has fewer cores), runs it sequentially and
// compares the two array stores bit for bit.  The seed draws sor2d
// (N 64..96), matrix_multiplication (n 12..16), convolution1d and wave,
// sized so an operation takes roughly 10-60 ms.  Only this workload reaches
// materialized points, dense grouping, the dense simulator and the threaded
// runtime; it never reaches the group lattice or the plan service.
#include <algorithm>
#include <optional>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "exec/interpreter.hpp"
#include "exec/parallel_runtime.hpp"
#include "frontend/parser.hpp"
#include "loop/index_set.hpp"
#include "partition/blocks.hpp"
#include "partition/checkers.hpp"
#include "partition/grouping.hpp"
#include "partition/projection.hpp"
#include "schedule/hyperplane.hpp"
#include "topology/topology.hpp"

namespace perfbench {
namespace {

using namespace hypart;

struct Op {
  const char* nest;
  std::string text;
  std::int64_t iterations;
};

Op make_op(int cls, Rng& rng) {
  switch (cls) {
    case 0: {
      std::string n = std::to_string(rng.range(64, 96));
      std::int64_t v = std::stoll(n);
      return {"sor2d",
              "loop sor2d {\n  for i = 1 to " + n + "\n  for j = 1 to " + n +
                  "\n  A[i, j] = (A[i-1, j] + A[i, j-1]) * 0.5 + 0.125;\n}\n",
              v * v};
    }
    case 1: {
      std::int64_t v = rng.range(12, 16);
      std::string n = std::to_string(v);
      return {"matrix_multiplication",
              "loop matmul {\n  for i = 0 to " + n + "\n  for j = 0 to " + n + "\n  for k = 0 to " +
                  n + "\n  S: C[i, j] = C[i, j] + A[i, k] * B[k, j];\n}\n",
              (v + 1) * (v + 1) * (v + 1)};
    }
    case 2: {
      std::int64_t n = rng.range(96, 128), k = rng.range(32, 48);
      return {"convolution1d",
              "loop conv1d {\n  for i = 0 to " + std::to_string(n - 1) + "\n  for j = 0 to " +
                  std::to_string(k - 1) + "\n  y[i] = y[i] + x[i - j] * h[j];\n}\n",
              n * k};
    }
    default: {
      std::int64_t t = rng.range(31, 47), x = rng.range(62, 94);
      return {"wave",
              "loop wave {\n  for t = 0 to " + std::to_string(t) + "\n  for x = 1 to " +
                  std::to_string(x) + "\n  A[t+1, x] = (A[t, x-1] + A[t, x] + A[t, x+1]) / 3;\n}\n",
              (t + 1) * x};
    }
  }
}

/// 2^cube_dim processors, one worker thread each: 4, never more than nproc.
unsigned cube_dim() {
  unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return cores >= 4 ? 2 : cores >= 2 ? 1 : 0;
}

PipelineConfig dense_config() {
  PipelineConfig cfg;
  cfg.space_mode = SpaceMode::Dense;
  cfg.cube_dim = cube_dim();
  cfg.validate = true;
  return cfg;
}

struct Timings {
  double op_us = 0.0;
  double pipeline_us = 0.0;
  double run_us = 0.0;
};

/// One operation as a user runs it; the output checks feed `out`.
Timings run_plain(const Op& op, Outcome& out) {
  Timings t;
  double t0 = now_us();
  LoopNest nest = parse_loop_nest(op.text);
  double t1 = now_us();
  PipelineResult r = run_pipeline(nest, dense_config());
  double t2 = now_us();
  ParallelRunResult par = run_parallel(nest, *r.structure, r.time_function, r.partition,
                                       r.mapping.mapping, r.dependence, ParallelRunOptions{});
  double t3 = now_us();
  ArrayStore seq = run_sequential(nest);
  EquivalenceReport eq = compare_stores(seq, par.written, 0.0);
  double t4 = now_us();
  t.op_us = t4 - t0;
  t.pipeline_us = t2 - t1;
  t.run_us = t3 - t2;

  if (!eq.equal)
    fail(out, std::string(op.nest) + ": parallel run differs from sequential: " + eq.first_mismatch);
  else if (static_cast<std::int64_t>(r.iteration_count()) != op.iterations)
    fail(out, std::string(op.nest) + ": iteration count " + std::to_string(r.iteration_count()) +
                  " != " + std::to_string(op.iterations));
  else if (!r.exact_cover || !r.theorem1)
    fail(out, std::string(op.nest) + ": exact_cover/theorem1 false");
  return t;
}

/// The traced operation: the dense-path stages of run_pipeline, each called
/// through its module's public function inside its own span, then the
/// runtime calls (run_parallel with its phase clocks on).  Returns its wall
/// time in microseconds.
double run_traced(const Op& op, Outcome& out, Tracer& tr) {
  PipelineConfig cfg = dense_config();
  double t0 = now_us();
  Scope s(&tr, "op");
  std::optional<LoopNest> nest;
  {
    Scope p(&tr, "frontend.parse");
    nest.emplace(parse_loop_nest(op.text));
  }
  DependenceInfo dep;
  {
    Scope p(&tr, "loop.dependence");
    dep = analyze_dependences(*nest, cfg.dependence);
  }
  std::optional<ComputationStructure> q;
  {
    Scope p(&tr, "loop.iter_space");
    IndexSet is(*nest);
    q.emplace(is.points(), dep.distance_vectors());
  }
  std::optional<TimeFunction> tf;
  {
    Scope p(&tr, "schedule.pi_search");
    tf = search_time_function(*q, cfg.tf_search);
  }
  if (!tf) throw std::runtime_error("no time function");
  std::optional<ProjectedStructure> projected;
  Grouping grouping;
  Partition part;
  {
    Scope p(&tr, "partition.dense");
    projected.emplace(*q, *tf);
    grouping = Grouping::compute(*projected, cfg.grouping);
    part = Partition::build(*q, grouping);
    (void)compute_partition_stats(*q, part);
  }
  HypercubeMappingResult mapping;
  {
    Scope p(&tr, "mapping.map");
    TaskInteractionGraph tig = TaskInteractionGraph::from_partition(*q, part, grouping);
    mapping = map_to_hypercube(tig, cfg.cube_dim, cfg.mapping);
  }
  {
    Scope p(&tr, "sim.dense");
    Hypercube cube(cfg.cube_dim);
    SimOptions sim_opts = cfg.sim;
    sim_opts.flops_per_iteration = nest->body_flops();
    (void)simulate_execution(*q, *tf, part, mapping.mapping, cube, cfg.machine, sim_opts);
  }
  {
    Scope p(&tr, "partition.validate");
    if (!check_exact_cover(*q, part) || !check_theorem1(*q, *tf, part))
      fail(out, std::string(op.nest) + ": traced stages: checks false");
    (void)check_theorem2(grouping);
    (void)check_lemmas(grouping);
  }
  ParallelRunOptions popts;
  popts.measure_phases = true;
  std::optional<ParallelRunResult> par;
  {
    Scope p(&tr, "exec.threads");
    par.emplace(run_parallel(*nest, *q, *tf, part, mapping.mapping, dep, popts));
  }
  std::optional<ArrayStore> seq;
  {
    Scope p(&tr, "exec.sequential");
    seq.emplace(run_sequential(*nest));
  }
  EquivalenceReport eq;
  {
    Scope p(&tr, "exec.compare");
    eq = compare_stores(*seq, par->written, 0.0);
  }
  if (!eq.equal) fail(out, std::string(op.nest) + ": traced parallel run differs from sequential");

  const ParallelRunStats& st = par->stats;
  double wait = 0.0, busy = 0.0;
  for (std::size_t w = 0; w < st.per_proc_wait_us.size(); ++w) {
    wait += st.per_proc_wait_us[w];
    busy += st.per_proc_wait_us[w] + st.per_proc_compute_us[w] + st.per_proc_send_us[w];
  }
  out.per_layer["exec.wait_share"].value += busy > 0.0 ? wait / busy : 0.0;
  out.per_layer["exec.messages"].value += static_cast<double>(st.messages_sent);
  out.per_layer["exec.max_mailbox_depth"].value += static_cast<double>(st.max_mailbox_depth);
  return now_us() - t0;
}

std::vector<Op> make_ops(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t k = 0; k < count; ++k) ops.push_back(make_op(static_cast<int>((k + seed) % 4), rng));
  return ops;
}

}  // namespace

Outcome run_exec_dense(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  std::vector<Op> ops;
  for (int rep = 0; rep < 9; ++rep) {
    double t0 = now_us();
    ops = make_ops(args.seed, 2048);
    // Warm-up: one operation per nest class (thread start-up paths, lazy
    // statics, first-touch pages), as a user pays it once.
    Outcome scratch;
    for (std::size_t k = 0; k < 4; ++k) (void)run_plain(ops[k], scratch);
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  out.end_to_end["setup_s"] = {median(setup_s), "s", static_cast<std::int64_t>(setup_s.size())};

  Tracer tracer;
  std::vector<double> op_us, run_us, pipeline_us, traced_us;
  double start = now_us();
  double deadline = start + args.seconds * 1e6;
  std::size_t k = 0;
  while (now_us() < deadline) {
    const Op& op = ops[k++ % ops.size()];
    ++out.attempted;
    const std::int64_t failed_before = out.failed;
    try {
      Timings t = run_plain(op, out);
      op_us.push_back(t.op_us);
      run_us.push_back(t.run_us);
      pipeline_us.push_back(t.pipeline_us);
      if (args.trace) traced_us.push_back(run_traced(op, out, tracer));
    } catch (const std::exception& e) {
      fail(out, std::string(op.nest) + ": " + e.what());
    }
    out.failed = std::min(out.failed, failed_before + 1);  // one failed operation, however many checks
  }
  double measured_s = (now_us() - start) / 1e6;
  auto n = static_cast<std::int64_t>(op_us.size());

  out.extra["run_ms_p50"] = {median(run_us) / 1000.0, "ms", n};
  out.notes.push_back("runtime threads: " + std::to_string(1u << cube_dim()));
  if (args.trace) {
    add_layer_metrics(out, tracer);
    double stage_sum = 0.0;
    for (const auto& [name, layer] : tracer.layers())
      if (name != "op" && name != "frontend.parse" && name.rfind("exec.", 0) != 0)
        stage_sum += layer.self_us;
    double ops_done = static_cast<double>(std::max<std::int64_t>(n, 1));
    out.per_layer["pipeline.overhead_us"] = {mean(pipeline_us) - stage_sum / ops_done, "us", n};
    out.per_layer["exec.wait_share"] = {out.per_layer["exec.wait_share"].value / ops_done, "ratio", n};
    out.per_layer["exec.messages"] = {out.per_layer["exec.messages"].value / ops_done, "count", 0};
    out.per_layer["exec.max_mailbox_depth"] = {
        out.per_layer["exec.max_mailbox_depth"].value / ops_done, "count", 0};
    out.per_layer["trace.overhead_ratio"] = {median(traced_us) / median(op_us), "ratio", n};
    double layers_sum = 0.0;
    for (const auto& [name, layer] : tracer.layers())
      if (name != "op") layers_sum += layer.self_us;
    out.notes.push_back("accounting: mean op " + std::to_string(mean(op_us)) +
                        " us; traced layer self times " + std::to_string(layers_sum / ops_done) +
                        " us + pipeline overhead " +
                        std::to_string(mean(pipeline_us) - stage_sum / ops_done) + " us");
    write_out(args, "exec-dense.trace.json", tracer.to_chrome_json());
  } else {
    add_latency_metrics(out, op_us, measured_s);
  }
  return out;
}

}  // namespace perfbench

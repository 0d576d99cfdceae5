#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "codegen/spmd.hpp"
#include "core/error.hpp"
#include "exec/interpreter.hpp"
#include "frontend/parser.hpp"
#include "transform/wavefront.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

TEST(Pipeline, L1EndToEnd) {
  PipelineConfig cfg;
  cfg.cube_dim = 1;
  PipelineResult r = run_pipeline(workloads::example_l1(), cfg);
  EXPECT_EQ(r.time_function.pi, (IntVec{1, 1}));
  EXPECT_EQ(r.projected->point_count(), 7u);
  EXPECT_EQ(r.grouping.group_count(), 4u);
  EXPECT_EQ(r.stats.total_arcs, 33u);
  EXPECT_EQ(r.stats.interblock_arcs, 12u);
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem1);
  EXPECT_TRUE(r.theorem2.holds);
  EXPECT_TRUE(r.lemmas.lemma2_holds);
  EXPECT_TRUE(r.lemmas.lemma3_holds);
  EXPECT_GT(r.sim.time, 0.0);
}

TEST(Pipeline, Int64OverflowIsATypedError) {
  // 9e18 iterations × 2 flops wraps int64; the symbolic plan must refuse
  // with ErrorKind::Overflow (exit 80) instead of a negative cost or span.
  LoopNest big = parse_loop_nest(
      "loop big { for i = 1 to 9000000000000000000 A[i] = A[i-1] * 2.0 + 1.0; }");
  PipelineConfig cfg;
  cfg.space_mode = SpaceMode::Symbolic;
  cfg.cube_dim = 0;
  try {
    (void)run_pipeline(big, cfg);
    FAIL() << "expected OverflowError";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Overflow);
    EXPECT_EQ(e.exit_code(), 80);
  }
  // Π = (2) would wrap the span; it is skipped, not chosen.
  cfg.time_function = IntVec{2};
  EXPECT_THROW((void)run_pipeline(big, cfg), OverflowError);
  // At 4e18 every quantity fits and is exact.
  LoopNest fits = parse_loop_nest(
      "loop big { for i = 1 to 4000000000000000000 A[i] = A[i-1] * 2.0 + 1.0; }");
  cfg.time_function.reset();
  PipelineResult r = run_pipeline(fits, cfg);
  EXPECT_EQ(r.time_function.pi, IntVec{1});
  EXPECT_EQ(r.sim.steps, 4'000'000'000'000'000'000);
  EXPECT_EQ(r.sim.total.calc, 8'000'000'000'000'000'000);
}

TEST(Pipeline, ExplicitTimeFunction) {
  PipelineConfig cfg;
  cfg.time_function = IntVec{2, 1};
  cfg.cube_dim = 1;
  PipelineResult r = run_pipeline(workloads::example_l1(), cfg);
  EXPECT_EQ(r.time_function.pi, (IntVec{2, 1}));
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem1);
}

TEST(Pipeline, InvalidExplicitTimeFunctionThrows) {
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 0};  // Π·(0,1) = 0
  try {
    run_pipeline(workloads::example_l1(), cfg);
    FAIL() << "expected hypart::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Config);
    EXPECT_EQ(e.exit_code(), 78);
  }
}

TEST(Pipeline, SearchBoxTooSmallThrows) {
  PipelineConfig cfg;
  cfg.tf_search.max_coefficient = 0;
  try {
    run_pipeline(workloads::example_l1(), cfg);
    FAIL() << "expected hypart::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Unsatisfiable);
    EXPECT_EQ(e.exit_code(), 69);
  }
}

TEST(Pipeline, MatvecFlopsDefaultFromBody) {
  PipelineConfig cfg;
  cfg.cube_dim = 2;
  cfg.time_function = IntVec{1, 1};
  PipelineResult r = run_pipeline(workloads::matrix_vector(16), cfg);
  // 2 flops per iteration (multiply + add): compute bottleneck is even.
  EXPECT_EQ(r.sim.compute_bottleneck.calc % 2, 0);
  EXPECT_GT(r.sim.compute_bottleneck.calc, 0);
}

TEST(Pipeline, FlopsOverride) {
  PipelineConfig cfg;
  cfg.cube_dim = 0;
  cfg.time_function = IntVec{1, 1};
  cfg.flops_override = 10;
  PipelineResult r = run_pipeline(workloads::matrix_vector(4), cfg);
  EXPECT_EQ(r.sim.compute_bottleneck.calc, 160);  // 16 iterations * 10
}

TEST(Pipeline, ValidateCanBeDisabled) {
  PipelineConfig cfg;
  cfg.validate = false;
  cfg.cube_dim = 1;
  PipelineResult r = run_pipeline(workloads::example_l1(), cfg);
  EXPECT_FALSE(r.exact_cover);  // untouched defaults
}

TEST(Pipeline, SummaryMentionsKeyNumbers) {
  PipelineConfig cfg;
  cfg.cube_dim = 1;
  PipelineResult r = run_pipeline(workloads::example_l1(), cfg);
  std::string s = r.summary();
  EXPECT_NE(s.find("iterations=16"), std::string::npos);
  EXPECT_NE(s.find("Pi=(1, 1)"), std::string::npos);
  EXPECT_NE(s.find("groups=4"), std::string::npos);
}

TEST(Pipeline, MatmulEndToEnd) {
  PipelineConfig cfg;
  cfg.cube_dim = 2;
  cfg.time_function = IntVec{1, 1, 1};
  PipelineResult r = run_pipeline(workloads::matrix_multiplication(3), cfg);
  EXPECT_EQ(r.projected->point_count(), 37u);
  EXPECT_EQ(r.grouping.group_size_r(), 3);
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem1);
  EXPECT_TRUE(r.theorem2.holds);
  EXPECT_EQ(r.mapping.mapping.processor_count, 4u);
}

TEST(Pipeline, GroupingOptionsForwarded) {
  PipelineConfig cfg;
  cfg.cube_dim = 1;
  cfg.time_function = IntVec{1, 1};
  cfg.grouping.seed_policy = SeedPolicy::ExplicitBases;
  cfg.grouping.explicit_bases = {{1, -1}};  // start the region growing here
  PipelineResult r = run_pipeline(workloads::example_l1(), cfg);
  EXPECT_TRUE(r.exact_cover);
  EXPECT_EQ(r.grouping.group_count(), 4u);
}

TEST(Pipeline, ParsedProgramEndToEnd) {
  // The full pipeline on a textual program, including the wavefront
  // transform and SPMD codegen stages.
  LoopNest wave = parse_loop_nest(R"(
    loop wave {
      for t = 0 to 7
      for x = 1 to 14
      A[t+1, x] = (A[t, x-1] + A[t, x] + A[t, x+1]) / 3;
    }
  )");
  PipelineConfig cfg;
  cfg.cube_dim = 2;
  PipelineResult r = run_pipeline(wave, cfg);
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem1);
  EXPECT_TRUE(r.theorem2.holds);

  // Wavefront transform of the found Π.
  WavefrontTransform wt = make_wavefront_transform(r.time_function);
  EXPECT_EQ(wt.u.row(0), r.time_function.pi);
  auto slices = wavefront_slices(wt, *r.structure);
  std::size_t total = 0;
  for (const auto& [step, pts] : slices) total += pts.size();
  EXPECT_EQ(total, r.structure->vertices().size());

  // SPMD program mentions the parsed statement.
  std::string prog = generate_spmd_program(wave, *r.structure, r.time_function, r.partition,
                                           r.mapping.mapping, r.dependence);
  EXPECT_NE(prog.find("A[t+1, x]"), std::string::npos);

  // And it runs correctly.
  ArrayStore seq = run_sequential(wave);
  DistributedResult dist = run_distributed(wave, *r.structure, r.time_function, r.partition,
                                           r.mapping.mapping, r.dependence);
  EXPECT_TRUE(compare_stores(seq, dist.written).equal);
}

TEST(Pipeline, DeeperWorkloadsRun) {
  PipelineConfig cfg;
  cfg.cube_dim = 3;
  for (const LoopNest& nest :
       {workloads::sor2d(6, 6), workloads::wavefront3d(4), workloads::convolution1d(8, 4)}) {
    PipelineResult r = run_pipeline(nest, cfg);
    EXPECT_TRUE(r.exact_cover) << nest.name();
    EXPECT_TRUE(r.theorem1) << nest.name();
    EXPECT_TRUE(r.theorem2.holds) << nest.name();
  }
}

}  // namespace
}  // namespace hypart

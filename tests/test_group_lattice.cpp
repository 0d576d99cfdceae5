// Property suite for the closed-form group lattice: every quantity the
// lattice derives symbolically (group count, population multiset, block
// statistics, per-offset TIG arc weights, Algorithm 2 cube assignment,
// theorem/lemma verdicts) must equal the dense Algorithm 1/2 pipeline on
// the same nest — over fixed paper workloads AND randomized rectangular,
// triangular, strided, 3-D, and disjunctive-bound nests.
#include "partition/group_lattice.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "frontend/parser.hpp"
#include "graph/comp_structure.hpp"
#include "loop/iter_space.hpp"
#include "mapping/hypercube_map.hpp"
#include "mapping/tig.hpp"
#include "partition/blocks.hpp"
#include "partition/projection.hpp"
#include "schedule/hyperplane.hpp"
#include "sim/exec_sim.hpp"
#include "workloads/workloads.hpp"

namespace hypart {

/// Test seam: rebuild the group frame of a chain lattice with an illegal
/// group size r, so groups hold lines that share steps.
struct GroupLatticeTestPeer {
  static GroupLattice with_group_size(GroupLattice gl, std::int64_t r) {
    gl.r_ = r;
    gl.group_count_ = 0;
    gl.a_min_ = std::numeric_limits<std::int64_t>::max();
    gl.a_max_ = std::numeric_limits<std::int64_t>::min();
    for (const auto& [tmin, tmax] : gl.comp_t_) {
      const std::int64_t a1 = floor_div(tmin, r);
      const std::int64_t a2 = floor_div(tmax, r);
      gl.a_min_ = std::min(gl.a_min_, a1);
      gl.a_max_ = std::max(gl.a_max_, a2);
      gl.group_count_ += static_cast<std::uint64_t>(a2 - a1 + 1);
    }
    return gl;
  }
  /// Forces the plane closed form's aux-chain period (0: derived).
  static GroupLattice with_b_period(GroupLattice gl, std::int64_t period) {
    gl.b_period_override_ = period;
    return gl;
  }
};

namespace {

using GroupKey = GroupLattice::GroupKey;
using GroupOffset = LatticeSweepResult::GroupOffset;

/// Run both pipelines on `nest` and compare every lattice-derived quantity
/// against its dense counterpart.  `pi` empty means "search".
void expect_lattice_matches_dense(const LoopNest& nest, const IntVec& pi_or_empty,
                                  unsigned cube_dim, bool weighted) {
  SCOPED_TRACE(nest.name() + " dim=" + std::to_string(cube_dim) +
               (weighted ? " weighted" : ""));

  // Dense side: materialized Algorithm 1 + 2.
  ComputationStructure q = ComputationStructure::from_loop(nest);
  TimeFunction tf{pi_or_empty};
  if (pi_or_empty.empty()) {
    std::optional<TimeFunction> searched = search_time_function(q);
    ASSERT_TRUE(searched.has_value());
    tf = *searched;
  }
  ProjectedStructure ps(q, tf);
  Grouping grouping = Grouping::compute(ps);
  Partition partition = Partition::build(q, grouping);
  PartitionStats stats = compute_partition_stats(q, partition);
  TaskInteractionGraph tig = TaskInteractionGraph::from_partition(q, partition, grouping);
  HypercubeMapOptions mopts;
  mopts.weighted = weighted;
  HypercubeMappingResult dense_map = map_to_hypercube(tig, cube_dim, mopts);

  // Symbolic side: the closed-form lattice.
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  std::string why;
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf, {}, &why);
  ASSERT_TRUE(gl.has_value()) << "lattice gate unexpectedly refused: " << why;

  // Frame quantities.
  EXPECT_EQ(gl->line_count(), ps.point_count());
  EXPECT_EQ(gl->group_count(), grouping.group_count());
  EXPECT_EQ(gl->group_size_r(), grouping.group_size_r());
  EXPECT_EQ(gl->beta(), grouping.beta());
  if (gl->layout() == LatticeLayout::Chain) {
    EXPECT_EQ(gl->sum_line_populations(gl->c_min(), gl->c_max()), space.size());
  }

  // Dense group id of each lattice key.  Non-degenerate groups carry their
  // lattice coordinates plus (chain layout) the region-growing component;
  // degenerate group ids follow the lex point order, which is exactly the
  // lattice's sorted index.
  const std::uint64_t ngroups = gl->group_count();
  auto dense_key = [&](std::size_t i) -> GroupKey {
    const IntVec& lat = grouping.groups()[i].lattice;
    if (gl->layout() == LatticeLayout::Plane) return {lat.at(0), lat.at(1), 0};
    return {lat.at(0), 0, static_cast<std::int64_t>(grouping.groups()[i].component)};
  };
  std::vector<std::size_t> gid(ngroups);
  if (gl->degenerate()) {
    std::iota(gid.begin(), gid.end(), std::size_t{0});
  } else {
    std::map<GroupKey, std::size_t> by_key;
    for (std::size_t i = 0; i < grouping.group_count(); ++i)
      ASSERT_TRUE(by_key.emplace(dense_key(i), i).second);
    for (std::uint64_t k = 0; k < ngroups; ++k) {
      auto it = by_key.find(gl->group_at_sorted_index(k));
      ASSERT_NE(it, by_key.end()) << "lattice key with no dense group";
      gid[k] = it->second;
    }
  }

  // Per-group populations (== dense block sizes, matched by key).
  for (std::uint64_t k = 0; k < ngroups; ++k) {
    GroupKey g = gl->group_at_sorted_index(k);
    EXPECT_EQ(gl->sorted_index_of_group(g), k);
    ASSERT_EQ(partition.blocks()[gid[k]].group_id, gid[k]);
    EXPECT_EQ(gl->group_population(g),
              static_cast<std::int64_t>(partition.blocks()[gid[k]].iterations.size()))
        << "group (" << g.a << "," << g.b << "," << g.comp << ")";
    EXPECT_EQ(gl->group_lattice_coord(g), grouping.groups()[gid[k]].lattice);
  }

  // One sweep: block stats, arc totals, verdicts.
  LatticeSweepResult sw = gl->sweep(true);
  EXPECT_EQ(sw.stats.group_count, ngroups);
  EXPECT_EQ(sw.stats.total_iterations, space.size());
  EXPECT_EQ(sw.stats.min_block, static_cast<std::int64_t>(partition.min_block_size()));
  EXPECT_EQ(sw.stats.max_block, static_cast<std::int64_t>(partition.max_block_size()));
  EXPECT_EQ(sw.partition.total_arcs, stats.total_arcs);
  EXPECT_EQ(sw.partition.interblock_arcs, stats.interblock_arcs);
  EXPECT_EQ(sw.partition.intrablock_arcs, stats.intrablock_arcs);
  EXPECT_TRUE(sw.exact_cover);

  // TIG arc weights aggregated per lattice offset.  The dense TIG's edge
  // (u, v, weight) contributes to the canonical (sign-normalized) key
  // difference; the sweep's (dep, offset) weights aggregate identically.
  std::vector<GroupKey> key_of_gid(ngroups);
  for (std::uint64_t k = 0; k < ngroups; ++k)
    key_of_gid[gid[k]] = gl->group_at_sorted_index(k);
  auto canon = [](GroupOffset o) {
    if (o < GroupOffset{}) return GroupOffset{-o.da, -o.db, -o.dcomp};
    return o;
  };
  std::map<GroupOffset, std::int64_t> dense_off, sym_off;
  for (const auto& [edge, weight] : tig.edges()) {
    const GroupKey& ku = key_of_gid[edge.first];
    const GroupKey& kv = key_of_gid[edge.second];
    dense_off[canon({kv.a - ku.a, kv.b - ku.b, kv.comp - ku.comp})] += weight;
  }
  std::int64_t sym_intra = 0;
  for (const auto& [key, weight] : sw.offset_weights) {
    if (key.second == GroupOffset{})
      sym_intra += weight;
    else
      sym_off[canon(key.second)] += weight;
  }
  EXPECT_EQ(sym_off, dense_off);
  EXPECT_EQ(sym_intra, static_cast<std::int64_t>(stats.intrablock_arcs));

  // Algorithm 2: identical processor per group.  Weighted plane mapping is
  // not closed-form; the builder must refuse loudly, not silently diverge.
  if (weighted && gl->layout() == LatticeLayout::Plane) {
    EXPECT_THROW((void)map_to_hypercube(*gl, cube_dim, mopts), std::invalid_argument);
  } else {
    LatticeHypercubeMapping lm = map_to_hypercube(*gl, cube_dim, mopts);
    EXPECT_EQ(lm.processor_count, dense_map.mapping.processor_count);
    EXPECT_EQ(lm.cube_dim, cube_dim);
    for (std::uint64_t k = 0; k < ngroups; ++k) {
      EXPECT_EQ(lm.proc_of_group(*gl, gl->group_at_sorted_index(k)),
                dense_map.mapping.block_to_proc[gid[k]])
          << "sorted index " << k;
      if (gl->layout() == LatticeLayout::Chain) {
        EXPECT_EQ(lm.proc_of_sorted_index(k), dense_map.mapping.block_to_proc[gid[k]]);
      }
    }
  }

  // Boxes tile [a_min, a_max].
  std::vector<GroupLattice::GroupBox> boxes = gl->enumerate_boxes();
  ASSERT_FALSE(boxes.empty());
  std::int64_t lo = boxes.front().a_lo, hi = boxes.front().a_hi;
  for (const GroupLattice::GroupBox& b : boxes) {
    EXPECT_LE(b.a_lo, b.a_hi);
    EXPECT_LE(b.c_lo, b.c_hi);
    lo = std::min(lo, b.a_lo);
    hi = std::max(hi, b.a_hi);
    if (gl->layout() == LatticeLayout::Chain && gl->component_count() == 1) {
      std::int64_t a0 = gl->group_of_line(b.c_lo).a;
      EXPECT_TRUE(a0 == b.a_lo || a0 == b.a_hi);
    }
  }
  EXPECT_EQ(lo, gl->a_min());
  EXPECT_EQ(hi, gl->a_max());
}

TEST(GroupLattice, PaperWorkloadsMatchDense) {
  expect_lattice_matches_dense(workloads::example_l1(), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::sor2d(10, 7), {1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::sor2d(9, 9), {1, 1}, 3, true);
  expect_lattice_matches_dense(workloads::triangular_matvec(9), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::matrix_vector(8), {}, 3, false);
  expect_lattice_matches_dense(workloads::convolution1d(9, 4), {}, 2, false);
  expect_lattice_matches_dense(workloads::dft_horner(7), {}, 2, true);
}

TEST(GroupLattice, ThreeDPlaneWorkloadsMatchDense) {
  // n = 3, β = 2: the plane layout's (a, b) lattice, fragment CSR mapping
  // and dual-functional coordinates against the dense pipeline.
  expect_lattice_matches_dense(workloads::matrix_multiplication(4), {1, 1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::matrix_multiplication_rewritten(4), {1, 1, 1}, 3,
                               false);
  expect_lattice_matches_dense(workloads::wavefront3d(5), {1, 1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::transitive_closure(4), {1, 1, 1}, 2, false);
  // Triangular-prism domain (affine bounds): per-aux-chain contiguity holds.
  expect_lattice_matches_dense(workloads::lu_decomposition(8), {1, 1, 1}, 3, false);
}

TEST(GroupLattice, StridedChainsMatchDense) {
  // |γ_l| > 1: the lines split into residue components, each a sub-chain
  // the dense region growing covers from its own lexicographic seed.
  expect_lattice_matches_dense(workloads::strided_recurrence(9, 2), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::strided_recurrence(9, 3), {1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::strided_recurrence(12, 4), {1, 1}, 2, true);
}

TEST(GroupLattice, DisjunctiveBoundsMatchDense) {
  // min/max bounds split slabs on the comparison hyperplane; the per-slab
  // closed forms must still reproduce the dense grouping exactly.
  expect_lattice_matches_dense(workloads::pyramid_stencil(12), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::pyramid_stencil(15), {1, 1}, 3, true);
  expect_lattice_matches_dense(workloads::floyd_warshall_band(14, 4), {1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::floyd_warshall_band(11, 2), {1, 1}, 2, true);
}

TEST(GroupLattice, RandomizedNests) {
  // Deterministic seed: the suite must be reproducible.
  std::mt19937 rng(0xC0FFEE);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 72; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    unsigned cube_dim = static_cast<unsigned>(pick(0, 3));
    bool weighted = pick(0, 1) == 1;
    switch (trial % 9) {
      case 0:
        expect_lattice_matches_dense(workloads::sor2d(pick(2, 14), pick(2, 14)), {1, 1},
                                     cube_dim, weighted);
        break;
      case 1:
        expect_lattice_matches_dense(workloads::example_l1(pick(2, 9)), {1, 1}, cube_dim,
                                     weighted);
        break;
      case 2:
        expect_lattice_matches_dense(workloads::triangular_matvec(pick(3, 14)), {1, 1},
                                     cube_dim, weighted);
        break;
      case 3:
        expect_lattice_matches_dense(workloads::matrix_vector(pick(3, 14)), {}, cube_dim,
                                     weighted);
        break;
      case 4:
        expect_lattice_matches_dense(workloads::strided_recurrence(pick(6, 14), pick(2, 4)),
                                     {1, 1}, cube_dim, weighted);
        break;
      case 5:
        expect_lattice_matches_dense(workloads::wavefront3d(pick(2, 6)), {1, 1, 1}, cube_dim,
                                     weighted);
        break;
      case 6:
        expect_lattice_matches_dense(workloads::pyramid_stencil(pick(6, 16)), {1, 1},
                                     cube_dim, weighted);
        break;
      case 7:
        expect_lattice_matches_dense(
            workloads::floyd_warshall_band(pick(8, 16), pick(2, 5)), {1, 1}, cube_dim,
            weighted);
        break;
      default: {
        std::int64_t n = pick(5, 12);
        expect_lattice_matches_dense(workloads::convolution1d(n, pick(2, n - 2)), {}, cube_dim,
                                     weighted);
        break;
      }
    }
  }
}

TEST(GroupLattice, GroupingVectorOverrideMatchesDense) {
  // Both of sor2d's dependences attain the maximal replication factor, so
  // either is a legal override; the lattice must follow the same choice.
  for (std::size_t k : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("override dep " + std::to_string(k));
    LoopNest nest = workloads::sor2d(8, 6);
    ComputationStructure q = ComputationStructure::from_loop(nest);
    TimeFunction tf{IntVec{1, 1}};
    ProjectedStructure ps(q, tf);
    GroupingOptions opts;
    opts.grouping_vector = k;
    Grouping grouping = Grouping::compute(ps, opts);
    ASSERT_EQ(grouping.grouping_vector_index(), k);

    DependenceInfo dep = analyze_dependences(nest);
    IterSpace space(nest, dep.distance_vectors());
    std::optional<GroupLattice> gl = GroupLattice::build(space, tf, opts);
    ASSERT_TRUE(gl.has_value());
    EXPECT_EQ(gl->grouping_vector_index(), k);
    EXPECT_EQ(gl->group_count(), grouping.group_count());
    Partition partition = Partition::build(q, grouping);
    EXPECT_EQ(gl->sweep(false).stats.max_block,
              static_cast<std::int64_t>(partition.max_block_size()));
  }
}

TEST(GroupLattice, GateRefusesOutOfClassNests) {
  TimeFunction tf2{IntVec{1, 1}};

  // 3-D strided nest: the projected dependences generate a proper
  // sublattice, so units leave the seed coset — plane-multi-coset fallback.
  {
    LoopNest nest = workloads::strided_recurrence3d(8, 2);
    DependenceInfo dep = analyze_dependences(nest);
    IterSpace space(nest, dep.distance_vectors());
    std::string why;
    EXPECT_FALSE(
        GroupLattice::build(space, TimeFunction{IntVec{1, 1, 1}}, {}, &why).has_value());
    EXPECT_EQ(why, "plane-multi-coset");
  }
  // Non-default seed policy: the closed form reproduces Lexicographic only.
  {
    DependenceInfo dep = analyze_dependences(workloads::sor2d(6, 6));
    IterSpace space(workloads::sor2d(6, 6), dep.distance_vectors());
    GroupingOptions opts;
    opts.seed_policy = SeedPolicy::ExplicitBases;
    opts.explicit_bases = {IntVec{0, 0}};
    std::string why;
    EXPECT_FALSE(GroupLattice::build(space, tf2, opts, &why).has_value());
    EXPECT_EQ(why, "seed-policy");
  }
  // 4-D nests stay out of class.
  {
    LoopNest nest = workloads::convolution2d(5, 3);
    DependenceInfo dep = analyze_dependences(nest);
    IterSpace space(nest, dep.distance_vectors());
    std::string why;
    EXPECT_FALSE(
        GroupLattice::build(space, TimeFunction{IntVec{1, 1, 1, 1}}, {}, &why).has_value());
    EXPECT_EQ(why, "dimension-unsupported");
  }
}

TEST(GroupLattice, SymbolicPipelineUsesLatticeAndVerifyAgrees) {
  // Symbolic mode on an in-class nest must take the pure lattice path (no
  // groups materialized); verify mode re-runs every stage densely and
  // throws on any disagreement — including the lattice cross-checks.
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1};
  cfg.space_mode = SpaceMode::Symbolic;
  PipelineResult sym = run_pipeline(workloads::sor2d(20, 20), cfg);
  ASSERT_NE(sym.lattice, nullptr);
  EXPECT_TRUE(sym.lattice_mapping.has_value());
  EXPECT_TRUE(sym.lattice_stats.has_value());
  EXPECT_TRUE(sym.block_sizes.empty());
  EXPECT_EQ(sym.projected, nullptr);
  EXPECT_TRUE(sym.exact_cover);
  EXPECT_TRUE(sym.theorem1);
  EXPECT_TRUE(sym.theorem2.holds);

  cfg.space_mode = SpaceMode::Verify;
  PipelineResult ver = run_pipeline(workloads::sor2d(20, 20), cfg);
  EXPECT_EQ(ver.sim.time, sym.sim.time);
  EXPECT_EQ(ver.sim.messages, sym.sim.messages);
  EXPECT_EQ(ver.stats.interblock_arcs, sym.stats.interblock_arcs);
}

TEST(GroupLattice, VerifyComparesPlaneClosedFormOnAllPlaneWorkloads) {
  // Every plane factory admits the closed form, so verify mode compares the
  // closed-form sweep and PaperMaxChannel simulation with the per-line pass
  // and both with the dense pipeline (any disagreement throws).
  const std::vector<LoopNest> nests = {
      workloads::matrix_multiplication(9),  workloads::matrix_multiplication_rewritten(8),
      workloads::transitive_closure(8),     workloads::wavefront3d(11),
      workloads::skewed_wavefront3d(9),     workloads::lu_decomposition(12),
  };
  for (const LoopNest& nest : nests) {
    SCOPED_TRACE(nest.name());
    PipelineConfig cfg;
    cfg.space_mode = SpaceMode::Symbolic;
    PipelineResult sym = run_pipeline(nest, cfg);
    ASSERT_NE(sym.lattice, nullptr);
    EXPECT_EQ(sym.lattice->layout(), LatticeLayout::Plane);
    EXPECT_TRUE(sym.lattice->closed_form_applies());
    for (unsigned dim : {2u, 3u}) {
      cfg.space_mode = SpaceMode::Verify;
      cfg.cube_dim = dim;
      EXPECT_NO_THROW((void)run_pipeline(nest, cfg)) << "dim=" << dim;
    }
  }
}

TEST(GroupLattice, LargeCubesUseSparseChannelTables) {
  // 2^9 = 512 processors is past the flat channel table's 256 slots: the
  // simulators switch to the hash-map table, and verify mode (dense vs
  // line-based vs lattice closed form vs lattice per-line) must still agree
  // under every accounting.
  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    SCOPED_TRACE(static_cast<int>(acc));
    PipelineConfig cfg;
    cfg.time_function = IntVec{1, 1};
    cfg.cube_dim = 9;
    cfg.sim.accounting = acc;
    cfg.space_mode = SpaceMode::Dense;
    PipelineResult dense = run_pipeline(workloads::sor2d(40, 40), cfg);
    cfg.space_mode = SpaceMode::Verify;
    PipelineResult ver = run_pipeline(workloads::sor2d(40, 40), cfg);  // throws on divergence
    EXPECT_EQ(ver.sim.total, dense.sim.total);
    EXPECT_EQ(ver.sim.messages, dense.sim.messages);
  }
}

TEST(GroupLattice, Fig6MatmulVerifyRun) {
  // Paper Fig. 6: matrix multiplication under Pi = (1,1,1).  A 3-D nest —
  // now inside the plane-layout lattice class, so the symbolic path must be
  // fully closed-form; verify mode asserts dense/symbolic equality
  // throughout (including the lattice cross-checks).
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1, 1};
  cfg.space_mode = SpaceMode::Verify;
  PipelineResult r = run_pipeline(workloads::matrix_multiplication(), cfg);
  EXPECT_EQ(r.grouping.group_size_r(), 3);
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem2.holds);

  cfg.space_mode = SpaceMode::Symbolic;
  PipelineResult sym = run_pipeline(workloads::matrix_multiplication(), cfg);
  ASSERT_NE(sym.lattice, nullptr);
  EXPECT_TRUE(sym.block_sizes.empty());  // pure lattice path: nothing materialized
  EXPECT_EQ(sym.sim.time, r.sim.time);
}

TEST(GroupLattice, LineFeedMatchesPopulationQueries) {
  DependenceInfo dep = analyze_dependences(workloads::triangular_matvec(11));
  IterSpace space(workloads::triangular_matvec(11), dep.distance_vectors());
  TimeFunction tf{IntVec{1, 1}};
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
  ASSERT_TRUE(gl.has_value());
  std::uint64_t total = 0;
  std::map<GroupKey, std::int64_t> pop_by_group;
  gl->for_each_line([&](const GroupKey& g, std::int64_t pop, std::int64_t first_step) {
    EXPECT_GT(pop, 0);
    (void)first_step;
    pop_by_group[g] += pop;
    total += static_cast<std::uint64_t>(pop);
  });
  EXPECT_EQ(total, space.size());
  EXPECT_EQ(pop_by_group.size(), gl->group_count());
  for (const auto& [g, pop] : pop_by_group) EXPECT_EQ(pop, gl->group_population(g));

  std::int64_t bundle_arcs = 0;
  gl->for_each_arc_bundle([&](const GroupKey& src, const GroupKey& dst, std::size_t k,
                              std::int64_t count, std::int64_t first_step) {
    EXPECT_GE(gl->group_population(src), count);
    EXPECT_LE(gl->sorted_index_of_group(dst), gl->group_count());
    EXPECT_LT(k, gl->original_deps().size());
    EXPECT_GT(count, 0);
    (void)first_step;
    bundle_arcs += count;
  });
  EXPECT_EQ(static_cast<std::size_t>(bundle_arcs), gl->sweep(false).partition.total_arcs);
}

TEST(GroupLattice, PlaneLineFeedMatchesPopulationQueries) {
  // Same invariants on a plane layout: the feed walks aux-chain-major and
  // its per-group accumulation must equal the closed-form populations.
  LoopNest nest = workloads::wavefront3d(5);
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  TimeFunction tf{IntVec{1, 1, 1}};
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
  ASSERT_TRUE(gl.has_value());
  ASSERT_EQ(gl->layout(), LatticeLayout::Plane);
  std::uint64_t total = 0;
  std::map<GroupKey, std::int64_t> pop_by_group;
  gl->for_each_line([&](const GroupKey& g, std::int64_t pop, std::int64_t first_step) {
    EXPECT_GT(pop, 0);
    (void)first_step;
    pop_by_group[g] += pop;
    total += static_cast<std::uint64_t>(pop);
  });
  EXPECT_EQ(total, space.size());
  EXPECT_EQ(pop_by_group.size(), gl->group_count());
  for (const auto& [g, pop] : pop_by_group) EXPECT_EQ(pop, gl->group_population(g));
}

TEST(GroupLattice, SymbolicFaultInjectionMatchesDense) {
  // Degraded execution under node/link faults: the symbolic simulators
  // (line-based and lattice) must reproduce the dense fault machinery —
  // verify mode runs both and throws on any disagreement, including the
  // degraded observability fields.
  struct Case {
    LoopNest nest;
    IntVec pi;
  };
  const std::vector<Case> cases = {
      {workloads::sor2d(12, 9), {1, 1}},                  // chain layout
      {workloads::strided_recurrence(10, 2), {1, 1}},     // strided residue chains
      {workloads::pyramid_stencil(14), {1, 1}},           // disjunctive bounds
      {workloads::wavefront3d(5), {1, 1, 1}},             // plane layout
      {workloads::strided_recurrence3d(6, 2), {1, 1, 1}}  // line-based fallback
  };
  const std::vector<std::string> specs = {"link:0-1@3", "node:2@5",
                                          "link:0-2,node:1@4,link:4-5@6"};
  for (const Case& c : cases) {
    for (const std::string& spec : specs) {
      for (CommAccounting acc : {CommAccounting::PaperMaxChannel,
                                 CommAccounting::PerStepBarrier,
                                 CommAccounting::LinkContention}) {
        SCOPED_TRACE(c.nest.name() + " faults=" + spec +
                     " acc=" + std::to_string(static_cast<int>(acc)));
        PipelineConfig cfg;
        cfg.time_function = c.pi;
        cfg.sim.faults = fault::FaultPlan::parse(spec);
        cfg.sim.accounting = acc;
        cfg.space_mode = SpaceMode::Dense;
        PipelineResult dense = run_pipeline(c.nest, cfg);
        cfg.space_mode = SpaceMode::Verify;
        PipelineResult ver = run_pipeline(c.nest, cfg);  // throws on divergence
        EXPECT_EQ(ver.sim.time, dense.sim.time);
        EXPECT_EQ(ver.sim.messages, dense.sim.messages);
        EXPECT_EQ(ver.sim.failed_nodes, dense.sim.failed_nodes);
        EXPECT_EQ(ver.sim.failed_links, dense.sim.failed_links);
        EXPECT_EQ(ver.sim.rerouted_messages, dense.sim.rerouted_messages);
        EXPECT_EQ(ver.sim.migrated_blocks, dense.sim.migrated_blocks);
        EXPECT_EQ(ver.sim.migration_cost, dense.sim.migration_cost);
      }
    }
  }
}

/// The closed form (sweep_closed_form, simulate_execution_closed_form)
/// against the per-line pass on one lattice: every LatticeSweepResult
/// field, with and without validation, and every PaperMaxChannel SimResult
/// field on cubes of dimension 0..3, with and without hop charging.
void expect_closed_form_matches_per_line(const GroupLattice& gl) {
  ASSERT_TRUE(gl.closed_form_applies());
  for (bool validate : {true, false}) {
    const LatticeSweepResult closed = gl.sweep_closed_form(validate);
    const LatticeSweepResult lines = gl.sweep_per_line(validate);
    EXPECT_EQ(closed.stats.group_count, lines.stats.group_count);
    EXPECT_EQ(closed.stats.total_iterations, lines.stats.total_iterations);
    EXPECT_EQ(closed.stats.min_block, lines.stats.min_block);
    EXPECT_EQ(closed.stats.max_block, lines.stats.max_block);
    EXPECT_EQ(closed.partition.total_arcs, lines.partition.total_arcs);
    EXPECT_EQ(closed.partition.interblock_arcs, lines.partition.interblock_arcs);
    EXPECT_EQ(closed.offset_weights, lines.offset_weights);
    EXPECT_EQ(closed.exact_cover, lines.exact_cover);
    EXPECT_EQ(closed.theorem1, lines.theorem1);
    EXPECT_EQ(closed.theorem2.max_out_degree, lines.theorem2.max_out_degree);
    EXPECT_EQ(closed.theorem2.holds, lines.theorem2.holds);
    EXPECT_EQ(closed.lemmas.lemma2_holds, lines.lemmas.lemma2_holds);
    EXPECT_EQ(closed.lemmas.lemma3_holds, lines.lemmas.lemma3_holds);
    EXPECT_EQ(closed.lemmas.worst_lemma2_fanout, lines.lemmas.worst_lemma2_fanout);
    EXPECT_EQ(closed.lemmas.worst_lemma3_fanout, lines.lemmas.worst_lemma3_fanout);
    EXPECT_TRUE(closed == lines) << "validate=" << validate;
    EXPECT_EQ(closed.stats.total_iterations, gl.space().size());
  }
  MachineParams machine;
  for (unsigned dim = 0; dim <= 3; ++dim) {
    LatticeHypercubeMapping lm = map_to_hypercube(gl, dim);
    Hypercube cube(dim);
    for (bool hops : {false, true}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + (hops ? " hops" : ""));
      SimOptions opts;
      opts.charge_hops = hops;
      opts.flops_per_iteration = 3;
      const SimResult closed = simulate_execution_closed_form(gl, lm, cube, machine, opts);
      const SimResult lines = simulate_execution_per_line(gl, lm, cube, machine, opts);
      EXPECT_EQ(closed.total, lines.total);
      EXPECT_EQ(closed.steps, lines.steps);
      EXPECT_EQ(closed.messages, lines.messages);
      EXPECT_EQ(closed.words, lines.words);
      EXPECT_EQ(closed.per_proc_iterations, lines.per_proc_iterations);
      EXPECT_EQ(closed.comm_bottleneck, lines.comm_bottleneck);
      EXPECT_TRUE(same_outcome(closed, lines));
    }
  }
}

TEST(GroupLattice, ClosedFormMatchesPerLineOnRandomChains) {
  // Random 2-D chain nests: rectangular, triangular and disjunctive
  // min/max bounds; strided dependences (|γ| = 2..4 residue components);
  // dependences parallel to Π (β = 0); negative ranges, bounds near 2^31,
  // one-line spaces and empty slabs.
  std::mt19937 rng(20261017);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const std::vector<IntVec> pis = {{1, 1}, {1, 2}, {2, 1}, {1, 0}, {0, 1},
                                   {1, -1}, {2, 3}, {3, 1}, {-1, 2}};
  int admitted = 0, strided = 0, degenerate = 0;
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int shape = trial % 6;
    std::int64_t base = 0;
    if (shape == 4) base = (std::int64_t{1} << 31) - pick(0, 40);  // near 2^31
    else if (shape == 5) base = -pick(10, 60);                      // negative range
    // Every other trial is long enough for runs of many periods.
    const std::int64_t span = trial % 2 == 0 ? 24 : 160;
    const std::int64_t n0 = shape == 3 ? 0 : pick(0, span);  // 3: one-line spaces
    AffineDim di{AffineExpr(base), AffineExpr(base + n0)};
    AffineDim dj{AffineExpr(base - pick(0, 6)), AffineExpr(base + pick(0, span))};
    if (shape == 1 || shape == 2) {
      // j in [a·i + b, c·i + e] (triangular / trapezoid; empty slabs where
      // the bounds cross), with a second max/min term for shape 2.
      auto term = [&](std::int64_t lo, std::int64_t hi) {
        const std::int64_t a = pick(-2, 2);
        return AffineExpr(base - a * base + pick(lo, hi), IntVec{a, 0});
      };
      dj.lower = BoundExpr(term(-6, 2));
      dj.upper = BoundExpr(term(0, span / 2));
      if (shape == 2) {
        dj.lower = bmax(dj.lower.term(), term(-4, 4));
        dj.upper = bmin(dj.upper.term(), term(2, 16));
      }
    }
    std::vector<IntVec> deps;
    const std::int64_t nd = pick(1, 3);
    const std::int64_t stride = pick(0, 2) == 0 ? pick(2, 4) : 1;
    for (std::int64_t k = 0; k < nd; ++k) {
      IntVec d{pick(-2, 3), pick(-2, 3)};
      if (is_zero(d)) d = {1, 0};
      deps.push_back(scale(d, stride));
    }
    const IntVec& pi =
        pis[static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(pis.size()) - 1))];
    if (pick(0, 5) == 0) deps = {scale(pi, pick(1, 2))};  // every d ∥ Π: degenerate
    bool legal = true;
    for (const IntVec& d : deps) legal = legal && dot(pi, d) > 0;
    if (!legal) continue;
    IterSpace space = IterSpace::from_affine({di, dj}, deps);
    if (space.empty()) continue;
    std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{pi});
    if (!gl) continue;
    ++admitted;
    if (gl->component_count() > 1) ++strided;
    if (gl->degenerate()) ++degenerate;
    try {
      expect_closed_form_matches_per_line(*gl);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what() << " pi=" << pi[0] << "," << pi[1] << " i=[" << base << ","
                    << base + n0 << "] j=[" << dj.lower.to_string({"i", "j"}, true) << ", "
                    << dj.upper.to_string({"i", "j"}, false) << "] deps="
                    << [&] {
                         std::string t;
                         for (const IntVec& d : deps)
                           t += "(" + std::to_string(d[0]) + "," + std::to_string(d[1]) + ")";
                         return t;
                       }();
    }
    if (HasFailure()) break;
  }
  EXPECT_GT(admitted, 150);
  EXPECT_GT(strided, 10);
  EXPECT_GT(degenerate, 5);
}

TEST(GroupLattice, ClosedFormMatchesPerLineOnRandomPlanes) {
  // Random 3-D plane nests: boxes, triangular and trapezoid bounds, and
  // disjunctive min/max bounds; dependences of mixed lengths; negative
  // ranges and bounds near 2^31.  Every admitted lattice whose k-bounds are
  // integers must give the per-line pass's every field.
  std::mt19937 rng(20261020);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const std::vector<IntVec> pis = {{1, 1, 1}, {1, 1, 0}, {0, 1, 1}, {1, 0, 1},
                                   {1, -1, 1}, {1, 1, -1}, {2, 1, 1}, {1, 2, 1}};
  int admitted = 0, shaped = 0, large = 0;
  for (int trial = 0; trial < 260 && admitted < 90; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int shape = trial % 5;
    std::int64_t base = 0;
    if (shape == 3) base = (std::int64_t{1} << 31) - pick(0, 40);  // near 2^31
    else if (shape == 4) base = -pick(10, 60);                      // negative range
    // Every other trial is long enough for b-runs of many periods.
    const std::int64_t span = trial % 2 == 0 ? 7 : 45;
    auto box = [&](std::int64_t lo_slack) {
      return AffineDim{AffineExpr(base - pick(0, lo_slack)), AffineExpr(base + pick(1, span))};
    };
    AffineDim di = box(0), dj = box(3), dk = box(3);
    // An affine bound term c + a·i (+ e·j) anchored at the base.
    auto term = [&](std::int64_t lo, std::int64_t hi, bool use_j) {
      const std::int64_t a = pick(-1, 1);
      const std::int64_t e = use_j ? pick(-1, 1) : 0;
      return AffineExpr(base - (a + e) * base + pick(lo, hi), IntVec{a, e, 0});
    };
    if (shape == 1 || shape == 2) {
      ++shaped;
      dj.upper = BoundExpr(term(1, span, false));
      dk.lower = BoundExpr(term(-4, 1, true));
      if (shape == 2) {
        dj.upper = bmin(dj.upper.term(), term(2, span, false));
        dk.lower = bmax(dk.lower.term(), term(-3, 2, false));
        dk.upper = bmin(dk.upper.term(), term(2, span, true));
      }
    }
    const IntVec& pi =
        pis[static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(pis.size()) - 1))];
    std::vector<IntVec> deps;
    const std::int64_t nd = pick(2, 4);
    for (std::int64_t k = 0; k < nd; ++k) {
      IntVec d{pick(-1, 2), pick(-1, 2), pick(-1, 2)};
      if (dot(pi, d) <= 0) d = {pi[0] > 0 ? 1 : 0, pi[0] > 0 ? 0 : 1, 0};
      if (dot(pi, d) <= 0) d = pi;
      deps.push_back(d);
    }
    IterSpace space = IterSpace::from_affine({di, dj, dk}, deps);
    if (space.empty()) continue;
    std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{pi});
    if (!gl || gl->layout() != LatticeLayout::Plane || !gl->closed_form_applies()) continue;
    ++admitted;
    if (gl->line_count() >= 400) ++large;  // long enough for multi-period b-runs
    try {
      expect_closed_form_matches_per_line(*gl);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what() << " pi=" << pi[0] << "," << pi[1] << "," << pi[2];
    }
    if (HasFailure()) {
      std::string d;
      for (const IntVec& v : deps)
        d += "(" + std::to_string(v[0]) + "," + std::to_string(v[1]) + "," +
             std::to_string(v[2]) + ")";
      ADD_FAILURE() << "pi=" << pi[0] << "," << pi[1] << "," << pi[2] << " deps=" << d
                    << " i=[" << di.lower.to_string({"i", "j", "k"}, true) << ", "
                    << di.upper.to_string({"i", "j", "k"}, false) << "] j=["
                    << dj.lower.to_string({"i", "j", "k"}, true) << ", "
                    << dj.upper.to_string({"i", "j", "k"}, false) << "] k=["
                    << dk.lower.to_string({"i", "j", "k"}, true) << ", "
                    << dk.upper.to_string({"i", "j", "k"}, false) << "]";
      break;
    }
  }
  EXPECT_GE(admitted, 60);
  EXPECT_GT(shaped, 20);
  EXPECT_GT(large, 20);
}

TEST(GroupLattice, PlaneFoldRejectsAWrongBPeriod) {
  // Mutation check of the b-fold's self-check: wavefront3d's aux-chain
  // sums repeat every r = 3 chains (groups start every third slot while
  // the breakpoints move one slot per chain).  Folding with period 1 must
  // not produce a sum: the explicitly evaluated last period departs from
  // the quadratic fit and the sweep raises an internal error.
  LoopNest nest = workloads::wavefront3d(60);
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{IntVec{1, 1, 1}});
  ASSERT_TRUE(gl.has_value());
  ASSERT_EQ(gl->group_size_r(), 3);
  ASSERT_TRUE(gl->sweep_closed_form() == gl->sweep_per_line());
  GroupLattice bad = GroupLatticeTestPeer::with_b_period(*gl, 1);
  try {
    (void)bad.sweep_closed_form();
    ADD_FAILURE() << "a wrong b-period went undetected";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Internal);
  }
}

TEST(GroupLattice, PlaneChainTableIsCapped) {
  // The plane build stores one record per aux chain; a nest with more
  // than 2^22 of them is refused up front with a typed error instead of a
  // multi-gigabyte table.
  // A wavefront slab 2^22 × 2^22 × 2: its aux coordinate j - k spans 2^22 + 1
  // chains.
  const std::int64_t n = std::int64_t{1} << 22;
  IterSpace space({{1, n}, {1, n}, {1, 2}}, {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  try {
    (void)GroupLattice::build(space, TimeFunction{IntVec{1, 1, 1}});
    ADD_FAILURE() << "an oversized aux-chain table was built";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Config);
  }
}

TEST(GroupLattice, ClosedFormMatchesPerLineOnWorkloads) {
  // Sizes large enough that runs span many periods (the arithmetic-series
  // middle is exercised), still small enough for the per-line pass.
  struct Case {
    LoopNest nest;
    IntVec pi;
  };
  const std::vector<Case> cases = {
      {workloads::sor2d(300, 217), {1, 1}},
      {workloads::strided_recurrence(257, 3), {1, 1}},
      {workloads::strided_recurrence(200, 4), {1, 1}},
      {workloads::triangular_matvec(301), {1, 1}},
      {workloads::pyramid_stencil(333), {1, 1}},
      {workloads::floyd_warshall_band(120, 5), {1, 1}},
      {workloads::sor2d(97, 131), {1, 2}},
      {workloads::sor2d(64, 64), {3, 1}},
      {workloads::wavefront3d(61), {1, 1, 1}},
      {workloads::matrix_multiplication(37), {1, 1, 1}},
      {workloads::matrix_multiplication_rewritten(29), {1, 1, 1}},
      {workloads::transitive_closure(31), {1, 1, 1}},
      {workloads::lu_decomposition(43), {1, 1, 1}},
      {workloads::skewed_wavefront3d(33), {1, 2, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.nest.name());
    DependenceInfo dep = analyze_dependences(c.nest);
    IterSpace space(c.nest, dep.distance_vectors());
    std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{c.pi});
    ASSERT_TRUE(gl.has_value());
    expect_closed_form_matches_per_line(*gl);
  }
}

TEST(GroupLattice, ClosedFormStillDetectsTheorem1Collisions) {
  // Mutation check: with an illegal group size, groups hold lines whose
  // step sequences meet.  The closed form must report the collision like
  // the per-line pass — Theorem 1 is checked, never assumed.
  for (std::int64_t n : {12, 500, 4096}) {
    for (std::int64_t r : {3, 4, 7}) {
      SCOPED_TRACE("N=" + std::to_string(n) + " r=" + std::to_string(r));
      LoopNest nest = workloads::sor2d(n, n);
      DependenceInfo dep = analyze_dependences(nest);
      IterSpace space(nest, dep.distance_vectors());
      std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{IntVec{1, 1}});
      ASSERT_TRUE(gl.has_value());
      ASSERT_TRUE(gl->sweep_closed_form().theorem1);
      GroupLattice bad = GroupLatticeTestPeer::with_group_size(*gl, r);
      EXPECT_FALSE(bad.sweep_closed_form().theorem1);
      if (n <= 500) {
        EXPECT_FALSE(bad.sweep_per_line().theorem1);
        EXPECT_TRUE(bad.sweep_closed_form() == bad.sweep_per_line());
      }
    }
  }
  // Triangular domain: line lengths grow along the chain, so short groups
  // at one end do not collide and long ones do — the verdict must come
  // from the run's far period, and agree with the per-line pass.
  for (std::int64_t n : {9, 40, 301}) {
    SCOPED_TRACE("triangular N=" + std::to_string(n));
    LoopNest nest = workloads::triangular_matvec(n);
    DependenceInfo dep = analyze_dependences(nest);
    IterSpace space(nest, dep.distance_vectors());
    std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{IntVec{1, 1}});
    ASSERT_TRUE(gl.has_value());
    for (std::int64_t r : {3, 5}) {
      GroupLattice bad = GroupLatticeTestPeer::with_group_size(*gl, r);
      const LatticeSweepResult lines = bad.sweep_per_line();
      EXPECT_TRUE(bad.sweep_closed_form() == lines) << "r=" << r;
      if (n >= 40) {
        EXPECT_FALSE(lines.theorem1) << "r=" << r;
      }
    }
  }
}

TEST(GroupLattice, ClosedFormHandlesHugeChains) {
  // sor2d at N = 2^30: ~2^31 lines, 2^60 iterations — only the closed form
  // finishes, and the counts are exact.
  const std::int64_t n = std::int64_t{1} << 30;
  LoopNest nest = workloads::sor2d(n, n);
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{IntVec{1, 1}});
  ASSERT_TRUE(gl.has_value());
  const LatticeSweepResult sw = gl->sweep();
  const auto un = static_cast<std::uint64_t>(n);
  EXPECT_EQ(sw.stats.total_iterations, un * un);
  EXPECT_EQ(sw.stats.group_count, gl->group_count());
  EXPECT_EQ(sw.partition.total_arcs, 2 * un * (un - 1));
  EXPECT_TRUE(sw.exact_cover);
  EXPECT_TRUE(sw.theorem1);
  EXPECT_TRUE(sw.theorem2.holds);
  LatticeHypercubeMapping lm = map_to_hypercube(*gl, 3);
  SimResult sim = simulate_execution(*gl, lm, Hypercube(3), MachineParams{});
  EXPECT_EQ(sim.steps, 2 * n - 1);
  std::int64_t load = 0;
  for (std::int64_t c : sim.per_proc_iterations) load += c;
  EXPECT_EQ(load, n * n);
}

/// Layout slug of the lattice build on `nest` under its searched Π: "chain",
/// "plane", or the fallback reason when the gate refuses.
std::string lattice_verdict(const LoopNest& nest, const GroupingOptions& opts = {}) {
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  std::optional<TimeFunction> tf = search_time_function(space);
  if (!tf) return "no-time-function";
  std::string why;
  std::optional<GroupLattice> gl = GroupLattice::build(space, *tf, opts, &why);
  if (!gl) return why;
  return gl->layout() == LatticeLayout::Chain ? "chain" : "plane";
}

TEST(GroupLattice, AdmissionTableOverFactoriesAndPrograms) {
  // Which inputs still reach the line-based symbolic path is a checked
  // fact: every workload factory and every sample program, with the
  // layout it is admitted under or the slug of the gate that refuses it.
  // A change to this table is a change to the lattice's coverage.
  const std::vector<std::pair<LoopNest, std::string>> factories = {
      {workloads::example_l1(6), "chain"},
      {workloads::matrix_vector(8), "chain"},
      {workloads::matrix_vector_rewritten(8), "chain"},
      {workloads::convolution1d(12, 5), "chain"},
      {workloads::sor2d(9, 7), "chain"},
      {workloads::strided_recurrence(12, 2), "chain"},
      {workloads::triangular_matvec(9), "chain"},
      {workloads::floyd_warshall_band(12, 3), "chain"},
      {workloads::pyramid_stencil(14), "chain"},
      {workloads::dft_horner(8), "chain"},
      {workloads::matrix_multiplication(4), "plane"},
      {workloads::matrix_multiplication_rewritten(4), "plane"},
      {workloads::transitive_closure(4), "plane"},
      {workloads::wavefront3d(5), "plane"},
      {workloads::skewed_wavefront3d(5), "plane"},
      {workloads::lu_decomposition(5), "plane"},
      {workloads::convolution2d(4, 2), "dimension-unsupported"},
      {workloads::strided_recurrence3d(6, 2), "plane-multi-coset"},
  };
  std::map<std::string, int> tally;
  for (const auto& [nest, want] : factories) {
    EXPECT_EQ(lattice_verdict(nest), want) << nest.name();
    ++tally[want];
  }
  EXPECT_EQ(factories.size(), 18u);
  EXPECT_EQ(tally["chain"], 10);
  EXPECT_EQ(tally["plane"], 6);

  const std::map<std::string, std::string> programs = {
      {"fw_band.loop", "chain"},   {"lcs_banded.loop", "chain"},
      {"lu.loop", "plane"},        {"matmul.loop", "plane"},
      {"pyramid.loop", "chain"},   {"sor.loop", "chain"},
      {"strided3d.loop", "plane-multi-coset"}, {"wave.loop", "chain"},
  };
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(HYPART_EXAMPLES_DIR))
    if (entry.path().extension() == ".loop") found.push_back(entry.path().filename().string());
  std::sort(found.begin(), found.end());
  std::vector<std::string> listed;
  for (const auto& [file, want] : programs) listed.push_back(file);
  EXPECT_EQ(found, listed) << "examples/programs changed: extend this table";
  for (const auto& [file, want] : programs) {
    std::ifstream in(std::string(HYPART_EXAMPLES_DIR) + "/" + file);
    ASSERT_TRUE(in) << file;
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(lattice_verdict(parse_loop_nest(text.str())), want) << file;
  }
}

TEST(GroupLattice, AdmissionUnderGroupingOverrides) {
  // The grouping overrides the closed forms do not model fall back with
  // their own slugs; a valid grouping-vector override keeps the lattice,
  // in the plane layout too.
  GroupingOptions seeded;
  seeded.seed_policy = SeedPolicy::ExplicitBases;
  GroupingOptions aux;
  aux.auxiliary_vectors = std::vector<std::size_t>{1};
  GroupingOptions bad_vector;
  bad_vector.grouping_vector = 7;
  GroupingOptions valid_vector;
  valid_vector.grouping_vector = 1;
  for (const LoopNest& nest : {workloads::sor2d(9, 7), workloads::wavefront3d(6)}) {
    SCOPED_TRACE(nest.name());
    EXPECT_EQ(lattice_verdict(nest, seeded), "seed-policy");
    EXPECT_EQ(lattice_verdict(nest, aux), "aux-override");
    EXPECT_EQ(lattice_verdict(nest, bad_vector), "invalid-grouping-override");
  }
  EXPECT_EQ(lattice_verdict(workloads::wavefront3d(6), valid_vector), "plane");
  EXPECT_EQ(lattice_verdict(workloads::sor2d(9, 7), valid_vector), "chain");
  // A valid plane override reproduces the dense grouping it pins.
  LoopNest nest = workloads::wavefront3d(5);
  ComputationStructure q = ComputationStructure::from_loop(nest);
  TimeFunction tf{IntVec{1, 1, 1}};
  ProjectedStructure ps(q, tf);
  Grouping grouping = Grouping::compute(ps, valid_vector);
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf, valid_vector);
  ASSERT_TRUE(gl.has_value());
  EXPECT_EQ(gl->layout(), LatticeLayout::Plane);
  EXPECT_EQ(gl->grouping_vector_index(), std::optional<std::size_t>(1));
  EXPECT_EQ(gl->group_count(), grouping.group_count());
  EXPECT_TRUE(gl->sweep_closed_form() == gl->sweep_per_line());
}

TEST(GroupLattice, WeightedPlaneMappingFallsBackInPipeline) {
  // Weighted plane mapping is not closed-form: run_pipeline routes the
  // admitted plane nest through the line-based path and says why.
  obs::MetricsRegistry metrics;
  PipelineConfig cfg;
  cfg.space_mode = SpaceMode::Symbolic;
  cfg.mapping.weighted = true;
  cfg.obs.metrics = &metrics;
  PipelineResult r = run_pipeline(workloads::matrix_multiplication(4), cfg);
  EXPECT_EQ(r.lattice, nullptr);
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.count("pipeline.lattice_fallback.weighted-plane-mapping"), 1u);
  EXPECT_EQ(snap.counters.count("pipeline.lattice_layout.plane"), 0u);
}

}  // namespace
}  // namespace hypart

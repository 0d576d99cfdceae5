// IterSpace unit tests plus randomized symbolic == dense properties: on
// random rectangular spaces (d <= 4) AND random affine-bounded spaces
// (d <= 3, slab-decomposed) every closed-form quantity — arc counts,
// schedule spans, projections, groupings, partition stats, TIGs, checker
// verdicts, and all three simulator accountings — must equal the value
// computed from the materialized point set exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "core/error.hpp"
#include "graph/comp_structure.hpp"
#include "loop/iter_space.hpp"
#include "mapping/tig.hpp"
#include "partition/checkers.hpp"
#include "partition/group_lattice.hpp"
#include "partition/grouping.hpp"
#include "partition/symbolic.hpp"
#include "schedule/hyperplane.hpp"
#include "sim/exec_sim.hpp"
#include "topology/topology.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

// ---- unit tests ------------------------------------------------------------

TEST(IterSpace, FloorCeilDiv) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(7, -2), -4);
  EXPECT_EQ(floor_div(-7, -2), 3);
  EXPECT_EQ(floor_div(6, 3), 2);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(7, -2), -3);
  EXPECT_EQ(ceil_div(-7, -2), 4);
  EXPECT_EQ(ceil_div(6, 3), 2);
}

TEST(IterSpace, SizeExtentContains) {
  IterSpace s({{1, 4}, {-2, 0}}, {{1, 0}});
  EXPECT_EQ(s.dimension(), 2u);
  EXPECT_EQ(s.extent(0), 4);
  EXPECT_EQ(s.extent(1), 3);
  EXPECT_EQ(s.size(), 12u);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(s.contains({1, -2}));
  EXPECT_TRUE(s.contains({4, 0}));
  EXPECT_FALSE(s.contains({5, 0}));
  EXPECT_FALSE(s.contains({1, 1}));
  IterSpace degenerate({{3, 2}}, {{1}});
  EXPECT_TRUE(degenerate.empty());
  EXPECT_EQ(degenerate.size(), 0u);
}

TEST(IterSpace, ArcCountsMatchPaperL1) {
  // L1 on [1,4]^2 with D = {(0,1), (1,1), (1,0)}: 12 + 9 + 12 = 33 arcs.
  IterSpace s({{1, 4}, {1, 4}}, {{0, 1}, {1, 1}, {1, 0}});
  EXPECT_EQ(s.arc_count({0, 1}), 12u);
  EXPECT_EQ(s.arc_count({1, 1}), 9u);
  EXPECT_EQ(s.arc_count({1, 0}), 12u);
  EXPECT_EQ(s.total_arc_count(), 33u);
  // A dependence longer than the extent kills every arc.
  EXPECT_EQ(s.arc_count({4, 0}), 0u);
}

TEST(IterSpace, MinMaxStepAtCorners) {
  IterSpace s({{1, 4}, {1, 4}}, {{1, 0}});
  EXPECT_EQ(s.min_step({1, 1}), 2);
  EXPECT_EQ(s.max_step({1, 1}), 8);
  EXPECT_EQ(s.min_step({1, -2}), 1 - 8);
  EXPECT_EQ(s.max_step({1, -2}), 4 - 2);
  IterSpace empty({{1, 0}}, {{1}});
  EXPECT_THROW((void)empty.min_step({1}), std::logic_error);
}

TEST(IterSpace, StepExtremesAreChecked) {
  // Π·x at a corner past int64 is an OverflowError, never a wrapped step.
  IterSpace s({{1, 9'000'000'000'000'000'000}}, {{1}});
  EXPECT_EQ(s.max_step({1}), 9'000'000'000'000'000'000);
  EXPECT_THROW((void)s.max_step({2}), OverflowError);
  EXPECT_THROW((void)s.min_step({-2}), OverflowError);
  // An iteration count past int64 is refused at construction.
  EXPECT_THROW(IterSpace({{0, std::int64_t{1} << 32}, {0, std::int64_t{1} << 32}}, {{1, 0}}),
               OverflowError);
  // A count so far past int64 that its int128 sum is not certified (upper
  // bound ~2^127 over 2^42 rows): refused at once by the lower bound.
  std::vector<AffineDim> tall(3);
  tall[0] = {AffineExpr(0), AffineExpr(std::int64_t{1} << 42)};
  tall[1] = {AffineExpr(0), AffineExpr::index(0, 1, std::int64_t{1} << 42)};
  tall[2] = {AffineExpr(0), AffineExpr(std::int64_t{1} << 42)};
  EXPECT_THROW((void)IterSpace::from_affine(tall, {{1, 0, 0}}), OverflowError);
}

TEST(IterSpace, LineRange) {
  IterSpace s({{1, 4}, {1, 4}}, {{1, 0}});
  // Anti-diagonal through (1,4): the whole diagonal, k = 0..3.
  auto r = s.line_range({1, 4}, {1, -1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::make_pair(std::int64_t{0}, std::int64_t{3}));
  // The same line addressed from outside the box: shifted k-interval.
  r = s.line_range({0, 5}, {1, -1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::make_pair(std::int64_t{1}, std::int64_t{4}));
  // A line that misses the box entirely.
  EXPECT_FALSE(s.line_range({10, 0}, {0, 1}).has_value());
  // Zero direction component must pin that coordinate inside the box.
  r = s.line_range({2, 3}, {0, 1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::make_pair(std::int64_t{-2}, std::int64_t{1}));
  EXPECT_FALSE(s.line_range({0, 3}, {0, 1}).has_value());
}

TEST(IterSpace, ForEachLineCoversBoxOnce) {
  IterSpace s({{1, 4}, {1, 4}}, {{1, 0}});
  const IntVec u{1, -1};
  std::vector<std::int64_t> pops;
  std::int64_t covered = 0;
  s.for_each_line(u, [&](const IntVec& rep, std::int64_t pop) {
    // rep is the entry point: on the line, inside, with rep - u outside.
    EXPECT_TRUE(s.contains(rep));
    EXPECT_FALSE(s.contains({rep[0] - u[0], rep[1] - u[1]}));
    pops.push_back(pop);
    covered += pop;
  });
  // 7 anti-diagonals with populations 1..4..1 covering all 16 points.
  EXPECT_EQ(pops.size(), 7u);
  std::sort(pops.begin(), pops.end());
  EXPECT_EQ(pops, (std::vector<std::int64_t>{1, 1, 2, 2, 3, 3, 4}));
  EXPECT_EQ(covered, 16);
}

TEST(IterSpace, TriangularMatvecDomain) {
  // Strictly lower-triangular domain j in [1, i-1], i in [1, 5]: ten points
  // in four slabs (the i = 1 slab is empty).
  std::vector<AffineDim> dims(2);
  dims[0] = {AffineExpr(1), AffineExpr(5)};
  dims[1] = {AffineExpr(1), AffineExpr::index(0, 1, -1)};
  IterSpace s = IterSpace::from_affine(dims, {{1, 0}, {0, 1}});
  EXPECT_FALSE(s.is_rectangular());
  EXPECT_EQ(s.sliced_dims(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(s.slab_count(), 4u);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_TRUE(s.contains({5, 4}));
  EXPECT_TRUE(s.contains({2, 1}));
  EXPECT_FALSE(s.contains({3, 3}));   // on the diagonal, outside
  EXPECT_FALSE(s.contains({1, 1}));   // row with an empty j-range
  EXPECT_THROW((void)s.bounds(), std::logic_error);
  EXPECT_THROW((void)s.extent(0), std::logic_error);
  // Hand counts: (0,1) arcs need j+1 <= i-1 (rows 3..5: 1+2+3); (1,0) arcs
  // need i+1 <= 5 and carry j <= i-1 into a longer row (rows 2..4: 1+2+3).
  EXPECT_EQ(s.arc_count({0, 1}), 6u);
  EXPECT_EQ(s.arc_count({1, 0}), 6u);
  EXPECT_EQ(s.total_arc_count(), 12u);
  // Π = (1,1) extremes: (2,1) -> 3 and (5,4) -> 9, at slab corners.
  EXPECT_EQ(s.min_step({1, 1}), 3);
  EXPECT_EQ(s.max_step({1, 1}), 9);
  // The diagonal line through (2,1): (2,1),(3,2),(4,3),(5,4).
  auto r = s.line_range({2, 1}, {1, 1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::make_pair(std::int64_t{0}, std::int64_t{3}));
  // Line enumeration covers the triangle exactly once.
  std::int64_t covered = 0;
  std::size_t lines = 0;
  s.for_each_line({1, 1}, [&](const IntVec& rep, std::int64_t pop) {
    EXPECT_TRUE(s.contains(rep));
    EXPECT_FALSE(s.contains({rep[0] - 1, rep[1] - 1}));
    covered += pop;
    ++lines;
  });
  EXPECT_EQ(covered, 10);
  EXPECT_EQ(lines, 4u);  // diagonals entering at (2,1),(3,1),(4,1),(5,1)
}

TEST(IterSpace, FromNestAcceptsAffineBounds) {
  IterSpace tri = IterSpace::from_nest(workloads::triangular_matvec(6));
  EXPECT_FALSE(tri.is_rectangular());
  EXPECT_EQ(tri.size(), 15u);  // 0+1+2+3+4+5
  EXPECT_EQ(tri.dependences().size(), 2u);

  // The skewed prism has the same 27 points as the 3^3 cube it came from,
  // sliced along i.
  IterSpace w = IterSpace::from_nest(workloads::skewed_wavefront3d(3));
  EXPECT_FALSE(w.is_rectangular());
  EXPECT_EQ(w.sliced_dims(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(w.slab_count(), 3u);
  EXPECT_EQ(w.size(), 27u);
  std::vector<IntVec> deps = w.dependences();
  std::sort(deps.begin(), deps.end());
  EXPECT_EQ(deps, (std::vector<IntVec>{{0, 0, 1}, {0, 1, 0}, {1, 1, 0}}));
}

// ---- randomized properties: symbolic == dense ------------------------------

std::vector<IntVec> enumerate_box(const std::vector<DimBounds>& bounds) {
  std::vector<IntVec> pts;
  IntVec p(bounds.size());
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == bounds.size()) {
      pts.push_back(p);
      return;
    }
    for (std::int64_t x = bounds[i].first; x <= bounds[i].second; ++x) {
      p[i] = x;
      rec(i + 1);
    }
  };
  rec(0);
  return pts;
}

std::map<std::tuple<std::size_t, std::size_t>, std::int64_t> digraph_edges(const Digraph& g) {
  std::map<std::tuple<std::size_t, std::size_t>, std::int64_t> out;
  for (std::size_t v = 0; v < g.vertex_count(); ++v)
    for (const Digraph::Edge& e : g.out_edges(v)) out[{v, e.to}] += e.weight;
  return out;
}

struct RandomCase {
  std::vector<DimBounds> bounds;
  std::vector<IntVec> deps;
};

RandomCase random_case(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> dim_dist(1, 4);
  std::uniform_int_distribution<std::int64_t> lo_dist(-3, 3), extent_dist(1, 5),
      coef_dist(-2, 2), ndep_dist(1, 3);
  RandomCase c;
  const std::size_t dim = dim_dist(rng);
  for (std::size_t i = 0; i < dim; ++i) {
    std::int64_t lo = lo_dist(rng);
    c.bounds.push_back({lo, lo + extent_dist(rng) - 1});
  }
  // In 1-d only two distinct lex-positive vectors exist in the coefficient
  // range; asking for more would spin forever.
  const std::int64_t ndeps = std::min<std::int64_t>(ndep_dist(rng), dim == 1 ? 2 : 3);
  while (c.deps.size() < static_cast<std::size_t>(ndeps)) {
    IntVec d(dim);
    for (std::size_t i = 0; i < dim; ++i) d[i] = coef_dist(rng);
    // Lexicographically positive (a legal uniform dependence) and new.
    auto nz = std::find_if(d.begin(), d.end(), [](std::int64_t x) { return x != 0; });
    if (nz == d.end()) continue;
    if (*nz < 0)
      for (std::int64_t& x : d) x = -x;
    if (std::find(c.deps.begin(), c.deps.end(), d) == c.deps.end()) c.deps.push_back(d);
  }
  return c;
}

/// Every stage on both backends, for any space/point-set pair (rectangular
/// or affine).  Returns false when no valid Π exists (nothing to compare).
bool check_all_stages(const IterSpace& space, const std::vector<IntVec>& pts,
                      const std::vector<IntVec>& cdeps, bool alt_hops) {
  const MachineParams machine{1.0, 50.0, 5.0};
  ComputationStructure q(pts, cdeps);

  EXPECT_EQ(space.size(), q.vertices().size());
  EXPECT_EQ(space.total_arc_count(), q.dependence_arc_count());
  for (const IntVec& d : cdeps) {
    std::size_t dense_arcs = 0;
    for (const IntVec& v : q.vertices()) {
      IntVec t = v;
      for (std::size_t i = 0; i < t.size(); ++i) t[i] += d[i];
      if (q.contains(t)) ++dense_arcs;
    }
    EXPECT_EQ(space.arc_count(d), dense_arcs) << to_string(d);
  }

  // Identical Π from both search paths (same candidate order, same spans).
    std::optional<TimeFunction> tf_sym = search_time_function(space);
    std::optional<TimeFunction> tf_dense = search_time_function(q);
    EXPECT_EQ(tf_sym.has_value(), tf_dense.has_value());
    if (!tf_sym || !tf_dense) return false;  // no valid Π in the search box
    EXPECT_EQ(tf_sym->pi, tf_dense->pi);
    const TimeFunction tf = *tf_sym;
    ScheduleProfile prof = profile_schedule(tf, q.vertices());
    EXPECT_EQ(space.min_step(tf.pi), prof.first_step);
    EXPECT_EQ(space.max_step(tf.pi), prof.last_step);

    // Projection: bit-identical points, populations, and representatives.
    ProjectedStructure pd(q, tf);
    ProjectedStructure psym(space, tf);
    EXPECT_EQ(pd.points(), psym.points());
    if (pd.points() != psym.points()) return true;  // failure already recorded
    EXPECT_EQ(pd.line_direction(), psym.line_direction());
    EXPECT_EQ(pd.step_stride(), psym.step_stride());
    for (std::size_t i = 0; i < pd.point_count(); ++i) {
      EXPECT_EQ(pd.line_population(i), psym.line_population(i)) << i;
      EXPECT_EQ(pd.line_representative(i), psym.line_representative(i)) << i;
    }

    // Grouping is a deterministic function of the projected structure.
    Grouping gd = Grouping::compute(pd);
    Grouping gs = Grouping::compute(psym);
    EXPECT_EQ(gd.group_count(), gs.group_count());
    if (gd.group_count() != gs.group_count()) return true;
    for (std::size_t g = 0; g < gd.group_count(); ++g) {
      EXPECT_EQ(gd.groups()[g].members(), gs.groups()[g].members());
      EXPECT_EQ(gd.groups()[g].lattice, gs.groups()[g].lattice);
    }

    // Partition stats, block sizes, and checker verdicts.
    Partition part = Partition::build(q, gd);
    PartitionStats sd = compute_partition_stats(q, part);
    PartitionStats ss = compute_partition_stats(space, gs);
    EXPECT_EQ(sd.total_arcs, ss.total_arcs);
    EXPECT_EQ(sd.interblock_arcs, ss.interblock_arcs);
    EXPECT_EQ(sd.intrablock_arcs, ss.intrablock_arcs);
    EXPECT_EQ(digraph_edges(sd.block_comm), digraph_edges(ss.block_comm));
    std::vector<std::int64_t> bsizes = symbolic_block_sizes(gs);
    EXPECT_EQ(bsizes.size(), part.block_count());
    if (bsizes.size() != part.block_count()) return true;
    for (std::size_t b = 0; b < bsizes.size(); ++b)
      EXPECT_EQ(static_cast<std::size_t>(bsizes[b]), part.blocks()[b].iterations.size());
    EXPECT_EQ(check_exact_cover(space, gs), check_exact_cover(q, part));
    EXPECT_EQ(check_theorem1(space, gs), check_theorem1(q, tf, part));

    // TIG: same vertices, weights, and edge map.
    TaskInteractionGraph td = TaskInteractionGraph::from_partition(q, part, gd);
    TaskInteractionGraph ts = TaskInteractionGraph::from_symbolic(space, gs);
    EXPECT_EQ(td.vertex_count(), ts.vertex_count());
    if (td.vertex_count() != ts.vertex_count()) return true;
    for (std::size_t v = 0; v < td.vertex_count(); ++v) {
      EXPECT_EQ(td.compute_weight(v), ts.compute_weight(v));
      EXPECT_EQ(td.coordinates(v), ts.coordinates(v));
    }
    EXPECT_EQ(td.edges(), ts.edges());

    // All three simulator accountings, alternating hop charging.
    Hypercube cube(2);
    Mapping m;
    m.processor_count = cube.size();
    m.method = "round-robin";
    for (std::size_t b = 0; b < part.block_count(); ++b)
      m.block_to_proc.push_back(static_cast<ProcId>(b % m.processor_count));
    for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                               CommAccounting::LinkContention}) {
      SimOptions opts;
      opts.accounting = acc;
      opts.charge_hops = alt_hops;
      SimResult rd = simulate_execution(q, tf, part, m, cube, machine, opts);
      SimResult rs = simulate_execution(space, gs, m, cube, machine, opts);
      SCOPED_TRACE("accounting " + std::to_string(static_cast<int>(acc)));
      EXPECT_EQ(rd.total, rs.total);
      EXPECT_EQ(rd.time, rs.time);
      EXPECT_EQ(rd.compute_bottleneck, rs.compute_bottleneck);
      EXPECT_EQ(rd.comm_bottleneck, rs.comm_bottleneck);
      EXPECT_EQ(rd.steps, rs.steps);
      EXPECT_EQ(rd.messages, rs.messages);
      EXPECT_EQ(rd.words, rs.words);
      EXPECT_EQ(rd.max_link_words, rs.max_link_words);
      EXPECT_EQ(rd.per_proc_iterations, rs.per_proc_iterations);
    }
  return true;
}

TEST(IterSpaceProperty, SymbolicEqualsDenseEverywhere) {
  std::mt19937 rng(12345);
  int checked = 0;
  for (int attempt = 0; attempt < 60 && checked < 30; ++attempt) {
    RandomCase c = random_case(rng);
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    IterSpace space(c.bounds, c.deps);
    if (check_all_stages(space, enumerate_box(c.bounds), c.deps, attempt % 2 == 1)) ++checked;
  }
  // The search box finds a Π for the overwhelming majority of lex-positive
  // dependence sets; make sure the property actually exercised many cases.
  EXPECT_GE(checked, 20);
}

// ---- affine (slab-decomposed) domains --------------------------------------

std::vector<IntVec> enumerate_affine(const std::vector<AffineDim>& dims) {
  std::vector<IntVec> pts;
  IntVec p(dims.size(), 0);
  std::function<void(std::size_t)> rec = [&](std::size_t j) {
    if (j == dims.size()) {
      pts.push_back(p);
      return;
    }
    const std::int64_t lo = dims[j].lower.evaluate_lower(p);
    const std::int64_t hi = dims[j].upper.evaluate_upper(p);
    for (std::int64_t x = lo; x <= hi; ++x) {
      p[j] = x;
      rec(j + 1);
    }
    p[j] = 0;
  };
  rec(0);
  return pts;
}

struct AffineCase {
  std::vector<AffineDim> dims;
  std::vector<IntVec> deps;
};

/// Random affine-bounded domain, d <= 3: dimension 0 is constant; each later
/// dimension's lower/upper bound references one random earlier dimension
/// with slope in {-1, 0, 1} (independent per bound, so slab extents vary and
/// some slabs come out empty).
AffineCase random_affine_case(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> dim_dist(2, 3);
  std::uniform_int_distribution<std::int64_t> lo_dist(-3, 3), extent_dist(1, 5),
      coef_dist(-2, 2), slope_dist(-1, 1), ndep_dist(1, 3);
  AffineCase c;
  const std::size_t dim = dim_dist(rng);
  for (std::size_t j = 0; j < dim; ++j) {
    AffineExpr lower(lo_dist(rng));
    AffineExpr upper(lower.constant + extent_dist(rng) - 1);
    if (j > 0) {
      std::uniform_int_distribution<std::size_t> which(0, j - 1);
      lower.coeffs.assign(j, 0);
      lower.coeffs[which(rng)] = slope_dist(rng);
      upper.coeffs.assign(j, 0);
      upper.coeffs[which(rng)] = slope_dist(rng);
    }
    c.dims.push_back({std::move(lower), std::move(upper)});
  }
  const std::size_t ndeps = static_cast<std::size_t>(ndep_dist(rng));
  while (c.deps.size() < ndeps) {
    IntVec d(dim);
    for (std::size_t i = 0; i < dim; ++i) d[i] = coef_dist(rng);
    auto nz = std::find_if(d.begin(), d.end(), [](std::int64_t x) { return x != 0; });
    if (nz == d.end()) continue;
    if (*nz < 0)
      for (std::int64_t& x : d) x = -x;
    if (std::find(c.deps.begin(), c.deps.end(), d) == c.deps.end()) c.deps.push_back(d);
  }
  return c;
}

/// Random disjunctive-bounded domain, d <= 3: like random_affine_case, but
/// at least one non-outer bound carries TWO affine terms (a genuine
/// max(...)/min(...) bound), so the slab decomposition must split on the
/// comparison hyperplane where the active term changes.
AffineCase random_disjunctive_case(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> dim_dist(2, 3);
  std::uniform_int_distribution<std::int64_t> lo_dist(-3, 3), extent_dist(2, 6),
      coef_dist(-2, 2), slope_dist(-1, 1), ndep_dist(1, 3);
  std::uniform_int_distribution<int> two_dist(0, 1);
  AffineCase c;
  const std::size_t dim = dim_dist(rng);
  for (std::size_t j = 0; j < dim; ++j) {
    const std::int64_t lo = lo_dist(rng);
    const std::int64_t hi = lo + extent_dist(rng) - 1;
    if (j == 0) {
      c.dims.push_back({AffineExpr(lo), AffineExpr(hi)});
      continue;
    }
    std::uniform_int_distribution<std::size_t> which(0, j - 1);
    auto term = [&](std::int64_t cst) {
      AffineExpr e(cst);
      e.coeffs.assign(j, 0);
      e.coeffs[which(rng)] = slope_dist(rng);
      return e;
    };
    // The last dimension always gets a two-term bound on at least one side;
    // earlier dimensions flip a coin per side.
    const bool force = j == dim - 1;
    BoundExpr lower = (force || two_dist(rng) == 1) ? bmax(term(lo), term(lo))
                                                    : BoundExpr(term(lo));
    BoundExpr upper = (force || two_dist(rng) == 1) ? bmin(term(hi), term(hi))
                                                    : BoundExpr(term(hi));
    c.dims.push_back({std::move(lower), std::move(upper)});
  }
  const std::size_t ndeps = static_cast<std::size_t>(ndep_dist(rng));
  while (c.deps.size() < ndeps) {
    IntVec d(dim);
    for (std::size_t i = 0; i < dim; ++i) d[i] = coef_dist(rng);
    auto nz = std::find_if(d.begin(), d.end(), [](std::int64_t x) { return x != 0; });
    if (nz == d.end()) continue;
    if (*nz < 0)
      for (std::int64_t& x : d) x = -x;
    if (std::find(c.deps.begin(), c.deps.end(), d) == c.deps.end()) c.deps.push_back(d);
  }
  return c;
}

TEST(IterSpaceProperty, SymbolicEqualsDenseOnAffineDomains) {
  std::mt19937 rng(98765);
  int checked = 0, sliced = 0;
  for (int attempt = 0; attempt < 120 && checked < 30; ++attempt) {
    AffineCase c = random_affine_case(rng);
    std::vector<IntVec> pts = enumerate_affine(c.dims);
    if (pts.empty()) continue;  // ComputationStructure rejects empty spaces
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    IterSpace space = IterSpace::from_affine(c.dims, c.deps);
    ASSERT_EQ(space.size(), pts.size());
    if (!space.is_rectangular()) ++sliced;
    if (check_all_stages(space, pts, c.deps, attempt % 2 == 1)) ++checked;
  }
  EXPECT_GE(checked, 20);
  // The generator must actually produce slab-decomposed (non-box) domains.
  EXPECT_GE(sliced, 10);
}

TEST(IterSpaceProperty, SymbolicEqualsDenseOnDisjunctiveDomains) {
  std::mt19937 rng(424242);
  int checked = 0, multi_term = 0;
  for (int attempt = 0; attempt < 160 && checked < 30; ++attempt) {
    AffineCase c = random_disjunctive_case(rng);
    std::vector<IntVec> pts = enumerate_affine(c.dims);
    if (pts.empty()) continue;  // ComputationStructure rejects empty spaces
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    IterSpace space = IterSpace::from_affine(c.dims, c.deps);
    ASSERT_EQ(space.size(), pts.size());
    bool has_multi = false;
    for (const AffineDim& d : c.dims)
      has_multi = has_multi || !d.lower.single() || !d.upper.single();
    if (has_multi) ++multi_term;
    if (check_all_stages(space, pts, c.deps, attempt % 2 == 1)) ++checked;
  }
  EXPECT_GE(checked, 20);
  // Every case carries at least one genuine max/min bound by construction.
  EXPECT_GE(multi_term, 20);
}

TEST(IterSpace, DisjunctiveWorkloadsSizeAndSlabs) {
  // Pyramid: sum_{i=0..12} (min(i, 12-i) + 1) = 2*(1+..+6) + 7 = 49.
  IterSpace pyr = IterSpace::from_nest(workloads::pyramid_stencil(12));
  EXPECT_FALSE(pyr.is_rectangular());
  EXPECT_EQ(pyr.size(), 49u);
  // Banded FW: rows clip at both edges of the 11x11 square, band 3.
  IterSpace fw = IterSpace::from_nest(workloads::floyd_warshall_band(10, 3));
  std::uint64_t expect = 0;
  for (std::int64_t i = 0; i <= 10; ++i)
    expect += static_cast<std::uint64_t>(std::min<std::int64_t>(10, i + 3) -
                                         std::max<std::int64_t>(0, i - 3) + 1);
  EXPECT_EQ(fw.size(), expect);
}

TEST(IterSpace, AffineChainsAreFewRuns) {
  // A triangle is one run (the empty i = 1 row is dropped), a pyramid two
  // (cut where min(i, n-i) switches terms), the banded square three (both
  // the max and the min switch), whatever N; slab_count() still counts the
  // per-row boxes.
  for (const std::int64_t n : {std::int64_t{9}, std::int64_t{1} << 16}) {
    IterSpace tri = IterSpace::from_nest(workloads::triangular_matvec(n));
    EXPECT_EQ(tri.runs().size(), 1u);
    EXPECT_EQ(tri.slab_count(), static_cast<std::size_t>(n - 1));
    IterSpace pyr = IterSpace::from_nest(workloads::pyramid_stencil(n));
    EXPECT_EQ(pyr.runs().size(), 2u);
    EXPECT_EQ(pyr.slab_count(), static_cast<std::size_t>(n + 1));
    IterSpace fw = IterSpace::from_nest(workloads::floyd_warshall_band(n, 3));
    EXPECT_EQ(fw.runs().size(), 3u);
    EXPECT_EQ(fw.slab_count(), static_cast<std::size_t>(n + 1));
    IterSpace lu = IterSpace::from_nest(workloads::lu_decomposition(n));  // 3-D, k sliced
    EXPECT_EQ(lu.runs().size(), 1u);
  }
  // The run form is what makes N = 2^30 plannable: 2^30 - 1 rows, one run.
  IterSpace big = IterSpace::from_nest(workloads::triangular_matvec(std::int64_t{1} << 30));
  EXPECT_EQ(big.runs().size(), 1u);
  EXPECT_EQ(big.size(), 576460751766552576u);
  // (0,1) and (1,0) arcs: (N-1)(N-2)/2 each.
  const std::uint64_t n30 = std::uint64_t{1} << 30;
  EXPECT_EQ(big.total_arc_count(), (n30 - 1) * (n30 - 2));
}

// ---- slab runs == per-value slabs ------------------------------------------

/// The per-value slab decomposition the runs replace: one box per value of
/// the sliced coordinates, keyed by them, with the iteration count summed in
/// int128 (so a count past INT64_MAX is seen, not wrapped).
struct RefSlabs {
  std::vector<std::size_t> sliced;
  std::vector<IntVec> keys;
  std::vector<std::vector<DimBounds>> boxes;
  std::map<IntVec, std::size_t> index;
  int128 size = 0;
};

RefSlabs reference_slabs(const std::vector<AffineDim>& dims) {
  const std::size_t n = dims.size();
  RefSlabs r;
  std::vector<bool> referenced(n, false);
  for (const AffineDim& d : dims)
    for (const BoundExpr* b : {&d.lower, &d.upper})
      for (const AffineExpr& e : b->terms)
        for (std::size_t k = 0; k < e.coeffs.size(); ++k)
          if (e.coeffs[k] != 0) referenced[k] = true;
  for (std::size_t k = 0; k < n; ++k)
    if (referenced[k]) r.sliced.push_back(k);
  IntVec vals(n, 0);
  std::function<void(std::size_t)> rec = [&](std::size_t si) {
    if (si == r.sliced.size()) {
      std::vector<DimBounds> box(n);
      int128 points = 1;
      for (std::size_t j = 0; j < n; ++j) {
        box[j] = referenced[j] ? DimBounds{vals[j], vals[j]}
                               : DimBounds{dims[j].lower.evaluate_lower(vals),
                                           dims[j].upper.evaluate_upper(vals)};
        if (box[j].first > box[j].second) return;
        points *= box[j].second - box[j].first + 1;
      }
      IntVec key;
      for (std::size_t d : r.sliced) key.push_back(vals[d]);
      r.index.emplace(key, r.keys.size());
      r.keys.push_back(std::move(key));
      r.boxes.push_back(std::move(box));
      r.size += points;
      return;
    }
    const std::size_t d = r.sliced[si];
    const std::int64_t lo = dims[d].lower.evaluate_lower(vals);
    const std::int64_t hi = dims[d].upper.evaluate_upper(vals);
    for (std::int64_t v = lo; v <= hi; ++v) {
      vals[d] = v;
      rec(si + 1);
    }
    vals[d] = 0;
  };
  rec(0);
  return r;
}

int128 reference_arcs(const RefSlabs& r, const IntVec& d) {
  int128 total = 0;
  for (std::size_t s = 0; s < r.keys.size(); ++s) {
    IntVec key = r.keys[s];
    for (std::size_t i = 0; i < r.sliced.size(); ++i) key[i] += d[r.sliced[i]];
    auto it = r.index.find(key);
    if (it == r.index.end()) continue;
    const std::vector<DimBounds>& a = r.boxes[s];
    const std::vector<DimBounds>& b = r.boxes[it->second];
    int128 prod = 1;
    for (std::size_t j = 0; j < a.size(); ++j) {
      const std::int64_t lo = std::max(a[j].first, b[j].first - d[j]);
      const std::int64_t hi = std::min(a[j].second, b[j].second - d[j]);
      prod *= hi < lo ? 0 : hi - lo + 1;
    }
    total += prod;
  }
  return total;
}

/// Π·x extremes over the per-value boxes (min when `lowest`).
int128 reference_step(const RefSlabs& r, const IntVec& pi, bool lowest) {
  int128 best = 0;
  for (std::size_t s = 0; s < r.boxes.size(); ++s) {
    int128 v = 0;
    for (std::size_t i = 0; i < pi.size(); ++i)
      v += int128{pi[i]} * ((pi[i] >= 0) == lowest ? r.boxes[s][i].first : r.boxes[s][i].second);
    if (s == 0 || (lowest ? v < best : v > best)) best = v;
  }
  return best;
}

/// GroupLattice::build's chain admission decided box by box on the
/// per-value slabs: "" when admitted (with the line count), else the slug.
std::string reference_chain_admission(const RefSlabs& r, const IntVec& pi, std::uint64_t* lines) {
  const std::int64_t g = content(pi);
  const IntVec w{pi[1] / g, -(pi[0] / g)};
  bool have_unit = false;
  std::size_t unit_axis = 2;
  for (std::size_t i = 0; i < 2 && unit_axis == 2; ++i) {
    if (w[i] != 1 && w[i] != -1) continue;
    have_unit = true;
    const std::size_t j = 1 - i;
    bool ok = true;
    for (const std::vector<DimBounds>& box : r.boxes) {
      const std::int64_t ei = box[i].second - box[i].first + 1;
      const std::int64_t ej = box[j].second - box[j].first + 1;
      if (std::abs(w[j]) > ei && ej > 1) ok = false;
    }
    if (ok) unit_axis = i;
  }
  if (!have_unit) return "no-unit-w-entry";
  if (unit_axis == 2) return "slab-interval-hole";
  std::vector<std::pair<std::int64_t, std::int64_t>> ivs;
  for (const std::vector<DimBounds>& box : r.boxes) {
    std::int64_t lo = 0, hi = 0;
    for (std::size_t i = 0; i < 2; ++i) {
      lo += w[i] * (w[i] >= 0 ? box[i].first : box[i].second);
      hi += w[i] * (w[i] >= 0 ? box[i].second : box[i].first);
    }
    ivs.emplace_back(lo, hi);
  }
  std::sort(ivs.begin(), ivs.end());
  std::int64_t c_hi = ivs.front().second;
  for (std::size_t i = 1; i < ivs.size(); ++i) {
    if (ivs[i].first > c_hi + 1) return "line-interval-hole";
    c_hi = std::max(c_hi, ivs[i].second);
  }
  *lines = static_cast<std::uint64_t>(c_hi - ivs.front().first + 1);
  return "";
}

enum class SlabCaseKind { Small, NearInt32, NearInt64Count };

/// Random affine nest for the run/slab differential: 2-D or 3-D, one or two
/// sliced dimensions, slopes ±1..±3, one- or two-term bounds, ranges around
/// a negative, zero or ±2^31 origin; NearInt64Count cases have few rows of
/// huge extent whose total straddles INT64_MAX.
AffineCase random_slab_case(std::mt19937& rng, SlabCaseKind kind) {
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  AffineCase c;
  const std::size_t n = static_cast<std::size_t>(pick(2, 3));
  // Which earlier dimensions each dimension's bounds may reference: 3-D
  // nests slice dimension 0 only, or dimensions 0 and 1.
  // (NearInt64Count rows stay few: the reference enumerates every slab.)
  const bool two_sliced = n == 3 && kind != SlabCaseKind::NearInt64Count && pick(0, 1) == 1;
  std::int64_t origin = 0;
  if (kind == SlabCaseKind::NearInt32)
    origin = pick(0, 1) == 1 ? (std::int64_t{1} << 31) - pick(0, 40)
                             : -(std::int64_t{1} << 31) + pick(0, 40);
  else if (kind == SlabCaseKind::Small)
    origin = pick(-12, 4);
  std::int64_t huge = 0;  // per-row extent scale of NearInt64Count cases
  const std::int64_t rows = pick(2, 6);
  if (kind == SlabCaseKind::NearInt64Count)
    huge = n == 2 ? INT64_MAX / rows
                  : static_cast<std::int64_t>(std::sqrt(static_cast<double>(INT64_MAX / rows)));
  auto slope = [&] {
    const std::int64_t s = pick(1, 3);
    return pick(0, 1) == 1 ? s : -s;
  };
  // One bound term for dimension j: const + Σ a_k·(x_k - origin) + origin,
  // so the domain stays near the origin whatever the slopes.
  auto term = [&](std::size_t j, std::int64_t cst) {
    AffineExpr e(cst + origin);
    e.coeffs.assign(j, 0);
    for (std::size_t k = 0; k < j; ++k) {
      const bool may = k == 0 ? !(two_sliced && j == 2 && pick(0, 1) == 0) : two_sliced && j == 2;
      if (!may || pick(0, 3) == 0) continue;
      e.coeffs[k] = kind == SlabCaseKind::NearInt64Count ? pick(-1, 1) : slope();
      e.constant -= e.coeffs[k] * origin;
    }
    return e;
  };
  for (std::size_t j = 0; j < n; ++j) {
    if (j == 0) {
      const std::int64_t lo = kind == SlabCaseKind::NearInt64Count ? 0 : pick(-4, 2);
      const std::int64_t hi = kind == SlabCaseKind::NearInt64Count ? rows - 1 : lo + pick(-1, 9);
      c.dims.push_back({AffineExpr(lo + origin), AffineExpr(hi + origin)});
      continue;
    }
    std::int64_t lo = pick(-6, 3), hi = lo + pick(-2, 10);
    if (kind == SlabCaseKind::NearInt64Count) {
      lo = pick(-3, 3);
      hi = lo + huge - 1 + pick(-4, 4);
    }
    BoundExpr lower(term(j, lo)), upper(term(j, hi));
    if (pick(0, 2) == 0) lower = bmax(term(j, lo), term(j, lo + pick(-4, 4)));
    if (pick(0, 2) == 0) upper = bmin(term(j, hi), term(j, hi + pick(-4, 4)));
    c.dims.push_back({std::move(lower), std::move(upper)});
  }
  // Make sure the nest is sliced the way it was drawn.
  if (!c.dims[1].upper.terms[0].coeffs.empty() && c.dims[1].upper.terms[0].coeffs[0] == 0) {
    c.dims[1].upper.terms[0].coeffs[0] = slope();
    c.dims[1].upper.terms[0].constant -= c.dims[1].upper.terms[0].coeffs[0] * origin;
  }
  if (two_sliced && c.dims[2].lower.terms[0].coeffs[1] == 0) {
    c.dims[2].lower.terms[0].coeffs[1] = kind == SlabCaseKind::NearInt64Count ? 1 : slope();
    c.dims[2].lower.terms[0].constant -= c.dims[2].lower.terms[0].coeffs[1] * origin;
  }
  const std::int64_t ndeps = pick(1, 3);
  while (c.deps.size() < static_cast<std::size_t>(ndeps)) {
    IntVec d(n);
    for (std::int64_t& x : d) x = pick(-2, 2);
    auto nz = std::find_if(d.begin(), d.end(), [](std::int64_t x) { return x != 0; });
    if (nz == d.end()) continue;
    if (*nz < 0)
      for (std::int64_t& x : d) x = -x;
    if (std::find(c.deps.begin(), c.deps.end(), d) == c.deps.end()) c.deps.push_back(d);
  }
  return c;
}

/// Every Π of the search box (|π_k| <= 3, nonzero).
std::vector<IntVec> search_box(std::size_t n) {
  std::vector<IntVec> out;
  IntVec pi(n, -3);
  while (true) {
    if (!is_zero(pi)) out.push_back(pi);
    std::size_t k = 0;
    while (k < n && pi[k] == 3) pi[k++] = -3;
    if (k == n) break;
    ++pi[k];
  }
  return out;
}

TEST(IterSpaceProperty, SlabRunsMatchPerValueSlabs) {
  std::mt19937 rng(20261019);
  int compared = 0, multi_run = 0, two_sliced = 0, lattice_checked = 0, overflowed = 0;
  std::map<std::string, int> outcomes;  // admission verdicts of the 2-D cases
  const SlabCaseKind kinds[] = {SlabCaseKind::Small, SlabCaseKind::Small,
                                SlabCaseKind::NearInt32, SlabCaseKind::NearInt64Count};
  for (int attempt = 0; attempt < 400; ++attempt) {
    const SlabCaseKind kind = kinds[attempt % 4];
    AffineCase c = random_slab_case(rng, kind);
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    RefSlabs ref = reference_slabs(c.dims);
    if (ref.size > INT64_MAX) {
      // The count passes int64 exactly when the int128 reference does.
      EXPECT_THROW((void)IterSpace::from_affine(c.dims, c.deps), OverflowError);
      ++overflowed;
      continue;
    }
    IterSpace space = IterSpace::from_affine(c.dims, c.deps);
    ASSERT_EQ(static_cast<int128>(space.size()), ref.size);
    ASSERT_EQ(space.slab_count(), ref.keys.size());
    ASSERT_EQ(space.sliced_dims(), ref.sliced);
    ASSERT_LE(space.runs().size(), std::max<std::size_t>(1, ref.keys.size()));
    if (space.runs().size() > 1) ++multi_run;
    if (ref.sliced.size() == 2) ++two_sliced;
    if (space.empty()) continue;
    ++compared;

    for (const IntVec& pi : search_box(c.dims.size())) {
      for (const bool lowest : {true, false}) {
        const int128 want = reference_step(ref, pi, lowest);
        if (want > INT64_MAX || want < INT64_MIN) {
          EXPECT_THROW((void)(lowest ? space.min_step(pi) : space.max_step(pi)), OverflowError);
        } else {
          EXPECT_EQ(lowest ? space.min_step(pi) : space.max_step(pi), want) << to_string(pi);
        }
      }
    }
    for (const IntVec& d : c.deps)
      EXPECT_EQ(static_cast<int128>(space.arc_count(d)), reference_arcs(ref, d)) << to_string(d);

    if (ref.size <= 4000) {
      // Lines: every point whose predecessor is outside, with the length of
      // its run along u, from the point set alone.
      std::vector<IntVec> pts = enumerate_affine(c.dims);
      std::set<IntVec> in(pts.begin(), pts.end());
      std::vector<IntVec> dirs = c.deps;
      dirs.push_back(IntVec(c.dims.size(), 1));
      for (const IntVec& u : dirs) {
        std::vector<std::pair<IntVec, std::int64_t>> want, got;
        for (const IntVec& p : pts) {
          if (in.contains(sub(p, u))) continue;
          std::int64_t pop = 0;
          for (IntVec q = p; in.contains(q); q = add(q, u)) ++pop;
          want.emplace_back(p, pop);
        }
        space.for_each_line(u,
                            [&](const IntVec& p, std::int64_t pop) { got.emplace_back(p, pop); });
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "u = " << to_string(u);
      }
    }

    if (c.dims.size() == 2) {
      for (const IntVec& pi : search_box(2)) {
        std::uint64_t want_lines = 0;
        const std::string want = reference_chain_admission(ref, pi, &want_lines);
        std::string why;
        std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{pi}, {}, &why);
        EXPECT_EQ(gl.has_value() ? std::string() : why, want) << to_string(pi);
        ++outcomes[want];
        if (gl && want.empty()) {
          EXPECT_EQ(gl->line_count(), want_lines) << to_string(pi);
        }
      }
      ++lattice_checked;
    }
  }
  // The generator must reach every shape the runs distinguish.
  EXPECT_GE(compared, 200);
  EXPECT_GE(multi_run, 40);
  EXPECT_GE(two_sliced, 40);
  EXPECT_GE(lattice_checked, 80);
  EXPECT_GE(overflowed, 10);
  for (const char* verdict : {"", "no-unit-w-entry", "slab-interval-hole", "line-interval-hole"})
    EXPECT_GE(outcomes[verdict], 20) << verdict;
}

}  // namespace
}  // namespace hypart

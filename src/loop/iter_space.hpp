// hypart — closed-form affine iteration space (the symbolic spine).
//
// IterSpace represents the index set J^n of a loop nest whose bounds are
// affine in the outer indices — never as a point list.  Because every
// dimension contributes one affine lower and one affine upper bound, J is
// the integer hull of a convex polyhedron, so a line meets J in one
// contiguous run and every quantity the partitioning pipeline needs has a
// closed form over a *slab decomposition*:
//
//   Let S be the set of dimensions referenced by some other dimension's
//   bound (the "sliced" dimensions; for a rectangular nest S is empty).
//   Fixing the S-coordinates to concrete values makes every remaining
//   bound constant, so J splits into disjoint rectangular slabs
//   J = ⨆_key B_key, one box per feasible key.
//
// The slabs are stored as maximal *slab runs*.  Under one value of the
// outer sliced coordinates (the key's prefix), every box coordinate of B
// is affine in the last sliced coordinate v on each interval where no two
// bound terms of one dimension cross, so a run is {prefix, [v_lo, v_hi],
// per dimension lo(v) = lo_base + lo_slope·v and hi(v) likewise}.  A
// triangle is one run, a pyramid two: the storage is O(pieces), not one
// box per outer index value.
//
// Per-run closed forms, summed over runs (docs/affine-spaces.md derives
// each one and works the triangular-matvec example):
//   * point count        — Σ_v of a product of affine extents, a
//                          polynomial in v summed exactly in int128;
//   * arc count of dep d — overlap volume of B_key with B_{key+d_S} shifted
//                          by -d (slab keys translate with the dependence),
//                          again a sum of affine-extent products per pair
//                          of overlapping runs;
//   * schedule span      — Π·x extremes are attained at slab corners, and a
//                          corner is affine in v, so at the run endpoints;
//   * line enumeration   — the entry points of direction u inside B_key are
//                          exactly B_key \ (B_{key-u_S} + u), a set
//                          difference of boxes that splits into ≤ 2n
//                          disjoint boxes (expanded per slab of a run).
// Size, arcs and spans cost O(runs·n); line enumeration O(lines + slabs·n)
// instead of O(points); see docs/iterspace.md for the box-level
// derivations and the dense-fallback rules.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "loop/dependence.hpp"
#include "loop/loop_nest.hpp"
#include "numeric/int_linalg.hpp"

namespace hypart {

/// Floor/ceil integer division for arbitrary signs (b != 0); C++ `/`
/// truncates toward zero, which is wrong for the negative line-range bounds.
[[nodiscard]] constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  return (a % b != 0 && ((a < 0) == (b < 0))) ? q + 1 : q;
}

/// Narrow [x, y] to the v with base + slope·v >= 0 — one half-line, so the
/// result stays an interval (x > y when nothing is left).
void clip_nonneg(int128& x, int128& y, int128 base, int128 slope);

/// Inclusive per-dimension bounds [lower, upper].
using DimBounds = std::pair<std::int64_t, std::int64_t>;

/// One dimension `for I_j = lower to upper` with bounds affine in the outer
/// indices I_1..I_{j-1} (the paper's loop model, Section II).  A bound may
/// carry several affine terms (BoundExpr): the lower bound is their max,
/// the upper their min.  Each term is an independent half-space, so the
/// space stays convex and every slab/line closed form applies per term —
/// the comparison hyperplane of e.g. `j <= min(i, n-i)` is where the
/// active term switches, and the slab runs are cut there.
struct AffineDim {
  BoundExpr lower;
  BoundExpr upper;
};

class IterSpace {
 public:
  /// Build a rectangular space from explicit bounds and constant dependence
  /// vectors (the same validation rules as ComputationStructure: nonzero,
  /// dimension-matched).
  IterSpace(std::vector<DimBounds> bounds, std::vector<IntVec> dependences);

  /// Build an affine space: each dimension's bounds may reference earlier
  /// dimensions (coefficients on later indices must be zero).  Throws
  /// std::invalid_argument on malformed bounds/dependences and
  /// std::length_error when the slab runs would exceed the internal cap
  /// (callers fall back to the dense path).  A named factory because
  /// braced dimension lists would be ambiguous with the DimBounds
  /// constructor.
  static IterSpace from_affine(std::vector<AffineDim> dims, std::vector<IntVec> dependences);

  /// Build from any nest with affine bounds plus externally analyzed
  /// dependence vectors (what run_pipeline uses).
  IterSpace(const LoopNest& nest, std::vector<IntVec> dependences);

  /// Build from a nest, analyzing dependences automatically.
  static IterSpace from_nest(const LoopNest& nest, const DependenceOptions& opts = {});

  [[nodiscard]] std::size_t dimension() const { return dims_.size(); }
  [[nodiscard]] const std::vector<AffineDim>& affine_dims() const { return dims_; }
  [[nodiscard]] const std::vector<IntVec>& dependences() const { return deps_; }

  /// True when no dimension's bounds reference another (single-box space).
  [[nodiscard]] bool is_rectangular() const { return sliced_.empty(); }
  /// Dimensions some bound references, ascending (empty iff rectangular).
  [[nodiscard]] const std::vector<std::size_t>& sliced_dims() const { return sliced_; }
  /// Number of non-empty boxes in the slab decomposition (the summed run
  /// lengths; 1 for a non-empty rectangular space).
  [[nodiscard]] std::size_t slab_count() const { return slab_count_; }

  /// Bounds of one box coordinate along a slab run, affine in the run's
  /// coordinate v: lo(v) = lo_base + lo_slope·v, hi(v) = hi_base +
  /// hi_slope·v.  Both are exact int64 for every v of the run.
  struct RunBound {
    std::int64_t lo_base = 0;
    std::int64_t lo_slope = 0;
    std::int64_t hi_base = 0;
    std::int64_t hi_slope = 0;
    [[nodiscard]] std::int64_t lo(std::int64_t v) const {
      return static_cast<std::int64_t>(lo_base + static_cast<int128>(lo_slope) * v);
    }
    [[nodiscard]] std::int64_t hi(std::int64_t v) const {
      return static_cast<std::int64_t>(hi_base + static_cast<int128>(hi_slope) * v);
    }
    friend bool operator==(const RunBound&, const RunBound&) = default;
  };
  /// A maximal slab run: the non-empty slabs whose key is (prefix, v) for
  /// v in [v_lo, v_hi], v the last sliced coordinate and the prefix the
  /// outer sliced coordinates (pinned: their RunBounds have zero slopes).
  /// The last sliced dimension itself has lo(v) = hi(v) = v.  A rectangular
  /// space is one run with v_lo = v_hi = 0 and constant bounds.  Runs are
  /// sorted by (prefix, v).
  struct SlabRun {
    std::int64_t v_lo = 0;
    std::int64_t v_hi = 0;
  };
  [[nodiscard]] const std::vector<SlabRun>& runs() const { return runs_; }
  /// The dimension() per-dimension bounds of run k.
  [[nodiscard]] std::span<const RunBound> run_bounds(std::size_t k) const {
    return {run_bounds_.data() + k * dims_.size(), dims_.size()};
  }

  /// Constant per-dimension bounds; throws std::logic_error unless
  /// is_rectangular().
  [[nodiscard]] const std::vector<DimBounds>& bounds() const;

  /// Number of index points (summed per run in closed form), without
  /// enumeration.
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Points along dimension `i` (0 when the range is empty); rectangular
  /// spaces only — affine dimensions have no single extent.
  [[nodiscard]] std::int64_t extent(std::size_t i) const;

  /// Membership is direct polyhedron evaluation: p is inside iff every
  /// dimension's bounds, evaluated at p's own outer coordinates, admit it.
  [[nodiscard]] bool contains(const IntVec& p) const;

  /// #{ j : j in J and j + d in J } — the arc count of one dependence.
  /// Arcs leaving slab key land in the unique slab keyed key + d_S; the
  /// count is the overlap volume of B_key with B_{key+d_S} translated by -d
  /// (on a box this reduces to prod_i max(0, extent_i - |d_i|)), summed in
  /// closed form over each pair of overlapping source/target runs.
  [[nodiscard]] std::uint64_t arc_count(const IntVec& d) const;

  /// Total dependence arcs over all dependence vectors (the dense
  /// ComputationStructure::dependence_arc_count, without the points).
  [[nodiscard]] std::uint64_t total_arc_count() const;

  /// Extremes of Π·x over J, attained at slab corners — and, a corner
  /// being affine in v, at the run endpoints (O(runs·n)); throw
  /// std::logic_error when the space is empty and OverflowError when Π·x
  /// leaves int64 at a corner.
  [[nodiscard]] std::int64_t min_step(const IntVec& pi) const;
  [[nodiscard]] std::int64_t max_step(const IntVec& pi) const;

  /// The k-interval {k : p + k*u in J} of the line through p with direction
  /// u (u != 0; p itself need not be inside); nullopt when the line misses
  /// J.  Each affine bound `lower_j(x) <= x_j <= upper_j(x)` is linear along
  /// the line, so it contributes one half-line of feasible k; J convex
  /// keeps the intersection contiguous.
  [[nodiscard]] std::optional<std::pair<std::int64_t, std::int64_t>> line_range(
      const IntVec& p, const IntVec& u) const;

  /// Enumerate every line of direction u meeting J exactly once, visiting
  /// (entry point, population).  The entry point is the unique line point
  /// with entry - u outside J (the smallest point along +u); the population
  /// is the closed-form run length.  Entries inside slab key are
  /// B_key \ (B_{key-u_S} + u), decomposed into <= 2n disjoint boxes per
  /// slab (each run is expanded slab by slab into reused buffers); cost
  /// O(lines + slabs * n) versus the O(points) dense projection.
  void for_each_line(const IntVec& u,
                     const std::function<void(const IntVec&, std::int64_t)>& visit) const;

 private:
  IterSpace() = default;  // for the named factories

  void init();
  /// Index of the run holding the slab keyed (prefix, v) — `prefix` holds
  /// the outer sliced coordinates in sliced_dims() order — or runs_.size().
  [[nodiscard]] std::size_t run_at(const std::int64_t* prefix, std::int64_t v) const;
  /// First run whose key is not before (prefix, v) in (prefix, v_hi) order.
  [[nodiscard]] std::size_t lower_run(const std::int64_t* prefix, std::int64_t v) const;
  /// Compare run k's prefix with `prefix`: <0, 0, >0.
  [[nodiscard]] int compare_prefix(std::size_t k, const std::int64_t* prefix) const;
  /// Box of run k's slab at v.
  void slab_box(std::size_t k, std::int64_t v, std::vector<DimBounds>& box) const;
  /// min_step (lowest) or max_step; `what` names the caller in errors.
  [[nodiscard]] std::int64_t corner_step(const IntVec& pi, bool lowest, const char* what) const;

  std::vector<AffineDim> dims_;
  std::vector<IntVec> deps_;
  std::vector<std::size_t> sliced_;
  std::vector<SlabRun> runs_;           ///< non-empty runs, sorted by (prefix, v)
  std::vector<RunBound> run_bounds_;    ///< dimension() entries per run
  std::vector<DimBounds> rect_bounds_;  ///< populated iff is_rectangular()
  std::uint64_t size_ = 0;
  std::size_t slab_count_ = 0;
};

}  // namespace hypart

// hypart — closed-form group lattice (symbolic backend for Algorithm 1's
// grouping phase and Algorithm 2's bisection).
//
// PR 3/4 made the iteration space symbolic, but the grouping phase still
// materialized one Group per group, so end-to-end cost stayed O(groups).
// On the classes below the groups form a *regular lattice* and every
// grouping/mapping quantity has a closed form; no Group objects are ever
// materialized.  Two layouts cover the admitted nests:
//
//  * Chain (n = 2, β ≤ 1).  Lines are indexed by c = w·j, where w ⊥ u
//    (u = Π/content(Π)) is the primitive line-index vector; a convex 2-D
//    domain meets a contiguous interval [c_lo, c_hi] of lines.  One slot
//    step along the grouping vector d_l advances the line index by
//    γ_l = w·d_l.  With |γ_l| = g > 1 the dense BFS no longer reaches every
//    line from one seed: the lines split into g *residue components*
//    (c ≡ c_seed + m·lexdir mod g), each an arithmetic sub-chain the dense
//    region growing covers from its own lexicographic seed, in seed order
//    m = 0, 1, ….  Slot index within component m is t = (c - c_seed_m)/γ_l
//    and the group is (a, m) with a = floor(t/r) — exactly the dense
//    Group::lattice coordinate and component id.
//  * Plane (n = 3, β = 2, single coset).  The scaled projected points live
//    in the 2-D lattice spanned by d_l^p (grouping) and d_a^p (auxiliary).
//    With the dual functionals A(x) = x·(d_a^p × Π), B(x) = x·(Π × d_l^p)
//    and shared divisor D = det(d_l^p, d_a^p, Π) > 0, the
//    lattice coordinates of a line are t = (A(ĵ)-A(ĵ*))/D along d_l^p and
//    b = (B(ĵ)-B(ĵ*))/D along d_a^p, anchored at the dense lexicographic
//    seed ĵ*.  Groups are (a, b) with a = floor(t/r); each aux chain (fixed
//    b) must meet the domain in one contiguous t-run (convexity gives this
//    for box-like nests; a gap falls back).  Admission requires every
//    projected unit vector to stay on the seed coset (D | A(proj e_i) and
//    D | B(proj e_i)); multi-coset 3-D nests take the line-based fallback.
//
// Group populations, block statistics, TIG arc-class weights, and the
// theorem/lemma checks reduce to IterSpace::line_range queries, and
// Algorithm 2's bisection reduces to ceil-halving of the sorted group order
// (chain) or an alternating-direction fragment bisection (plane) —
// mapping/hypercube_map.hpp.  Neither layout's sweep visits every line:
// each line-range bound is a quasi-affine function of the line's lattice
// coordinates, so a chain's slot range splits at O(terms² + deps)
// breakpoints into runs where every per-line quantity is linear plus
// periodic in the slot, and each run is summed from its first and last
// period (sweep_closed_form(), for_each_chain_run()).  On the plane layout
// those breakpoints are themselves quasi-affine in the aux coordinate b, so
// the aux chains split into b-runs over which a chain's sums are quadratic
// plus periodic in b; each b-run is summed from its first three and its
// last period (for_each_plane_owner_total() for the simulator).  Small
// lattices, plane nests whose k-bounds are not integers, and the per-line
// cross-check (sweep_per_line()) still visit every line.
//
// When no layout applies, build() returns nullopt with a stable fallback
// reason slug (surfaced as the pipeline.lattice_fallback.<reason> metric)
// and the pipeline falls back to the line-based symbolic path
// (partition/grouping.hpp), which materializes groups but is still
// point-free.  docs/iterspace.md § "The group lattice" derives each closed
// form.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "loop/iter_space.hpp"
#include "partition/blocks.hpp"
#include "partition/checkers.hpp"
#include "partition/grouping.hpp"
#include "schedule/hyperplane.hpp"

namespace hypart {

/// Which closed-form family the lattice instantiates.
enum class LatticeLayout {
  Chain,  ///< 2-D nest: 1-D group chain, possibly g residue components
  Plane,  ///< 3-D nest, β = 2: 2-D (a, b) group lattice, single component
};

/// Aggregate block-size statistics of the symbolic grouping (the lattice
/// path's stand-in for the per-block size vector, which is never built).
struct LatticeBlockStats {
  std::uint64_t group_count = 0;     ///< number of groups (== blocks)
  std::uint64_t total_iterations = 0;///< sum of block sizes == |J^n|
  std::int64_t min_block = 0;        ///< smallest block (iteration count)
  std::int64_t max_block = 0;        ///< largest block
};

/// Everything the lattice sweep derives: block statistics, partition stats
/// (block_comm left empty — the per-pair graph is inherently O(groups); the
/// per-offset aggregation below replaces it), per-(dependence, group-offset)
/// arc weights, and the theorem/lemma verdicts.  Memory is
/// O(deps + r + components + breakpoints), independent of N.
struct LatticeSweepResult {
  LatticeBlockStats stats;
  PartitionStats partition;
  /// Group-lattice offset between an arc's source and target groups:
  /// Δa along the grouping chain, Δb along the auxiliary direction (plane
  /// layout), Δcomp across residue components (strided chain layout).
  struct GroupOffset {
    std::int64_t da = 0;
    std::int64_t db = 0;
    std::int64_t dcomp = 0;
    friend bool operator==(const GroupOffset&, const GroupOffset&) = default;
    friend auto operator<=>(const GroupOffset&, const GroupOffset&) = default;
  };
  /// (dep index, group offset) -> number of dependence arcs whose source
  /// and target groups differ by that offset.  The closed-form counterpart
  /// of the TIG edge weights: by Lemmas 2/3 each dependence contributes a
  /// bounded number of offsets.
  std::map<std::pair<std::size_t, GroupOffset>, std::int64_t> offset_weights;
  bool exact_cover = false;
  bool theorem1 = false;
  Theorem2Report theorem2;
  LemmaReport lemmas;

  /// Field-for-field equality (partition.block_comm is never built on the
  /// lattice path and is not compared): the closed form vs per-line check.
  friend bool operator==(const LatticeSweepResult& a, const LatticeSweepResult& b);
};

/// Symbolic grouping of an affine iteration space as a regular group
/// lattice.  Reproduces the dense Grouping (populations, lattice
/// coordinates, component ids, mapping order) exactly on the gated class.
class GroupLattice {
 public:
  /// Identity of one group without materializing it: the dense
  /// Group::lattice coordinates (a[, b]) plus the region-growing component.
  /// Chain groups use (a, comp); plane groups use (a, b) with comp == 0.
  struct GroupKey {
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t comp = 0;
    friend bool operator==(const GroupKey&, const GroupKey&) = default;
    friend auto operator<=>(const GroupKey&, const GroupKey&) = default;
  };

  /// Gate + construction; nullopt when the closed forms do not apply (the
  /// caller falls back to the line-based symbolic path).  When refused and
  /// `fallback_reason` is non-null it receives a stable slug naming the
  /// first failed gate (e.g. "line-interval-hole", "plane-multi-coset").
  /// O(runs log runs) for the chain layout; O(runs + aux chains·terms²)
  /// for the plane — no line is visited unless the plane's k-bounds are
  /// fractional (closed_form_applies() false), where each aux chain's run is
  /// probed line by line.
  static std::optional<GroupLattice> build(const IterSpace& space, const TimeFunction& tf,
                                           const GroupingOptions& opts = {},
                                           std::string* fallback_reason = nullptr);

  // ---- frame --------------------------------------------------------------
  [[nodiscard]] const IterSpace& space() const { return *space_; }
  [[nodiscard]] const TimeFunction& time_function() const { return tf_; }
  [[nodiscard]] LatticeLayout layout() const { return layout_; }
  /// Line-index vector w (primitive, w·u = 0): line of j is c = w·j.
  /// Chain layout only.
  [[nodiscard]] const IntVec& line_index_vector() const { return w_; }
  [[nodiscard]] const IntVec& line_direction() const { return u_; }
  [[nodiscard]] std::int64_t step_stride() const { return sigma_; }
  /// Group size r of Algorithm 1 Step 1 (1 in the degenerate case).
  [[nodiscard]] std::int64_t group_size_r() const { return r_; }
  /// β = rank(mat(D^p)): 2 for the plane layout, 1 for a grouped chain, 0
  /// when every dependence is parallel to Π (degenerate: every line is its
  /// own group).
  [[nodiscard]] std::size_t beta() const {
    return layout_ == LatticeLayout::Plane ? 2 : (grouping_ ? 1 : 0);
  }
  [[nodiscard]] bool degenerate() const { return !grouping_; }
  [[nodiscard]] std::optional<std::size_t> grouping_vector_index() const { return grouping_; }
  /// Auxiliary dependence index (plane layout only).
  [[nodiscard]] std::optional<std::size_t> auxiliary_vector_index() const { return aux_; }
  /// Number of dense region-growing components: the residue count
  /// min(|γ_l|, line interval length) for a strided chain, else 1.
  [[nodiscard]] std::int64_t component_count() const {
    return static_cast<std::int64_t>(comp_t_.size());
  }

  // ---- lines (chain layout) ----------------------------------------------
  [[nodiscard]] std::int64_t c_min() const { return c_lo_; }
  [[nodiscard]] std::int64_t c_max() const { return c_hi_; }
  /// Total populated lines (== projected point count) in either layout.
  [[nodiscard]] std::uint64_t line_count() const { return line_count_; }
  /// Seed line index c* of component 0 (the dense lexicographic seed's
  /// line); component m's seed line is c* + m·lex_direction().
  [[nodiscard]] std::int64_t seed_line() const { return c_seed_; }
  /// Direction (±1) in which the scaled projection grows lexicographically
  /// with c — the order in which the dense grouping seeds components.
  [[nodiscard]] std::int64_t lex_direction() const { return lexdir_; }
  /// Signed slot stride γ_l = w·d_l (lex_direction() when degenerate).
  [[nodiscard]] std::int64_t slot_stride() const { return gamma_l_; }
  /// Residue component of line c (0 when unstrided).
  [[nodiscard]] std::int64_t component_of_line(std::int64_t c) const;
  /// Slot index of line c within its component: t = (c - c_seed_m)/γ_l.
  [[nodiscard]] std::int64_t slot_of_line(std::int64_t c) const;
  /// Points on line c (0 outside [c_min, c_max]); O(dimension).
  [[nodiscard]] std::int64_t line_population(std::int64_t c) const;
  /// Σ line_population over [c1, c2] ∩ [c_min, c_max]; O(|interval|·dim).
  [[nodiscard]] std::uint64_t sum_line_populations(std::int64_t c1, std::int64_t c2) const;

  // ---- groups -------------------------------------------------------------
  /// Group of line c (chain layout): a = floor(t/r) in c's component.
  [[nodiscard]] GroupKey group_of_line(std::int64_t c) const;
  /// Extreme grouping-chain coordinates over all components/aux chains.
  [[nodiscard]] std::int64_t a_min() const { return a_min_; }
  [[nodiscard]] std::int64_t a_max() const { return a_max_; }
  [[nodiscard]] std::uint64_t group_count() const { return group_count_; }
  /// Dense Group::lattice coords: {} degenerate, {a} chain, {a, b} plane.
  [[nodiscard]] IntVec group_lattice_coord(const GroupKey& g) const;
  /// Inclusive line-index interval [c_first, c_last] of a chain group's
  /// slots, clipped to the populated range (boundary groups are partial; a
  /// strided group's interval also contains other components' lines).
  /// Plane layout: the group's inclusive slot interval [t_lo, t_hi] on its
  /// aux chain.
  [[nodiscard]] DimBounds group_line_range(const GroupKey& g) const;
  /// Block size of the group: Σ of its lines' populations; O(r·dimension).
  [[nodiscard]] std::int64_t group_population(const GroupKey& g) const;
  /// Position in the canonical deterministic sort order — ascending
  /// (a, comp) for chains (identical to the dense mapper's β = 1 key:
  /// coordinate, then creation order) and ascending (a, b) for planes.
  [[nodiscard]] std::uint64_t sorted_index_of_group(const GroupKey& g) const;
  [[nodiscard]] GroupKey group_at_sorted_index(std::uint64_t k) const;
  /// Visit every group in canonical sorted order with its population;
  /// O(groups · r · dim) — the node-fault remap's block-size feed.
  void for_each_group(const std::function<void(const GroupKey&, std::int64_t pop)>& visit) const;

  /// One lattice box per slab run (chain) or per aux chain (plane): the
  /// inclusive group-coordinate range along the grouping chain.  Chain
  /// boxes carry the run's line-index interval in [c_lo, c_hi]; plane
  /// boxes carry the aux coordinate b in both.
  struct GroupBox {
    std::int64_t a_lo = 0;
    std::int64_t a_hi = 0;
    std::int64_t c_lo = 0;
    std::int64_t c_hi = 0;
  };
  [[nodiscard]] std::vector<GroupBox> enumerate_boxes() const;

  // ---- dependences --------------------------------------------------------
  [[nodiscard]] const std::vector<IntVec>& original_deps() const { return space_->dependences(); }
  /// Line-index shift of dependence k (chain layout): target line of an arc
  /// from line c is c + line_shift(k) (0 when d_k ∥ Π).
  [[nodiscard]] std::int64_t line_shift(std::size_t k) const { return gamma_[k]; }
  /// Lattice shift of dependence k (plane layout): (Δt, Δb) in slot/aux
  /// coordinates.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> plane_shift(std::size_t k) const {
    return {dt_[k], db_[k]};
  }
  /// Scaled projected dependence s·d - (Π·d)·Π (dense pdep coordinates).
  [[nodiscard]] const IntVec& projected_dep_scaled(std::size_t k) const { return pdeps_[k]; }

  /// Block stats, partition stats, per-offset TIG weights, and (when
  /// `validate`) exact-cover/Theorem 1/Theorem 2/lemma verdicts:
  /// sweep_closed_form() when closed_form_pays(), else sweep_per_line().
  [[nodiscard]] LatticeSweepResult sweep(bool validate = true) const;
  /// The closed form over breakpoint runs, O((terms² + deps)·P·deps) per
  /// component with P the run period in slots (lcm of r and the bound
  /// terms' periods) on the chain layout, and O(b-runs·Q·that) on the plane
  /// with Q the b-period — independent of the line count.  Every group is
  /// still checked, explicitly or through a run's first and last period
  /// (first three and last on the b axis).  Sums are exact or throw
  /// OverflowError; a run whose explicitly evaluated last period departs
  /// from the fitted sums raises ErrorKind::Internal.  Throws
  /// std::logic_error unless closed_form_applies().
  [[nodiscard]] LatticeSweepResult sweep_closed_form(bool validate = true) const;
  /// The per-line pass in either layout, O(lines·(deps + r)·dim): the
  /// reference the closed form must equal field for field
  /// (`--space verify` compares both with the dense path).
  [[nodiscard]] LatticeSweepResult sweep_per_line(bool validate = true) const;
  /// Below this many lines the closed form's runs hold a few lines each and
  /// its set-up (terms, breakpoints, run bookkeeping) costs about what the
  /// per-line pass saves: on small 2-D stencils sweep + simulation break
  /// even between 130 and 260 lines and the closed form wins clearly from
  /// ~400.
  static constexpr std::uint64_t kClosedFormMinLines = 200;
  /// The plane layout's b-runs need several explicitly evaluated aux chains
  /// each, so it pays later: sweep + simulation on a 3-cube break even at
  /// about 550 lines on wavefront3d and 700 on matmul (300 on lu), and the
  /// closed form is 1.25–1.5× faster from ~900 and 2× from ~2 000.
  static constexpr std::uint64_t kPlaneClosedFormMinLines = 800;
  /// True when sweep_closed_form() and the closed-form simulator are
  /// defined: every chain layout, and a plane layout whose k-bounds are
  /// integers (each bound term's slope along the line direction is 0 or
  /// ±1, so a line's k-range is exactly linear in its lattice coordinates).
  [[nodiscard]] bool closed_form_applies() const {
    return layout_ == LatticeLayout::Chain || plane_unit_slopes_;
  }
  /// True when sweep() and the default simulator take the closed form: it
  /// applies and the lattice has at least kClosedFormMinLines lines
  /// (kPlaneClosedFormMinLines on the plane).
  [[nodiscard]] bool closed_form_pays() const {
    return closed_form_applies() &&
           line_count_ >= (layout_ == LatticeLayout::Chain ? kClosedFormMinLines
                                                            : kPlaneClosedFormMinLines);
  }

  /// Totals of one chain run: consecutive slots [t_first, t_last] of one
  /// component over which the line's group and each dependence's target
  /// group stay inside one interval of the caller's sorted-index cuts.
  struct ChainRunTotals {
    GroupKey src;  ///< group of the run's first line
    std::int64_t population = 0;   ///< Σ line populations
    /// Per dependence: target group of the run's first line (nullopt when
    /// that target line is unpopulated) and Σ arc counts over the run.
    std::vector<std::optional<GroupKey>> dst;
    std::vector<std::int64_t> arcs;
  };
  /// Closed-form line and arc-bundle sums of the chain layout, cut so that
  /// ownership by any sorted-index interval partition is constant per run.
  /// `sorted_cuts` are ascending sorted group indices at which the caller's
  /// per-group attribute may change (processor-run edges,
  /// LatticeHypercubeMapping::boundaries).  Chain layout only; cost as
  /// sweep_closed_form() plus O(cuts·deps) breakpoints per component.
  void for_each_chain_run(const std::vector<std::uint64_t>& sorted_cuts,
                          const std::function<void(const ChainRunTotals&)>& visit) const;

  /// Ownership of plane groups in per-aux-chain runs (the CSR fragment
  /// index of LatticeHypercubeMapping): chain `chain_b[i]` (ascending) is
  /// split into runs [offsets[i], offsets[i+1]) of `runs`, each (first a,
  /// owner) in ascending a; a group (a, b) belongs to the last run of its
  /// chain with first a <= a.
  struct PlaneOwners {
    const std::vector<std::int64_t>& chain_b;
    const std::vector<std::size_t>& offsets;
    const std::vector<std::pair<std::int64_t, std::uint64_t>>& runs;
  };
  /// Closed-form line and arc-bundle sums of the plane layout per owner:
  /// `pop(owner, n)` once per owner with its Σ line populations, and
  /// `arcs(src, dst, dep, n)` once per (source owner, target owner,
  /// dependence) with its Σ arc counts.  Aux chains are cut into b-runs at
  /// the breakpoints' crossings and at every b where a chain's (or a
  /// dependence target chain's) interior ownership edges change; chains are
  /// cut into slot runs at those edges.  Throws std::logic_error unless the
  /// plane closed form applies.
  void for_each_plane_owner_total(
      const PlaneOwners& owners, const std::function<void(std::uint64_t, std::int64_t)>& pop,
      const std::function<void(std::uint64_t, std::uint64_t, std::size_t, std::int64_t)>& arcs)
      const;

  /// Visit every populated line (group-contiguous order: component-major
  /// ascending slot for chains, aux-chain-major ascending slot for planes)
  /// with its group, population, and the absolute step of its first point
  /// (Π·entry).  O(lines·dim), O(1) extra memory — the simulator's line
  /// feed.
  void for_each_line(const std::function<void(const GroupKey&, std::int64_t pop,
                                              std::int64_t first_step)>& visit) const;
  /// Visit every (line, dependence) arc bundle: `count` arcs from a line of
  /// group `src` to the shifted line of group `dst`, the first one leaving
  /// at absolute step `first_step`.  Values match partition/symbolic.hpp's
  /// for_each_line_dep.
  void for_each_arc_bundle(
      const std::function<void(const GroupKey& src, const GroupKey& dst, std::size_t dep,
                               std::int64_t count, std::int64_t first_step)>& visit) const;

 private:
  GroupLattice() = default;
  /// Forces an illegal group size r for the Theorem 1 mutation check
  /// (tests/test_group_lattice.cpp).
  friend struct GroupLatticeTestPeer;

  /// One aux chain of the plane layout: the inclusive slot run at aux
  /// coordinate b.
  struct PlaneChainRec {
    std::int64_t b = 0;
    std::int64_t t_lo = 0, t_hi = 0;
  };

  /// Entry point of chain line c for line_range queries: p(c) = c·δ with
  /// w·δ = 1 (not necessarily inside J; line_range only needs a point on
  /// the line).
  [[nodiscard]] IntVec line_anchor(std::int64_t c) const;
  /// Plane chain index holding aux coordinate b; nullptr when absent.
  [[nodiscard]] const PlaneChainRec* plane_chain(std::int64_t b) const;
  /// Chain closed form (group_lattice.cpp): the line-range bound terms as
  /// functions of the line index, and the slot breakpoints of component m
  /// (plus, when `sorted_cuts` is given, its group and target-group edges).
  struct ChainModel;
  [[nodiscard]] ChainModel chain_model() const;
  [[nodiscard]] std::vector<std::int64_t> chain_breaks(
      const ChainModel& model, std::size_t m,
      const std::vector<std::uint64_t>* sorted_cuts) const;
  /// Hand chain line (m, t)'s k-range, anchor step and per-dependence range
  /// and target queries to `fn`; unpopulated lines are skipped.  The line
  /// anchors live in the caller's reusable buffers.
  struct LineBuffers {
    IntVec p, q;
  };
  template <class Fn>
  void with_chain_line(std::size_t m, std::int64_t t, LineBuffers& buf, Fn&& fn) const;
  /// Plane closed form (group_lattice.cpp): the conditions X·t + Y·b + Z ≥ 0
  /// whose truth value can change between lines, and the aux-chain b-period
  /// on which every breakpoint is affine per residue class.
  struct PlaneModel;
  [[nodiscard]] PlaneModel plane_model(std::int64_t align) const;
  /// Slot breakpoints of aux chain `ch` (sorted, unique) into `out`.
  void plane_breaks(const PlaneModel& model, const PlaneChainRec& ch,
                    std::vector<std::int64_t>& out) const;
  /// Sorted b-stops: the aux-chain range and its gaps, the rows where a
  /// condition constant along chains switches, and the rows of every
  /// crossing of two breakpoint lines (or a breakpoint line and a vertical
  /// line t = c of `cut_slots`) inside the populated region.
  [[nodiscard]] std::vector<std::int64_t> plane_b_stops(
      const PlaneModel& model, const std::vector<std::int64_t>& cut_slots) const;
  /// Plane analogue of with_chain_line for line (t, b) of chain b, whose
  /// anchor is seed_entry + t·d_l + b·d_a;
  /// `targets[k]` is the aux chain b + Δb_k (nullptr when absent; `targets`
  /// may be null when `fn` never asks for target groups).  With a
  /// model the k-ranges come from its bound terms, else from
  /// IterSpace::line_range (the per-line reference).
  template <class Fn>
  void with_plane_line(std::int64_t b, std::int64_t t, const PlaneChainRec* const* targets,
                       const PlaneModel* model, LineBuffers& buf, Fn&& fn) const;
  /// Chain layout: line index of slot t in component m.
  [[nodiscard]] std::int64_t chain_line(std::size_t m, std::int64_t t) const {
    return c_seed_ + (degenerate() ? 0 : static_cast<std::int64_t>(m)) * lexdir_ + t * gamma_l_;
  }
  /// Chain layout: group of slot t in component m.
  [[nodiscard]] GroupKey chain_group(std::size_t m, std::int64_t t) const {
    return degenerate() ? GroupKey{t, 0, t}
                        : GroupKey{floor_div(t, r_), 0, static_cast<std::int64_t>(m)};
  }

  const IterSpace* space_ = nullptr;
  TimeFunction tf_;
  LatticeLayout layout_ = LatticeLayout::Chain;
  IntVec u_;       ///< line direction Π/content(Π), Π·u > 0
  IntVec w_;       ///< chain: primitive line-index vector
  IntVec delta_;   ///< chain: lattice generator with w·δ = 1 (anchor direction)
  std::int64_t sigma_ = 1;  ///< step stride Π·u
  std::int64_t scale_ = 1;  ///< s = Π·Π
  std::vector<IntVec> pdeps_;      ///< scaled projected dependences
  std::vector<std::int64_t> gamma_;///< chain: line-index shifts w·d_k
  std::int64_t r_ = 1;
  std::optional<std::size_t> grouping_;  ///< grouping-vector index (nullopt: degenerate)
  std::optional<std::size_t> aux_;       ///< plane: auxiliary dependence index
  std::uint64_t line_count_ = 0;
  std::uint64_t group_count_ = 0;
  std::int64_t a_min_ = 0, a_max_ = 0;

  // Chain layout state.
  std::int64_t c_lo_ = 0, c_hi_ = 0;
  std::int64_t c_seed_ = 0;   ///< component 0's seed line
  std::int64_t lexdir_ = 1;   ///< ±1: lex order of ĵ(c) along c
  std::int64_t gamma_l_ = 1;  ///< signed slot stride (γ_l; lexdir_ when degenerate)
  /// Per-component inclusive slot range [t_min, t_max] (size 1 unless
  /// strided).  Component m's lines are c_seed_ + m·lexdir_ + t·γ_l.
  std::vector<std::pair<std::int64_t, std::int64_t>> comp_t_;

  // Plane layout state.
  IntVec seed_entry_;  ///< original-space entry point of the seed's line
  bool plane_unit_slopes_ = false;  ///< every bound term's |slope along u| <= 1
  std::int64_t b_period_override_ = 0;  ///< test seam: forced plane b-period (0: derived)
  IntVec dl_orig_, da_orig_;  ///< original grouping/auxiliary dependences
  IntVec avec_, bvec_;        ///< dual functionals (cross products), D-normalized
  std::int64_t ddet_ = 1;     ///< shared divisor D = det(d_l^p, d_a^p, Π) > 0
  std::vector<std::int64_t> dt_, db_;  ///< per-dep lattice shifts (Δt, Δb)
  std::vector<PlaneChainRec> chains_;  ///< ascending b, one per aux chain
};

}  // namespace hypart

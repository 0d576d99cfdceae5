#include "partition/group_lattice.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "core/error.hpp"
#include "loop/dependence.hpp"

namespace hypart {

namespace {

/// Π / content(Π) preserving Π's sign — must match projection.cpp's
/// minimal_line_direction so line populations and strides agree bit-for-bit
/// with the dense/line-based paths.
IntVec minimal_line_direction(const IntVec& pi) {
  std::int64_t g = content(pi);
  IntVec u(pi.size());
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = pi[i] / g;
  return u;
}

/// Scaled projection s·x - (Π·x)·Π (the dense ProjectedStructure scaling).
IntVec proj_scaled(const IntVec& x, const IntVec& pi, std::int64_t s) {
  return sub(scale(x, s), scale(pi, dot(pi, x)));
}

bool lex_less(const IntVec& a, const IntVec& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return a[i] < b[i];
  return false;
}

IntVec cross3(const IntVec& x, const IntVec& y) {
  return IntVec{x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                x[0] * y[1] - x[1] * y[0]};
}

std::int64_t pos_mod(std::int64_t a, std::int64_t m) {
  std::int64_t r = a % m;
  return r < 0 ? r + m : r;
}

std::int64_t iabs(std::int64_t x) { return x < 0 ? -x : x; }

/// Tiny set of group offsets: per group and dependence at most a handful of
/// distinct offsets occur (a slot window of width < r lands in at most two
/// groups per lattice direction), so a linear-scan vector beats a node-based
/// std::set in the hot sweep.
struct OffsetSet {
  std::vector<LatticeSweepResult::GroupOffset> v;
  void insert(const LatticeSweepResult::GroupOffset& x) {
    if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
  }
  void merge_into(OffsetSet& o) const {
    for (const auto& x : v) o.insert(x);
  }
  [[nodiscard]] std::size_t size() const { return v.size(); }
  void clear() { v.clear(); }
};

}  // namespace

std::optional<GroupLattice> GroupLattice::build(const IterSpace& space, const TimeFunction& tf,
                                                const GroupingOptions& opts,
                                                std::string* fallback_reason) {
  auto fail = [&](const char* slug) -> std::optional<GroupLattice> {
    if (fallback_reason) *fallback_reason = slug;
    return std::nullopt;
  };
  const std::size_t n = space.dimension();
  if (n != 2 && n != 3) return fail("dimension-unsupported");
  if (space.empty()) return fail("empty-space");
  // Non-default seeding / auxiliary overrides change the dense numbering in
  // ways the closed forms do not model; the fallback path handles them (and
  // reproduces their validation errors).
  if (opts.seed_policy != SeedPolicy::Lexicographic) return fail("seed-policy");
  if (opts.auxiliary_vectors) return fail("aux-override");

  const IntVec& pi = tf.pi;
  if (pi.size() != n || is_zero(pi)) return fail("invalid-hyperplane");

  GroupLattice gl;
  gl.space_ = &space;
  gl.tf_ = tf;
  gl.scale_ = dot(pi, pi);
  gl.u_ = minimal_line_direction(pi);
  gl.sigma_ = gl.scale_ / content(pi);

  // Projected dependences and the replication factors of Algorithm 1 Step 1
  // (r_k = s / gcd(s, content(pdep_k)), as in
  // ProjectedStructure::replication_factor); the grouping vector is the
  // first dependence attaining the maximal r.
  const std::vector<IntVec>& deps = space.dependences();
  const std::size_t nd = deps.size();
  gl.pdeps_.reserve(nd);
  std::int64_t r = 1;
  for (const IntVec& d : deps) {
    IntVec pd = proj_scaled(d, pi, gl.scale_);
    if (!is_zero(pd)) r = std::max(r, gl.scale_ / gcd64(gl.scale_, content(pd)));
    gl.pdeps_.push_back(std::move(pd));
  }
  std::optional<std::size_t> l;
  for (std::size_t k = 0; k < nd; ++k) {
    if (is_zero(gl.pdeps_[k])) continue;
    if (gl.scale_ / gcd64(gl.scale_, content(gl.pdeps_[k])) == r) {
      l = k;
      break;
    }
  }
  if (opts.grouping_vector) {
    // Honor the override only when it is valid (nonzero projection attaining
    // the maximal r); otherwise fall back so the dense path raises its error.
    std::size_t k = *opts.grouping_vector;
    if (k >= nd || is_zero(gl.pdeps_[k]) ||
        gl.scale_ / gcd64(gl.scale_, content(gl.pdeps_[k])) != r)
      return fail("invalid-grouping-override");
    l = k;
  }

  if (n == 2) {
    // ---- chain layout -----------------------------------------------------
    gl.layout_ = LatticeLayout::Chain;
    gl.w_ = IntVec{gl.u_[1], -gl.u_[0]};
    gl.gamma_.reserve(nd);
    for (const IntVec& d : deps) gl.gamma_.push_back(dot(gl.w_, d));

    // Anchor axis: any axis where w has a unit entry (δ = that signed unit
    // vector, w·δ = 1).  Admission additionally needs every slab's
    // line-index image {w·j : j in box} to be a contiguous interval: with
    // unit coordinate i and other coordinate j the image is e_j runs of
    // length e_i shifted by w_j each, connected iff |w_j| <= e_i or there
    // is a single run.  Try each unit axis; a failure on all of them (or no
    // unit entry at all) falls back.
    bool have_unit = false;
    std::size_t unit_axis = 2;
    for (std::size_t i = 0; i < 2; ++i) {
      if (gl.w_[i] != 1 && gl.w_[i] != -1) continue;
      have_unit = true;
      const std::size_t j = 1 - i;
      bool ok = true;
      space.for_each_slab_box([&](const std::vector<DimBounds>& box) {
        std::int64_t ei = box[i].second - box[i].first + 1;
        std::int64_t ej = box[j].second - box[j].first + 1;
        if (iabs(gl.w_[j]) > ei && ej > 1) ok = false;
      });
      if (ok) {
        unit_axis = i;
        break;
      }
    }
    if (!have_unit) return fail("no-unit-w-entry");
    if (unit_axis == 2) return fail("slab-interval-hole");
    gl.delta_ = IntVec{0, 0};
    gl.delta_[unit_axis] = gl.w_[unit_axis];

    // Line-index interval: each slab box contributes its (contiguous) image;
    // the union over slabs must be one contiguous interval (a hole would
    // split the dense BFS chain and the closed forms would mislabel groups).
    std::vector<std::pair<std::int64_t, std::int64_t>> ivs;
    space.for_each_slab_box([&](const std::vector<DimBounds>& box) {
      std::int64_t lo = 0, hi = 0;
      for (std::size_t i = 0; i < 2; ++i) {
        if (gl.w_[i] >= 0) {
          lo += gl.w_[i] * box[i].first;
          hi += gl.w_[i] * box[i].second;
        } else {
          lo += gl.w_[i] * box[i].second;
          hi += gl.w_[i] * box[i].first;
        }
      }
      ivs.emplace_back(lo, hi);
    });
    std::sort(ivs.begin(), ivs.end());
    std::int64_t c_lo = ivs.front().first;
    std::int64_t c_hi = ivs.front().second;
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i].first > c_hi + 1) return fail("line-interval-hole");
      c_hi = std::max(c_hi, ivs[i].second);
    }
    gl.c_lo_ = c_lo;
    gl.c_hi_ = c_hi;
    const std::int64_t len = c_hi - c_lo + 1;
    gl.line_count_ = static_cast<std::uint64_t>(len);

    // Orientation and the seed line.  The dense lexicographic seed is the
    // lex-min scaled projected point; ĵ(c) = c·v with v = proj(δ), so it
    // sits at c_lo when v is lex-positive, else at c_hi.
    IntVec v = proj_scaled(gl.delta_, pi, gl.scale_);
    const bool lexpos = lex_positive(v);
    gl.lexdir_ = lexpos ? 1 : -1;
    gl.c_seed_ = lexpos ? c_lo : c_hi;

    if (l) {
      // One slot step along d_l^p shifts the line index by γ_l = w·d_l.
      // With |γ_l| = g > 1 the lines split into g residue classes mod g;
      // the dense region growing seeds class m at the m-th line in lex
      // order (c_seed + m·lexdir), so component m's slot grid is
      // c = c_seed + m·lexdir + t·γ_l with group a = floor(t/r).
      gl.grouping_ = l;
      gl.r_ = r;
      gl.gamma_l_ = gl.gamma_[*l];
      const std::int64_t g = iabs(gl.gamma_l_);
      const std::int64_t ncomp = std::min(g, len);
      gl.comp_t_.reserve(static_cast<std::size_t>(ncomp));
      gl.a_min_ = std::numeric_limits<std::int64_t>::max();
      gl.a_max_ = std::numeric_limits<std::int64_t>::min();
      for (std::int64_t m = 0; m < ncomp; ++m) {
        const std::int64_t cs = gl.c_seed_ + m * gl.lexdir_;
        std::int64_t tmin, tmax;
        if (gl.gamma_l_ > 0) {
          tmin = ceil_div(c_lo - cs, gl.gamma_l_);
          tmax = floor_div(c_hi - cs, gl.gamma_l_);
        } else {
          tmin = ceil_div(c_hi - cs, gl.gamma_l_);
          tmax = floor_div(c_lo - cs, gl.gamma_l_);
        }
        gl.comp_t_.emplace_back(tmin, tmax);
        const std::int64_t a1 = floor_div(tmin, gl.r_);
        const std::int64_t a2 = floor_div(tmax, gl.r_);
        gl.a_min_ = std::min(gl.a_min_, a1);
        gl.a_max_ = std::max(gl.a_max_, a2);
        gl.group_count_ += static_cast<std::uint64_t>(a2 - a1 + 1);
      }
    } else {
      // Degenerate: every line is its own group and its own dense
      // region-growing component; dense group/component ids follow the
      // lexicographic point order, i.e. ascending slot t = lexdir·(c - c*).
      gl.grouping_ = std::nullopt;
      gl.r_ = 1;
      gl.gamma_l_ = gl.lexdir_;
      gl.comp_t_.emplace_back(0, len - 1);
      gl.a_min_ = 0;
      gl.a_max_ = len - 1;
      gl.group_count_ = static_cast<std::uint64_t>(len);
    }
    return gl;
  }

  // ---- plane layout (n = 3, β = 2, single coset) --------------------------
  gl.layout_ = LatticeLayout::Plane;
  gl.gamma_.assign(nd, 0);
  if (!l) return fail("3d-degenerate");
  // β = 2 needs an auxiliary vector: the first projected dependence outside
  // span(d_l^p) (the dense greedy Step 2 choice).
  std::optional<std::size_t> ax;
  for (std::size_t k = 0; k < nd; ++k) {
    if (is_zero(gl.pdeps_[k])) continue;
    if (!is_zero(cross3(gl.pdeps_[*l], gl.pdeps_[k]))) {
      ax = k;
      break;
    }
  }
  if (!ax) return fail("3d-beta-not-2");
  gl.grouping_ = l;
  gl.aux_ = ax;
  gl.r_ = r;
  gl.dl_orig_ = deps[*l];
  gl.da_orig_ = deps[*ax];

  // Dual functionals: A(x) = x·(d_a^p × Π) and B(x) = x·(Π × d_l^p) with
  // shared divisor D = det(d_l^p, d_a^p, Π) satisfy A(d_l^p) = B(d_a^p) = D
  // and A(d_a^p) = B(d_l^p) = 0, so (t, b) = ((A(ĵ)-A(ĵ*))/D, (B(ĵ)-B(ĵ*))/D)
  // are the integer lattice coordinates of a projected point relative to the
  // dense seed ĵ* — provided every projected unit vector stays on the seed
  // coset (D divides both functionals on proj(e_i)).
  const IntVec& dlp = gl.pdeps_[*l];
  const IntVec& dap = gl.pdeps_[*ax];
  gl.avec_ = cross3(dap, pi);
  gl.bvec_ = cross3(pi, dlp);
  gl.ddet_ = dot(gl.avec_, dlp);
  if (gl.ddet_ == 0) return fail("3d-beta-not-2");
  if (gl.ddet_ < 0) {
    gl.ddet_ = -gl.ddet_;
    gl.avec_ = scale(gl.avec_, -1);
    gl.bvec_ = scale(gl.bvec_, -1);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    IntVec e(3);
    e[i] = 1;
    IntVec pe = proj_scaled(e, pi, gl.scale_);
    if (dot(gl.avec_, pe) % gl.ddet_ != 0 || dot(gl.bvec_, pe) % gl.ddet_ != 0)
      return fail("plane-multi-coset");
  }
  gl.dt_.reserve(nd);
  gl.db_.reserve(nd);
  for (std::size_t k = 0; k < nd; ++k) {
    gl.dt_.push_back(dot(gl.avec_, gl.pdeps_[k]) / gl.ddet_);
    gl.db_.push_back(dot(gl.bvec_, gl.pdeps_[k]) / gl.ddet_);
  }

  // One O(lines) enumeration: per aux chain (fixed raw B) track the slot
  // extremes and the line count, and find the dense lexicographic seed.
  struct Acc {
    std::int64_t t_lo, t_hi;
    std::uint64_t count;
  };
  std::map<std::int64_t, Acc> table;
  bool have_seed = false;
  IntVec jseed, seed_entry;
  std::int64_t qa_seed = 0, qb_seed = 0;
  std::uint64_t nlines = 0;
  space.for_each_line(gl.u_, [&](const IntVec& entry, std::int64_t) {
    IntVec jp = proj_scaled(entry, pi, gl.scale_);
    const std::int64_t qa = dot(gl.avec_, jp) / gl.ddet_;
    const std::int64_t qb = dot(gl.bvec_, jp) / gl.ddet_;
    ++nlines;
    auto [it, fresh] = table.try_emplace(qb, Acc{qa, qa, 1});
    if (!fresh) {
      it->second.t_lo = std::min(it->second.t_lo, qa);
      it->second.t_hi = std::max(it->second.t_hi, qa);
      ++it->second.count;
    }
    if (!have_seed || lex_less(jp, jseed)) {
      have_seed = true;
      jseed = jp;
      seed_entry = entry;
      qa_seed = qa;
      qb_seed = qb;
    }
  });
  if (!have_seed) return fail("empty-space");
  gl.chains_.reserve(table.size());
  gl.a_min_ = std::numeric_limits<std::int64_t>::max();
  gl.a_max_ = std::numeric_limits<std::int64_t>::min();
  for (const auto& [qb, acc] : table) {
    // Each aux chain must meet the domain in one contiguous slot run, else
    // per-chain interval queries would miscount groups.
    if (acc.count != static_cast<std::uint64_t>(acc.t_hi - acc.t_lo + 1))
      return fail("chain-noncontiguous");
    PlaneChainRec rec;
    rec.b = qb - qb_seed;
    rec.t_lo = acc.t_lo - qa_seed;
    rec.t_hi = acc.t_hi - qa_seed;
    gl.chains_.push_back(rec);
    const std::int64_t a1 = floor_div(rec.t_lo, gl.r_);
    const std::int64_t a2 = floor_div(rec.t_hi, gl.r_);
    gl.a_min_ = std::min(gl.a_min_, a1);
    gl.a_max_ = std::max(gl.a_max_, a2);
    gl.group_count_ += static_cast<std::uint64_t>(a2 - a1 + 1);
  }
  gl.jseed_ = std::move(jseed);
  gl.seed_entry_ = std::move(seed_entry);
  gl.line_count_ = nlines;
  gl.comp_t_.emplace_back(0, 0);  // single region-growing component
  gl.c_lo_ = 0;
  gl.c_hi_ = -1;  // chain line-index queries are inert for planes
  return gl;
}

IntVec GroupLattice::line_anchor(std::int64_t c) const {
  return IntVec{c * delta_[0], c * delta_[1]};
}

IntVec GroupLattice::plane_anchor(std::int64_t t, std::int64_t b) const {
  IntVec p = seed_entry_;
  for (std::size_t i = 0; i < p.size(); ++i) p[i] += t * dl_orig_[i] + b * da_orig_[i];
  return p;
}

const GroupLattice::PlaneChainRec* GroupLattice::plane_chain(std::int64_t b) const {
  auto it = std::lower_bound(
      chains_.begin(), chains_.end(), b,
      [](const PlaneChainRec& rec, std::int64_t key) { return rec.b < key; });
  if (it == chains_.end() || it->b != b) return nullptr;
  return &*it;
}

std::int64_t GroupLattice::component_of_line(std::int64_t c) const {
  if (layout_ == LatticeLayout::Plane || degenerate()) return 0;
  const std::int64_t g = iabs(gamma_l_);
  if (g <= 1) return 0;
  return pos_mod((c - c_seed_) * lexdir_, g);
}

std::int64_t GroupLattice::slot_of_line(std::int64_t c) const {
  if (layout_ == LatticeLayout::Plane) return 0;
  const std::int64_t cs = c_seed_ + component_of_line(c) * lexdir_;
  return (c - cs) / gamma_l_;
}

std::int64_t GroupLattice::line_population(std::int64_t c) const {
  if (c < c_lo_ || c > c_hi_) return 0;
  auto range = space_->line_range(line_anchor(c), u_);
  if (!range) return 0;
  return range->second - range->first + 1;
}

std::uint64_t GroupLattice::sum_line_populations(std::int64_t c1, std::int64_t c2) const {
  std::int64_t lo = std::max(c1, c_lo_);
  std::int64_t hi = std::min(c2, c_hi_);
  std::uint64_t total = 0;
  for (std::int64_t c = lo; c <= hi; ++c)
    total += static_cast<std::uint64_t>(line_population(c));
  return total;
}

GroupLattice::GroupKey GroupLattice::group_of_line(std::int64_t c) const {
  const std::int64_t t = slot_of_line(c);
  if (degenerate()) return GroupKey{t, 0, t};
  return GroupKey{floor_div(t, r_), 0, component_of_line(c)};
}

IntVec GroupLattice::group_lattice_coord(const GroupKey& g) const {
  if (degenerate()) return IntVec{};
  if (layout_ == LatticeLayout::Chain) return IntVec{g.a};
  return IntVec{g.a, g.b};
}

DimBounds GroupLattice::group_line_range(const GroupKey& g) const {
  if (layout_ == LatticeLayout::Plane) {
    const PlaneChainRec* ch = plane_chain(g.b);
    if (!ch) return {0, -1};
    return {std::max(g.a * r_, ch->t_lo), std::min(g.a * r_ + r_ - 1, ch->t_hi)};
  }
  if (degenerate()) {
    const std::int64_t c = c_seed_ + g.a * lexdir_;
    return {c, c};
  }
  const auto& [tmin, tmax] = comp_t_[static_cast<std::size_t>(g.comp)];
  const std::int64_t t_lo = std::max(g.a * r_, tmin);
  const std::int64_t t_hi = std::min(g.a * r_ + r_ - 1, tmax);
  const std::int64_t cs = c_seed_ + g.comp * lexdir_;
  const std::int64_t c1 = cs + t_lo * gamma_l_;
  const std::int64_t c2 = cs + t_hi * gamma_l_;
  return {std::min(c1, c2), std::max(c1, c2)};
}

std::int64_t GroupLattice::group_population(const GroupKey& g) const {
  std::int64_t total = 0;
  if (layout_ == LatticeLayout::Plane) {
    auto [t_lo, t_hi] = group_line_range(g);
    for (std::int64_t t = t_lo; t <= t_hi; ++t) {
      auto range = space_->line_range(plane_anchor(t, g.b), u_);
      if (range) total += range->second - range->first + 1;
    }
    return total;
  }
  if (degenerate()) return line_population(c_seed_ + g.a * lexdir_);
  const auto& [tmin, tmax] = comp_t_[static_cast<std::size_t>(g.comp)];
  const std::int64_t t_lo = std::max(g.a * r_, tmin);
  const std::int64_t t_hi = std::min(g.a * r_ + r_ - 1, tmax);
  const std::int64_t cs = c_seed_ + g.comp * lexdir_;
  for (std::int64_t t = t_lo; t <= t_hi; ++t) total += line_population(cs + t * gamma_l_);
  return total;
}

std::uint64_t GroupLattice::sorted_index_of_group(const GroupKey& g) const {
  if (layout_ == LatticeLayout::Chain && degenerate())
    return static_cast<std::uint64_t>(g.a);
  std::uint64_t idx = 0;
  if (layout_ == LatticeLayout::Chain) {
    for (std::size_t m = 0; m < comp_t_.size(); ++m) {
      const std::int64_t a1 = floor_div(comp_t_[m].first, r_);
      const std::int64_t a2 = floor_div(comp_t_[m].second, r_);
      const std::int64_t hi = std::min(a2, g.a - 1);
      if (hi >= a1) idx += static_cast<std::uint64_t>(hi - a1 + 1);
      if (static_cast<std::int64_t>(m) < g.comp && a1 <= g.a && g.a <= a2) ++idx;
    }
  } else {
    for (const PlaneChainRec& ch : chains_) {
      const std::int64_t a1 = floor_div(ch.t_lo, r_);
      const std::int64_t a2 = floor_div(ch.t_hi, r_);
      const std::int64_t hi = std::min(a2, g.a - 1);
      if (hi >= a1) idx += static_cast<std::uint64_t>(hi - a1 + 1);
      if (ch.b < g.b && a1 <= g.a && g.a <= a2) ++idx;
    }
  }
  return idx;
}

GroupLattice::GroupKey GroupLattice::group_at_sorted_index(std::uint64_t k) const {
  if (k >= group_count_) throw std::out_of_range("group_at_sorted_index: no such group");
  if (layout_ == LatticeLayout::Chain && degenerate()) {
    const std::int64_t t = static_cast<std::int64_t>(k);
    return GroupKey{t, 0, t};
  }
  // #groups with coordinate strictly below a, O(components|chains) per probe.
  auto below = [&](std::int64_t a) {
    std::uint64_t cnt = 0;
    if (layout_ == LatticeLayout::Chain) {
      for (const auto& [tmin, tmax] : comp_t_) {
        const std::int64_t a1 = floor_div(tmin, r_);
        const std::int64_t a2 = floor_div(tmax, r_);
        const std::int64_t hi = std::min(a2, a - 1);
        if (hi >= a1) cnt += static_cast<std::uint64_t>(hi - a1 + 1);
      }
    } else {
      for (const PlaneChainRec& ch : chains_) {
        const std::int64_t a1 = floor_div(ch.t_lo, r_);
        const std::int64_t a2 = floor_div(ch.t_hi, r_);
        const std::int64_t hi = std::min(a2, a - 1);
        if (hi >= a1) cnt += static_cast<std::uint64_t>(hi - a1 + 1);
      }
    }
    return cnt;
  };
  std::int64_t lo = a_min_, hi = a_max_;
  while (lo < hi) {  // smallest a with below(a + 1) > k
    const std::int64_t mid = lo + floor_div(hi - lo, 2);
    if (below(mid + 1) > k) hi = mid;
    else lo = mid + 1;
  }
  const std::int64_t a = lo;
  std::uint64_t j = k - below(a);
  if (layout_ == LatticeLayout::Chain) {
    for (std::size_t m = 0; m < comp_t_.size(); ++m) {
      const std::int64_t a1 = floor_div(comp_t_[m].first, r_);
      const std::int64_t a2 = floor_div(comp_t_[m].second, r_);
      if (a1 <= a && a <= a2) {
        if (j == 0) return GroupKey{a, 0, static_cast<std::int64_t>(m)};
        --j;
      }
    }
  } else {
    for (const PlaneChainRec& ch : chains_) {
      const std::int64_t a1 = floor_div(ch.t_lo, r_);
      const std::int64_t a2 = floor_div(ch.t_hi, r_);
      if (a1 <= a && a <= a2) {
        if (j == 0) return GroupKey{a, ch.b, 0};
        --j;
      }
    }
  }
  throw std::out_of_range("group_at_sorted_index: inconsistent lattice");
}

void GroupLattice::for_each_group(
    const std::function<void(const GroupKey&, std::int64_t)>& visit) const {
  if (layout_ == LatticeLayout::Chain && degenerate()) {
    const std::int64_t len = comp_t_.front().second + 1;
    for (std::int64_t t = 0; t < len; ++t) {
      const GroupKey g{t, 0, t};
      visit(g, line_population(c_seed_ + t * lexdir_));
    }
    return;
  }
  for (std::int64_t a = a_min_; a <= a_max_; ++a) {
    if (layout_ == LatticeLayout::Chain) {
      for (std::size_t m = 0; m < comp_t_.size(); ++m) {
        const std::int64_t a1 = floor_div(comp_t_[m].first, r_);
        const std::int64_t a2 = floor_div(comp_t_[m].second, r_);
        if (a1 <= a && a <= a2) {
          const GroupKey g{a, 0, static_cast<std::int64_t>(m)};
          visit(g, group_population(g));
        }
      }
    } else {
      for (const PlaneChainRec& ch : chains_) {
        const std::int64_t a1 = floor_div(ch.t_lo, r_);
        const std::int64_t a2 = floor_div(ch.t_hi, r_);
        if (a1 <= a && a <= a2) {
          const GroupKey g{a, ch.b, 0};
          visit(g, group_population(g));
        }
      }
    }
  }
}

std::vector<GroupLattice::GroupBox> GroupLattice::enumerate_boxes() const {
  std::vector<GroupBox> boxes;
  if (layout_ == LatticeLayout::Plane) {
    boxes.reserve(chains_.size());
    for (const PlaneChainRec& ch : chains_)
      boxes.push_back(GroupBox{floor_div(ch.t_lo, r_), floor_div(ch.t_hi, r_), ch.b, ch.b});
    return boxes;
  }
  const std::int64_t gabs = std::max<std::int64_t>(1, iabs(gamma_l_));
  space_->for_each_slab_box([&](const std::vector<DimBounds>& box) {
    std::int64_t lo = 0, hi = 0;
    for (std::size_t i = 0; i < 2; ++i) {
      if (w_[i] >= 0) {
        lo += w_[i] * box[i].first;
        hi += w_[i] * box[i].second;
      } else {
        lo += w_[i] * box[i].second;
        hi += w_[i] * box[i].first;
      }
    }
    // Extreme grouping-chain coordinates over every residue component whose
    // lines meet this slab's interval (a is monotone in c per component).
    std::int64_t a_lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t a_hi = std::numeric_limits<std::int64_t>::min();
    for (std::size_t m = 0; m < comp_t_.size(); ++m) {
      const std::int64_t cs =
          c_seed_ + (degenerate() ? 0 : static_cast<std::int64_t>(m)) * lexdir_;
      const std::int64_t cm_lo = lo + pos_mod(cs - lo, gabs);
      if (cm_lo > hi) continue;
      const std::int64_t cm_hi = hi - pos_mod(hi - cs, gabs);
      const std::int64_t a1 = group_of_line(cm_lo).a;
      const std::int64_t a2 = group_of_line(cm_hi).a;
      a_lo = std::min(a_lo, std::min(a1, a2));
      a_hi = std::max(a_hi, std::max(a1, a2));
    }
    if (a_lo > a_hi) a_lo = a_hi = 0;
    boxes.push_back(GroupBox{a_lo, a_hi, lo, hi});
  });
  return boxes;
}

void GroupLattice::for_each_line(
    const std::function<void(const GroupKey&, std::int64_t, std::int64_t)>& visit) const {
  if (layout_ == LatticeLayout::Plane) {
    const std::int64_t pi_dl = dot(tf_.pi, dl_orig_);
    const std::int64_t base = dot(tf_.pi, seed_entry_);
    const std::int64_t pi_da = dot(tf_.pi, da_orig_);
    for (const PlaneChainRec& ch : chains_) {
      IntVec p = plane_anchor(ch.t_lo, ch.b);
      std::int64_t step_anchor = base + ch.t_lo * pi_dl + ch.b * pi_da;
      for (std::int64_t t = ch.t_lo; t <= ch.t_hi; ++t) {
        auto range = space_->line_range(p, u_);
        if (range)
          visit(GroupKey{floor_div(t, r_), ch.b, 0}, range->second - range->first + 1,
                step_anchor + range->first * sigma_);
        for (std::size_t i = 0; i < 3; ++i) p[i] += dl_orig_[i];
        step_anchor += pi_dl;
      }
    }
    return;
  }
  const std::int64_t pi_delta = dot(tf_.pi, delta_);
  for (std::size_t m = 0; m < comp_t_.size(); ++m) {
    const auto& [tmin, tmax] = comp_t_[m];
    const std::int64_t cs = c_seed_ + static_cast<std::int64_t>(m) * lexdir_;
    std::int64_t c = cs + tmin * gamma_l_;
    IntVec p = line_anchor(c);
    std::int64_t step_anchor = c * pi_delta;
    for (std::int64_t t = tmin; t <= tmax; ++t) {
      auto range = space_->line_range(p, u_);
      if (range)
        visit(chain_group(m, t), range->second - range->first + 1,
              step_anchor + range->first * sigma_);
      for (std::size_t i = 0; i < 2; ++i) p[i] += gamma_l_ * delta_[i];
      step_anchor += gamma_l_ * pi_delta;
    }
  }
}

void GroupLattice::for_each_arc_bundle(
    const std::function<void(const GroupKey&, const GroupKey&, std::size_t, std::int64_t,
                             std::int64_t)>& visit) const {
  const std::vector<IntVec>& deps = space_->dependences();
  const std::size_t nd = deps.size();
  if (layout_ == LatticeLayout::Plane) {
    const std::int64_t pi_dl = dot(tf_.pi, dl_orig_);
    const std::int64_t pi_da = dot(tf_.pi, da_orig_);
    const std::int64_t base = dot(tf_.pi, seed_entry_);
    for (const PlaneChainRec& ch : chains_) {
      IntVec p = plane_anchor(ch.t_lo, ch.b);
      std::vector<IntVec> pd(nd);
      for (std::size_t k = 0; k < nd; ++k) pd[k] = add(p, deps[k]);
      std::int64_t step_anchor = base + ch.t_lo * pi_dl + ch.b * pi_da;
      for (std::int64_t t = ch.t_lo; t <= ch.t_hi; ++t) {
        auto range = space_->line_range(p, u_);
        if (range) {
          const GroupKey src{floor_div(t, r_), ch.b, 0};
          for (std::size_t k = 0; k < nd; ++k) {
            auto mrange = space_->line_range(pd[k], u_);
            if (!mrange) continue;
            const std::int64_t lo2 = std::max(range->first, mrange->first);
            const std::int64_t hi2 = std::min(range->second, mrange->second);
            if (lo2 > hi2) continue;
            const GroupKey dst{floor_div(t + dt_[k], r_), ch.b + db_[k], 0};
            visit(src, dst, k, hi2 - lo2 + 1, step_anchor + lo2 * sigma_);
          }
        }
        for (std::size_t i = 0; i < 3; ++i) {
          p[i] += dl_orig_[i];
          for (std::size_t k = 0; k < nd; ++k) pd[k][i] += dl_orig_[i];
        }
        step_anchor += pi_dl;
      }
    }
    return;
  }
  const std::int64_t pi_delta = dot(tf_.pi, delta_);
  for (std::size_t m = 0; m < comp_t_.size(); ++m) {
    const auto& [tmin, tmax] = comp_t_[m];
    const std::int64_t cs = c_seed_ + static_cast<std::int64_t>(m) * lexdir_;
    std::int64_t c = cs + tmin * gamma_l_;
    IntVec p = line_anchor(c);
    std::vector<IntVec> pd(nd);
    for (std::size_t k = 0; k < nd; ++k) pd[k] = add(p, deps[k]);
    std::int64_t step_anchor = c * pi_delta;
    for (std::int64_t t = tmin; t <= tmax; ++t) {
      auto range = space_->line_range(p, u_);
      if (range) {
        const GroupKey src = chain_group(m, t);
        for (std::size_t k = 0; k < nd; ++k) {
          auto mrange = space_->line_range(pd[k], u_);
          if (!mrange) continue;
          const std::int64_t lo2 = std::max(range->first, mrange->first);
          const std::int64_t hi2 = std::min(range->second, mrange->second);
          if (lo2 > hi2) continue;
          visit(src, group_of_line(c + gamma_[k]), k, hi2 - lo2 + 1,
                step_anchor + lo2 * sigma_);
        }
      }
      for (std::size_t i = 0; i < 2; ++i) {
        p[i] += gamma_l_ * delta_[i];
        for (std::size_t k = 0; k < nd; ++k) pd[k][i] += gamma_l_ * delta_[i];
      }
      c += gamma_l_;
      step_anchor += gamma_l_ * pi_delta;
    }
  }
}

namespace {

using GroupOffset = LatticeSweepResult::GroupOffset;
using GroupKey = GroupLattice::GroupKey;

/// Key of one integer sum of a sweep: line populations (kind kPop), the
/// group count (kGroups), or the arcs of dependence `kind` landing at group
/// offset `off`.
struct TallyKey {
  std::int64_t kind = 0;
  GroupOffset off{};
  friend bool operator==(const TallyKey&, const TallyKey&) = default;
};
constexpr std::int64_t kPop = -1;
constexpr std::int64_t kGroups = -2;

/// Checked integer sums over a handful of keys (a linear scan beats a map
/// at this size).
struct Tally {
  std::vector<std::pair<TallyKey, std::int64_t>> v;
  void add(const TallyKey& key, std::int64_t x) {
    for (auto& [k, val] : v)
      if (k == key) {
        val = checked::add(val, x, "lattice sweep sums");
        return;
      }
    v.emplace_back(key, x);
  }
  [[nodiscard]] const std::int64_t* find(const TallyKey& key) const {
    for (const auto& [k, val] : v)
      if (k == key) return &val;
    return nullptr;
  }
  [[nodiscard]] std::int64_t get(const TallyKey& key) const {
    const std::int64_t* x = find(key);
    return x ? *x : 0;
  }
};

/// A period no run can hold three of: periodic_sum evaluates every cell.
constexpr std::int64_t kNoPeriod = std::numeric_limits<std::int64_t>::max();

/// Reusable per-period tallies of periodic_sum (kept across runs so the
/// closed form allocates per sweep, not per run).
struct PeriodTallies {
  Tally first, last;
};

/// Σ of a per-cell tally over cells [x0, x1] whose values are linear plus
/// `period`-periodic in the cell index (one run between breakpoints).  The
/// first and last full periods and the remainder are evaluated explicitly
/// by `eval(x, into)`, which may also run per-cell checks; period j in
/// between sums to S_0 + j·Δ with Δ = (S_{J-1} - S_0)/(J - 1), so the
/// middle is an arithmetic series.  A Δ that does not divide exactly means
/// the run was not linear-periodic — a breakpoint is missing — and raises
/// an internal error rather than a wrong sum.
template <class Eval>
void periodic_sum(std::int64_t x0, std::int64_t x1, std::int64_t period, Tally& total,
                  PeriodTallies& scratch, Eval&& eval) {
  const std::int64_t n = x1 - x0 + 1;
  const std::int64_t periods = n / period;
  if (periods < 3) {
    for (std::int64_t x = x0; x <= x1; ++x) eval(x, total);
    return;
  }
  Tally& first = scratch.first;
  Tally& last = scratch.last;
  first.v.clear();
  last.v.clear();
  for (std::int64_t i = 0; i < period; ++i) eval(x0 + i, first);
  const std::int64_t xl = x0 + (periods - 1) * period;
  for (std::int64_t i = 0; i < period; ++i) eval(xl + i, last);
  for (std::int64_t x = x0 + periods * period; x <= x1; ++x) eval(x, total);
  const int128 j1 = periods - 1;
  auto fold = [&](const TallyKey& key) {
    const int128 s0 = first.get(key);
    const int128 sl = last.get(key);
    if ((sl - s0) % j1 != 0)
      throw Error(ErrorKind::Internal, "lattice closed form: run is not linear-periodic");
    const int128 mid = (j1 - 1) * s0 + (sl - s0) / j1 * ((j1 - 1) * j1 / 2);
    total.add(key, checked::narrow(s0 + sl + mid, "lattice closed-form sum"));
  };
  for (const auto& [key, val] : first.v) fold(key);
  for (const auto& [key, val] : last.v)
    if (!first.find(key)) fold(key);
}

/// The per-line accumulator shared by the per-line pass and the closed
/// form's explicitly evaluated groups: sums go to `rec`, per-group
/// statistics and the Theorem 1/Theorem 2/lemma checks run as lines arrive
/// in group-contiguous order.
class SweepState {
 public:
  SweepState(const GroupLattice& gl, bool validate)
      : gl_(gl), validate_(validate), nd_(gl.original_deps().size()), dep_offs_(nd_) {
    window_.reserve(static_cast<std::size_t>(gl.group_size_r()));
    out_.theorem1 = true;
    out_.lemmas.lemma2_holds = true;
    out_.lemmas.lemma3_holds = true;
    out_.stats.min_block = std::numeric_limits<std::int64_t>::max();
  }

  Tally sums;
  Tally* rec = &sums;  ///< where this line's sums go

  /// One populated line of group g with k-range [k_lo, k_hi] and anchor
  /// step Π·anchor; `dep_range(k)` is the k-range of the line shifted by
  /// d_k, `dep_target(k)` the group of its target line (nullopt when that
  /// line is unpopulated or d_k ∥ Π).
  template <class DepRange, class DepTarget>
  void line(const GroupKey& g, std::int64_t k_lo, std::int64_t k_hi, std::int64_t step_anchor,
            DepRange&& dep_range, DepTarget&& dep_target) {
    if (!group_open_ || !(g == cur_)) {
      close_group();
      group_open_ = true;
      cur_ = g;
      rec->add({kGroups, {}}, 1);
    }
    const std::int64_t pop = k_hi - k_lo + 1;
    const std::int64_t first_step = step_anchor + k_lo * gl_.step_stride();
    rec->add({kPop, {}}, pop);
    acc_ += pop;

    if (validate_) {
      // Theorem 1 within the group: lines collide iff their step APs
      // (first + k·σ, k in [0, pop)) intersect — same test as the dense
      // checker, against every earlier line of this group.
      const std::int64_t sigma = gl_.step_stride();
      for (const LineRec& o : window_) {
        const std::int64_t diff = first_step - o.first_step;
        if (diff % sigma != 0) continue;
        const std::int64_t msh = diff / sigma;
        if (msh >= -(pop - 1) && msh <= o.pop - 1) out_.theorem1 = false;
      }
      window_.push_back(LineRec{first_step, pop});
    }

    for (std::size_t k = 0; k < nd_; ++k) {
      // Group-digraph edges use projected-point existence (the dense
      // checker's find_point semantics), not arc counts: an edge exists
      // whenever the shifted line is populated.
      GroupOffset off{};
      std::optional<GroupKey> dst = dep_target(k);
      if (dst) off = GroupOffset{dst->a - g.a, dst->b - g.b, dst->comp - g.comp};
      auto mrange = dep_range(k);
      if (mrange) {
        const std::int64_t lo2 = std::max(k_lo, mrange->first);
        const std::int64_t hi2 = std::min(k_hi, mrange->second);
        if (lo2 <= hi2) rec->add({static_cast<std::int64_t>(k), off}, hi2 - lo2 + 1);
      }
      if (validate_ && dst && !(off == GroupOffset{})) dep_offs_[k].insert(off);
    }
  }

  LatticeSweepResult finish() {
    close_group();
    out_.stats.group_count = static_cast<std::uint64_t>(sums.get({kGroups, {}}));
    out_.stats.total_iterations = static_cast<std::uint64_t>(sums.get({kPop, {}}));
    if (out_.stats.group_count == 0) out_.stats.min_block = 0;
    std::int64_t arc_total = 0, arc_inter = 0;
    for (const auto& [key, val] : sums.v) {
      if (key.kind < 0 || val == 0) continue;
      out_.offset_weights[{static_cast<std::size_t>(key.kind), key.off}] = val;
      arc_total = checked::add(arc_total, val, "lattice arc count");
      if (!(key.off == GroupOffset{})) arc_inter += val;
    }
    out_.partition.total_arcs = static_cast<std::size_t>(arc_total);
    out_.partition.interblock_arcs = static_cast<std::size_t>(arc_inter);
    out_.partition.intrablock_arcs = static_cast<std::size_t>(arc_total - arc_inter);
    out_.exact_cover = out_.stats.total_iterations == gl_.space().size();
    if (validate_) {
      out_.theorem2.m = nd_;
      out_.theorem2.beta = gl_.beta();
      out_.theorem2.bound = 2 * nd_ - gl_.beta();
      out_.theorem2.holds = out_.theorem2.max_out_degree <= out_.theorem2.bound;
    }
    return std::move(out_);
  }

 private:
  struct LineRec {
    std::int64_t first_step;
    std::int64_t pop;
  };

  /// A dependence direction is "special" (Lemma 2) if its projected vector
  /// equals the grouping or an auxiliary vector — the dense checker's
  /// is_special_direction.
  [[nodiscard]] bool is_special(std::size_t k) const {
    const auto l = gl_.grouping_vector_index();
    if (!l) return false;
    const IntVec& pk = gl_.projected_dep_scaled(k);
    if (k == *l || pk == gl_.projected_dep_scaled(*l)) return true;
    const auto ax = gl_.auxiliary_vector_index();
    return ax && (k == *ax || pk == gl_.projected_dep_scaled(*ax));
  }

  void close_group() {
    if (!group_open_) return;
    out_.stats.min_block = std::min(out_.stats.min_block, acc_);
    out_.stats.max_block = std::max(out_.stats.max_block, acc_);
    if (validate_) {
      succ_.clear();
      for (std::size_t k = 0; k < nd_; ++k) {
        if (is_zero(gl_.projected_dep_scaled(k))) continue;
        const std::size_t fan = dep_offs_[k].size();
        if (is_special(k)) {
          out_.lemmas.worst_lemma2_fanout = std::max(out_.lemmas.worst_lemma2_fanout, fan);
          if (fan > 1) out_.lemmas.lemma2_holds = false;
        } else {
          out_.lemmas.worst_lemma3_fanout = std::max(out_.lemmas.worst_lemma3_fanout, fan);
          if (fan > 2) out_.lemmas.lemma3_holds = false;
        }
        dep_offs_[k].merge_into(succ_);
        dep_offs_[k].clear();
      }
      out_.theorem2.max_out_degree = std::max(out_.theorem2.max_out_degree, succ_.size());
    }
    window_.clear();
    acc_ = 0;
    group_open_ = false;
  }

  const GroupLattice& gl_;
  bool validate_;
  std::size_t nd_;
  LatticeSweepResult out_;
  std::vector<LineRec> window_;
  std::vector<OffsetSet> dep_offs_;  ///< per-dep distinct group offsets
  OffsetSet succ_;                   ///< union over deps (out-degree)
  std::int64_t acc_ = 0;             ///< current group's iteration count
  bool group_open_ = false;
  GroupKey cur_{};
};

/// One line_range constraint of a chain line family as a function of the
/// line index c.  A bound term (den > 0) is the real k-bound
/// (alpha·c + beta)/den — k ≥ its ceiling for a lower bound, k ≤ its floor
/// for an upper bound; a feasibility term (den == 0) is the condition
/// alpha·c + beta ≥ 0 (a bound constant along the line direction).
struct ChainTerm {
  std::int64_t alpha = 0, beta = 0, den = 0;
};

/// The constraints of line_range(c·δ + d, u), term for term: at
/// p = c·δ + d, a lower term e of dimension j gives
/// C = p_j - e(p) = c·(δ_j - e·δ) + (d_j - e·d - e_0) and slope
/// m = u_j - e·u; an upper term the negation.  m > 0 bounds k below by
/// ceil(-C/m), m < 0 above by floor(C/-m), m == 0 asks C ≥ 0.
std::vector<ChainTerm> chain_terms(const IterSpace& space, const IntVec& delta, const IntVec& u,
                                   const IntVec& d) {
  auto lin = [](const AffineExpr& e, const IntVec& x) {
    std::int64_t v = 0;
    for (std::size_t k = 0; k < e.coeffs.size() && k < x.size(); ++k) v += e.coeffs[k] * x[k];
    return v;
  };
  std::vector<ChainTerm> out;
  auto push = [&](std::int64_t a, std::int64_t b, std::int64_t m) {
    if (m > 0) out.push_back({-a, -b, m});
    else if (m < 0) out.push_back({a, b, -m});
    else out.push_back({a, b, 0});
  };
  const std::vector<AffineDim>& dims = space.affine_dims();
  for (std::size_t j = 0; j < dims.size(); ++j) {
    for (const AffineExpr& e : dims[j].lower.terms)
      push(delta[j] - lin(e, delta), d[j] - lin(e, d) - e.constant, u[j] - lin(e, u));
    for (const AffineExpr& e : dims[j].upper.terms)
      push(lin(e, delta) - delta[j], lin(e, d) + e.constant - d[j], lin(e, u) - u[j]);
  }
  return out;
}

int128 floor_div128(int128 a, int128 b) {
  int128 q = a / b;
  return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}

/// Record where X·t + Y ≥ 0 changes truth value, as the first slot of the
/// new run, when it falls inside (lo, hi].
void add_sign_break(int128 x, int128 y, std::int64_t lo, std::int64_t hi,
                    std::vector<std::int64_t>& out) {
  if (x == 0) return;
  int128 b = 0;
  constexpr int128 kLim = std::numeric_limits<std::int64_t>::max();
  if (x <= kLim && x >= -kLim && y <= kLim && y >= -kLim) {
    // int64 division: the common case, several times cheaper than int128.
    const auto x64 = static_cast<std::int64_t>(x);
    const auto y64 = static_cast<std::int64_t>(y);
    b = x64 > 0 ? -static_cast<int128>(floor_div(y64, x64))
                : static_cast<int128>(floor_div(-y64, x64)) + 1;
  } else {
    b = x > 0 ? -floor_div128(y, x) : floor_div128(-y, x) + 1;
  }
  if (b > lo && b <= hi) out.push_back(static_cast<std::int64_t>(b));
}

/// Runs of a sorted breakpoint list over [lo, hi]: calls run(s, e) for each
/// maximal breakpoint-free slot interval.
template <class Run>
void for_each_break_run(std::int64_t lo, std::int64_t hi, const std::vector<std::int64_t>& breaks,
                        Run&& run) {
  std::int64_t s = lo;
  for (std::int64_t b : breaks) {
    run(s, b - 1);
    s = b;
  }
  run(s, hi);
}

}  // namespace

struct GroupLattice::ChainModel {
  /// [0]: the lines themselves; [1 + k]: the lines shifted by d_k.
  std::vector<std::vector<ChainTerm>> families;
  /// Slot period of every bound term: lcm of den / gcd(alpha·γ_l, den),
  /// or kNoPeriod when that is too long to use.
  std::int64_t period = 1;
};

GroupLattice::ChainModel GroupLattice::chain_model() const {
  ChainModel model;
  const std::vector<IntVec>& deps = space_->dependences();
  model.families.push_back(chain_terms(*space_, delta_, u_, IntVec(2, 0)));
  for (const IntVec& d : deps) model.families.push_back(chain_terms(*space_, delta_, u_, d));
  // Past this period the first/last-period evaluation is as costly as the
  // lines themselves: kNoPeriod makes every run evaluate line by line
  // (exact, and lcm cannot overflow).
  constexpr std::int64_t kMaxPeriod = std::int64_t{1} << 40;
  for (const auto& fam : model.families)
    for (const ChainTerm& t : fam) {
      if (t.den == 0 || model.period == kNoPeriod) continue;
      const std::int64_t p = t.den / gcd64(t.alpha * gamma_l_, t.den);
      model.period = p > kMaxPeriod ? kNoPeriod : lcm64(model.period, p);
      if (model.period > kMaxPeriod) model.period = kNoPeriod;
    }
  return model;
}

std::vector<std::int64_t> GroupLattice::chain_breaks(
    const ChainModel& model, std::size_t m, const std::vector<std::uint64_t>* sorted_cuts) const {
  const auto [tmin, tmax] = comp_t_[m];
  const std::int64_t cs = chain_line(m, 0);
  const std::int64_t g = gamma_l_;
  std::vector<std::int64_t> out;
  // A term as a function of the slot: (alpha·γ·t + alpha·cs + beta)/den.
  auto slope = [&](const ChainTerm& t) { return static_cast<int128>(t.alpha) * g; };
  auto offset = [&](const ChainTerm& t) {
    return static_cast<int128>(t.alpha) * cs + t.beta;
  };
  // Every pair of bound terms that can meet in one max/min — the line's own
  // bounds with each dependence image's — crosses at most once; between
  // crossings the active term of k_lo, k_hi and each arc overlap is fixed,
  // and so is the sign of the overlap (an empty overlap's clamp).
  auto pairs = [&](const std::vector<ChainTerm>& a, const std::vector<ChainTerm>& b) {
    for (const ChainTerm& x : a) {
      if (x.den == 0) continue;
      for (const ChainTerm& y : b) {
        if (y.den == 0) continue;
        // Both orientations: x ≥ y and y ≥ x change at different slots when
        // the crossing is an integer, which isolates the tie as its own run.
        const int128 dx = slope(x) * y.den - slope(y) * x.den;
        const int128 dy = offset(x) * y.den - offset(y) * x.den;
        add_sign_break(dx, dy, tmin, tmax, out);
        add_sign_break(-dx, -dy, tmin, tmax, out);
      }
    }
  };
  auto feasibility = [&](const std::vector<ChainTerm>& a) {
    for (const ChainTerm& x : a)
      if (x.den == 0) add_sign_break(slope(x), offset(x), tmin, tmax, out);
  };
  const std::vector<ChainTerm>& own = model.families[0];
  pairs(own, own);
  feasibility(own);
  const std::size_t nd = gamma_.size();
  for (std::size_t k = 0; k < nd; ++k) {
    const std::vector<ChainTerm>& fam = model.families[1 + k];
    pairs(own, fam);
    pairs(fam, fam);
    feasibility(fam);
    // The target line c + γ_k enters and leaves [c_lo, c_hi].
    add_sign_break(g, static_cast<int128>(cs) + gamma_[k] - c_lo_, tmin, tmax, out);
    add_sign_break(-static_cast<int128>(g), static_cast<int128>(c_hi_) - cs - gamma_[k], tmin,
                   tmax, out);
  }
  if (sorted_cuts != nullptr) {
    // Ownership edges: the first group at or past each sorted-index cut, in
    // this component and in each dependence's target component (shifted
    // back to source slots).
    std::vector<std::pair<std::size_t, std::int64_t>> targets{{m, 0}};
    for (std::size_t k = 0; k < nd; ++k) {
      if (gamma_[k] == 0) continue;
      const std::int64_t ct = cs + gamma_[k];
      targets.emplace_back(static_cast<std::size_t>(component_of_line(ct)), slot_of_line(ct));
    }
    for (std::uint64_t cut : *sorted_cuts) {
      if (cut == 0 || cut >= group_count_) continue;
      const GroupKey first = group_at_sorted_index(cut);
      for (const auto& [mt, shift] : targets) {
        const std::int64_t edge =
            degenerate() ? first.a
                         : (first.a + (static_cast<std::int64_t>(mt) < first.comp ? 1 : 0)) * r_;
        add_sign_break(1, -(static_cast<int128>(edge) - shift), tmin, tmax, out);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

template <class Fn>
void GroupLattice::with_chain_line(std::size_t m, std::int64_t t, LineBuffers& buf,
                                   Fn&& fn) const {
  const std::vector<IntVec>& deps = space_->dependences();
  const std::int64_t c = chain_line(m, t);
  buf.p.assign({c * delta_[0], c * delta_[1]});
  auto range = space_->line_range(buf.p, u_);
  if (!range) return;
  fn(chain_group(m, t), range->first, range->second, c * dot(tf_.pi, delta_),
     [&](std::size_t k) {
       buf.q.assign({buf.p[0] + deps[k][0], buf.p[1] + deps[k][1]});
       return space_->line_range(buf.q, u_);
     },
     [&](std::size_t k) -> std::optional<GroupKey> {
       if (is_zero(pdeps_[k])) return std::nullopt;
       const std::int64_t ct = c + gamma_[k];
       if (ct < c_lo_ || ct > c_hi_) return std::nullopt;
       return group_of_line(ct);
     });
}

bool operator==(const LatticeSweepResult& a, const LatticeSweepResult& b) {
  auto t2 = [](const Theorem2Report& r) {
    return std::tie(r.m, r.beta, r.bound, r.max_out_degree, r.holds);
  };
  auto lem = [](const LemmaReport& r) {
    return std::tie(r.lemma2_holds, r.lemma3_holds, r.worst_lemma2_fanout,
                    r.worst_lemma3_fanout);
  };
  auto stats = [](const LatticeSweepResult& r) {
    return std::tie(r.stats.group_count, r.stats.total_iterations, r.stats.min_block,
                    r.stats.max_block, r.partition.total_arcs, r.partition.interblock_arcs,
                    r.partition.intrablock_arcs, r.exact_cover, r.theorem1);
  };
  return stats(a) == stats(b) && a.offset_weights == b.offset_weights &&
         t2(a.theorem2) == t2(b.theorem2) && lem(a.lemmas) == lem(b.lemmas);
}

LatticeSweepResult GroupLattice::sweep(bool validate) const {
  return closed_form_pays() ? sweep_closed_form(validate) : sweep_per_line(validate);
}

LatticeSweepResult GroupLattice::sweep_closed_form(bool validate) const {
  if (layout_ != LatticeLayout::Chain)
    throw std::logic_error("GroupLattice::sweep_closed_form: chain layout only");
  SweepState st(*this, validate);
  auto visit = [&](const GroupKey& g, std::int64_t k_lo, std::int64_t k_hi, std::int64_t anchor,
                   auto&& dep_range, auto&& dep_target) {
    st.line(g, k_lo, k_hi, anchor, dep_range, dep_target);
  };
  const ChainModel model = chain_model();
  // Runs are cut into whole groups: a group straddling a breakpoint (or
  // clipped by the component's slot range) is evaluated line by line on its
  // own; the groups between are linear-periodic with a period of
  // lcm(P, r)/r groups.
  const std::int64_t period =
      model.period == kNoPeriod ? kNoPeriod : lcm64(model.period, r_) / r_;
  PeriodTallies scratch;
  LineBuffers buf;
  for (std::size_t m = 0; m < comp_t_.size(); ++m) {
    const auto [tmin, tmax] = comp_t_[m];
    const std::int64_t a_first = floor_div(tmin, r_);
    const std::int64_t a_last = floor_div(tmax, r_);
    std::vector<std::int64_t> stops{a_first, a_last + 1};
    auto isolate = [&](std::int64_t a) {
      stops.push_back(a);
      stops.push_back(a + 1);
    };
    if (pos_mod(tmin, r_) != 0) isolate(a_first);
    if (pos_mod(tmax + 1, r_) != 0) isolate(a_last);
    for (std::int64_t b : chain_breaks(model, m, nullptr)) {
      if (pos_mod(b, r_) == 0) stops.push_back(b / r_);
      else isolate(floor_div(b, r_));
    }
    std::sort(stops.begin(), stops.end());
    stops.erase(std::unique(stops.begin(), stops.end()), stops.end());
    for (std::size_t i = 0; i + 1 < stops.size(); ++i) {
      periodic_sum(stops[i], stops[i + 1] - 1, period, st.sums, scratch,
                   [&](std::int64_t a, Tally& into) {
                     st.rec = &into;
                     const std::int64_t lo = std::max(a * r_, tmin);
                     const std::int64_t hi = std::min(a * r_ + r_ - 1, tmax);
                     for (std::int64_t t = lo; t <= hi; ++t) with_chain_line(m, t, buf, visit);
                     st.rec = &st.sums;
                   });
    }
  }
  return st.finish();
}

void GroupLattice::for_each_chain_run(
    const std::vector<std::uint64_t>& sorted_cuts,
    const std::function<void(const ChainRunTotals&)>& visit) const {
  if (layout_ != LatticeLayout::Chain)
    throw std::logic_error("GroupLattice::for_each_chain_run: chain layout only");
  const std::size_t nd = gamma_.size();
  const ChainModel model = chain_model();
  ChainRunTotals run;
  run.dst.resize(nd);
  run.arcs.resize(nd);
  Tally sums;
  PeriodTallies scratch;
  LineBuffers buf;
  auto line_sums = [&](std::size_t m, std::int64_t t, Tally& into) {
    with_chain_line(m, t, buf,
                    [&](const GroupKey&, std::int64_t k_lo, std::int64_t k_hi, std::int64_t,
                        auto&& dep_range, auto&&) {
                      into.add({kPop, {}}, k_hi - k_lo + 1);
                      for (std::size_t k = 0; k < nd; ++k) {
                        auto mrange = dep_range(k);
                        if (!mrange) continue;
                        const std::int64_t lo2 = std::max(k_lo, mrange->first);
                        const std::int64_t hi2 = std::min(k_hi, mrange->second);
                        if (lo2 <= hi2)
                          into.add({static_cast<std::int64_t>(k), {}}, hi2 - lo2 + 1);
                      }
                    });
  };
  for (std::size_t m = 0; m < comp_t_.size(); ++m) {
    const auto [tmin, tmax] = comp_t_[m];
    for_each_break_run(tmin, tmax, chain_breaks(model, m, &sorted_cuts),
                       [&](std::int64_t s, std::int64_t e) {
                         sums.v.clear();
                         periodic_sum(s, e, model.period, sums, scratch,
                                      [&](std::int64_t t, Tally& into) { line_sums(m, t, into); });
                         const std::int64_t c = chain_line(m, s);
                         run.src = chain_group(m, s);
                         run.population = sums.get({kPop, {}});
                         for (std::size_t k = 0; k < nd; ++k) {
                           run.arcs[k] = sums.get({static_cast<std::int64_t>(k), {}});
                           const std::int64_t ct = c + gamma_[k];
                           run.dst[k] = ct < c_lo_ || ct > c_hi_
                                            ? std::nullopt
                                            : std::optional<GroupKey>(group_of_line(ct));
                         }
                         visit(run);
                       });
  }
}

LatticeSweepResult GroupLattice::sweep_per_line(bool validate) const {
  SweepState st(*this, validate);
  if (layout_ == LatticeLayout::Chain) {
    auto visit = [&](const GroupKey& g, std::int64_t k_lo, std::int64_t k_hi, std::int64_t anchor,
                     auto&& dep_range, auto&& dep_target) {
      st.line(g, k_lo, k_hi, anchor, dep_range, dep_target);
    };
    LineBuffers buf;
    for (std::size_t m = 0; m < comp_t_.size(); ++m)
      for (std::int64_t t = comp_t_[m].first; t <= comp_t_[m].second; ++t)
        with_chain_line(m, t, buf, visit);
    return st.finish();
  }
  const std::vector<IntVec>& deps = space_->dependences();
  const std::size_t nd = deps.size();
  const IntVec& pi = tf_.pi;
  const std::int64_t pi_dl = dot(pi, dl_orig_);
  const std::int64_t pi_da = dot(pi, da_orig_);
  const std::int64_t base = dot(pi, seed_entry_);
  for (const PlaneChainRec& ch : chains_) {
    IntVec p = plane_anchor(ch.t_lo, ch.b);
    std::vector<IntVec> pd(nd);
    for (std::size_t k = 0; k < nd; ++k) pd[k] = add(p, deps[k]);
    std::int64_t step_anchor = base + ch.t_lo * pi_dl + ch.b * pi_da;
    for (std::int64_t t = ch.t_lo; t <= ch.t_hi; ++t) {
      auto range = space_->line_range(p, u_);
      if (range) {
        const GroupKey g{floor_div(t, r_), ch.b, 0};
        st.line(
            g, range->first, range->second, step_anchor,
            [&](std::size_t k) { return space_->line_range(pd[k], u_); },
            [&](std::size_t k) -> std::optional<GroupKey> {
              if (is_zero(pdeps_[k])) return std::nullopt;
              const PlaneChainRec* tc = plane_chain(ch.b + db_[k]);
              const std::int64_t tt = t + dt_[k];
              if (!tc || tt < tc->t_lo || tt > tc->t_hi) return std::nullopt;
              return GroupKey{floor_div(tt, r_), tc->b, 0};
            });
      }
      for (std::size_t i = 0; i < 3; ++i) {
        p[i] += dl_orig_[i];
        for (std::size_t k = 0; k < nd; ++k) pd[k][i] += dl_orig_[i];
      }
      step_anchor += pi_dl;
    }
  }
  return st.finish();
}

}  // namespace hypart

#include "loop/iter_space.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/error.hpp"
#include "loop/index_set.hpp"

namespace hypart {

namespace {

/// Cap on the decomposition's work: outer sliced values visited plus runs
/// stored.  Beyond it the runs are no cheaper than the dense enumeration
/// they replace, so construction refuses (std::length_error) and callers
/// fall back to the dense path.
constexpr std::size_t kMaxRuns = std::size_t{1} << 22;

__extension__ typedef unsigned __int128 uint128;

/// Directional derivative of an affine bound along u: sum_k coeffs[k]*u[k].
std::int64_t bound_slope(const AffineExpr& e, const IntVec& u) {
  std::int64_t s = 0;
  for (std::size_t k = 0; k < e.coeffs.size(); ++k) s += e.coeffs[k] * u[k];
  return s;
}

/// An affine function base + slope·v of the run coordinate, exact in int128.
struct Lin {
  int128 base = 0;
  int128 slope = 0;
  [[nodiscard]] int128 at(int128 v) const { return base + slope * v; }
};

int128 floor_div128(int128 a, int128 b) {
  int128 q = a / b;
  return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}

using Terms = std::vector<Lin>;

/// Bound terms of every dimension along v: dimension j's lower bound is the
/// max of its lo terms, its upper bound the min of its hi terms.
struct TermBox {
  Terms lo, hi;
  std::vector<std::size_t> lo_end, hi_end;  ///< one past each dimension's terms
  void clear() {
    lo.clear();
    hi.clear();
    lo_end.clear();
    hi_end.clear();
  }
  void end_dim() {
    lo_end.push_back(lo.size());
    hi_end.push_back(hi.size());
  }
};

/// Reused buffers of for_each_piece.
struct PieceScratch {
  std::vector<int128> cuts;
  Terms lo, hi;
};

/// Visit, ascending, the pieces of [a, b] on which every bound of `box` is
/// one affine term and every dimension is non-empty: cut where two lower
/// (or two upper) terms of one dimension cross, pick each bound's active
/// term per piece, and clip the piece to lower <= upper in every dimension
/// (the emptiness edges: within a piece each is one half-line).
/// visit(x, y, lo, hi) receives the active terms per dimension.
template <class Visit>
void for_each_piece(const TermBox& box, int128 a, int128 b, PieceScratch& s, Visit&& visit) {
  if (a > b) return;
  const std::size_t n = box.lo_end.size();
  s.cuts.clear();
  auto add_cuts = [&](const Terms& t, std::size_t from, std::size_t to) {
    for (std::size_t p = from; p < to; ++p)
      for (std::size_t q = p + 1; q < to; ++q) {
        if (t[p].slope == t[q].slope) continue;
        // The terms cross at x* = (q.base - p.base) / (p.slope - q.slope):
        // their order is fixed on v <= floor(x*) and on v > x*.
        const int128 c = floor_div128(t[q].base - t[p].base, t[p].slope - t[q].slope) + 1;
        if (a < c && c <= b) s.cuts.push_back(c);
      }
  };
  for (std::size_t j = 0; j < n; ++j) {
    add_cuts(box.lo, j == 0 ? 0 : box.lo_end[j - 1], box.lo_end[j]);
    add_cuts(box.hi, j == 0 ? 0 : box.hi_end[j - 1], box.hi_end[j]);
  }
  std::sort(s.cuts.begin(), s.cuts.end());
  s.cuts.erase(std::unique(s.cuts.begin(), s.cuts.end()), s.cuts.end());
  s.cuts.push_back(b + 1);
  s.lo.resize(n);
  s.hi.resize(n);
  // The active term is the extreme one at the piece's left end; on a tie,
  // the one that stays extreme to its right.
  auto pick = [](const Terms& t, std::size_t from, std::size_t to, int128 x, bool upper) {
    std::size_t best = from;
    int128 bv = t[from].at(x);
    for (std::size_t k = from + 1; k < to; ++k) {
      const int128 val = t[k].at(x);
      const bool better = upper ? (val < bv || (val == bv && t[k].slope < t[best].slope))
                                : (val > bv || (val == bv && t[k].slope > t[best].slope));
      if (better) {
        best = k;
        bv = val;
      }
    }
    return t[best];
  };
  int128 left = a;
  for (const int128 next : s.cuts) {
    int128 x = left, y = next - 1;
    left = next;
    for (std::size_t j = 0; j < n && x <= y; ++j) {
      s.lo[j] = pick(box.lo, j == 0 ? 0 : box.lo_end[j - 1], box.lo_end[j], x, false);
      s.hi[j] = pick(box.hi, j == 0 ? 0 : box.hi_end[j - 1], box.hi_end[j], x, true);
      clip_nonneg(x, y, s.hi[j].base - s.lo[j].base, s.hi[j].slope - s.lo[j].slope);
    }
    if (x <= y) visit(x, y, s.lo, s.hi);
  }
}

/// a * b, saturating at 2^127 (operands below 2^127).
uint128 sat_mul(uint128 a, uint128 b) {
  constexpr uint128 kSat = uint128{1} << 127;
  if (a != 0 && b > kSat / a) return kSat;
  return a * b;
}

/// C(len, m) mod 2^128 (0 when m > len): m! is cancelled against the m
/// consecutive factors by gcds before the wrapping product.
uint128 binomial_mod(uint128 len, std::size_t m) {
  std::vector<uint128> f(m);
  for (std::size_t r = 0; r < m; ++r) f[r] = len - r;
  for (std::uint64_t d = 2; d <= m; ++d) {
    std::uint64_t rest = d;
    for (std::size_t r = 0; r < m && rest > 1; ++r) {
      const std::uint64_t g = std::gcd(static_cast<std::uint64_t>(f[r] % rest), rest);
      f[r] /= g;
      rest /= g;
    }
  }
  uint128 out = 1;
  for (const uint128 x : f) out *= x;
  return out;
}

/// Σ_{v=x}^{y} Π_j e_j(v) for affine extents e_j >= 1 on [x, y]: the number
/// of points in the slabs of a run (or of a run overlap).  Exact, or
/// OverflowError(what) when the sum passes INT64_MAX.
///
/// The summand is a polynomial P of degree d (the non-constant extents), so
/// the sum is Σ_{i<=d} Δ^i P(x) · C(len, i+1) (Newton's forward
/// differences, exact for any len).  That is evaluated wrapping mod 2^128,
/// which is exact once the nonnegative upper bound len · Π max(e_j(x),
/// e_j(y)) certifies the sum is below 2^125.  Past that certificate the
/// middle third of [x, y] bounds the sum from below (every extent there is
/// at least a third of its larger end), which exceeds INT64_MAX for any d
/// below 36.
std::uint64_t sum_of_products(int128 x, int128 y, const Terms& ext, const char* what) {
  constexpr uint128 kMax = INT64_MAX;
  const uint128 len = static_cast<uint128>(y - x + 1);
  std::size_t d = 0;
  uint128 upper = len, lower = (len - 1) / 3;
  for (const Lin& e : ext) {
    const uint128 top = static_cast<uint128>(std::max(e.at(x), e.at(y)));
    upper = sat_mul(upper, top);
    lower = sat_mul(lower, e.slope == 0 ? top : (top + 2) / 3);
    if (e.slope != 0) ++d;
  }
  if (upper <= uint128{1} << 125) {
    std::vector<uint128> c(d + 1);
    for (std::size_t i = 0; i <= d; ++i) {
      c[i] = 1;
      for (const Lin& e : ext) c[i] *= static_cast<uint128>(e.at(x + static_cast<int128>(i)));
    }
    for (std::size_t i = 1; i <= d; ++i)
      for (std::size_t j = d; j >= i; --j) c[j] -= c[j - 1];
    uint128 total = 0;
    for (std::size_t i = 0; i <= d; ++i) total += c[i] * binomial_mod(len, i + 1);
    if (total > kMax) throw OverflowError(what);
    return static_cast<std::uint64_t>(total);
  }
  if (lower > kMax) throw OverflowError(what);
  // Only reachable with 36 or more non-constant extents: sum slab by slab.
  uint128 total = 0;
  for (int128 v = x; v <= y; ++v) {
    uint128 p = 1;
    for (const Lin& e : ext) p = sat_mul(p, static_cast<uint128>(e.at(v)));
    total += p;
    if (total > kMax) throw OverflowError(what);
  }
  return static_cast<std::uint64_t>(total);
}

/// total + add, or OverflowError(what) past INT64_MAX.
void add_count(std::uint64_t& total, std::uint64_t add, const char* what) {
  if (__builtin_add_overflow(total, add, &total) || total > static_cast<std::uint64_t>(INT64_MAX))
    throw OverflowError(what);
}

/// Append to `out` (n bounds per box) disjoint boxes covering
/// box \ (other + u); other == nullptr means the subtrahend is empty.  Per
/// dimension, carve off the parts of the remainder strictly below / above
/// the shifted range, then restrict the remainder to the overlap — at most
/// two pieces per dimension, all disjoint.  `cur` is scratch.
void box_difference(const std::vector<DimBounds>& box, const std::vector<DimBounds>* other,
                    const IntVec& u, std::vector<DimBounds>& cur, std::vector<DimBounds>& out) {
  const std::size_t n = box.size();
  if (other == nullptr) {
    out.insert(out.end(), box.begin(), box.end());
    return;
  }
  cur = box;
  for (std::size_t j = 0; j < n; ++j) {
    const std::int64_t slo = (*other)[j].first + u[j];
    const std::int64_t shi = (*other)[j].second + u[j];
    if (cur[j].first < slo) {
      out.insert(out.end(), cur.begin(), cur.end());
      out[out.size() - n + j] = {cur[j].first, std::min(cur[j].second, slo - 1)};
    }
    if (cur[j].second > shi) {
      out.insert(out.end(), cur.begin(), cur.end());
      out[out.size() - n + j] = {std::max(cur[j].first, shi + 1), cur[j].second};
    }
    cur[j] = {std::max(cur[j].first, slo), std::min(cur[j].second, shi)};
    if (cur[j].first > cur[j].second) return;  // remainder fully carved off
  }
  // cur lies inside other + u: those points are not entries.
}

}  // namespace

void clip_nonneg(int128& x, int128& y, int128 base, int128 slope) {
  if (slope > 0)
    x = std::max(x, -floor_div128(base, slope));
  else if (slope < 0)
    y = std::min(y, floor_div128(base, -slope));
  else if (base < 0)
    y = x - 1;
}

IterSpace::IterSpace(std::vector<DimBounds> bounds, std::vector<IntVec> dependences) {
  dims_.reserve(bounds.size());
  for (const auto& [lo, hi] : bounds) dims_.push_back({AffineExpr(lo), AffineExpr(hi)});
  deps_ = std::move(dependences);
  init();
}

IterSpace IterSpace::from_affine(std::vector<AffineDim> dims, std::vector<IntVec> dependences) {
  IterSpace s;
  s.dims_ = std::move(dims);
  s.deps_ = std::move(dependences);
  s.init();
  return s;
}

IterSpace::IterSpace(const LoopNest& nest, std::vector<IntVec> dependences) {
  dims_.reserve(nest.depth());
  for (const LoopDim& d : nest.dims()) dims_.push_back({d.lower, d.upper});
  deps_ = std::move(dependences);
  init();
}

IterSpace IterSpace::from_nest(const LoopNest& nest, const DependenceOptions& opts) {
  DependenceInfo info = analyze_dependences(nest, opts);
  return IterSpace(nest, info.distance_vectors());
}

void IterSpace::init() {
  const std::size_t n = dims_.size();
  if (n == 0) throw std::invalid_argument("IterSpace: empty bounds");
  for (const IntVec& d : deps_) {
    if (d.size() != n) throw std::invalid_argument("IterSpace: dependence dimension mismatch");
    if (is_zero(d)) throw std::invalid_argument("IterSpace: zero dependence vector");
  }
  // Bounds of dimension j may reference only dimensions k < j.
  std::vector<bool> referenced(n, false);
  for (std::size_t j = 0; j < n; ++j) {
    for (const BoundExpr* b : {&dims_[j].lower, &dims_[j].upper}) {
      for (const AffineExpr& e : b->terms) {
        if (e.coeffs.size() > n)
          throw std::invalid_argument("IterSpace: bound references out-of-range index");
        for (std::size_t k = 0; k < e.coeffs.size(); ++k) {
          if (e.coeffs[k] == 0) continue;
          if (k >= j)
            throw std::invalid_argument("IterSpace: bound references a non-outer index");
          referenced[k] = true;
        }
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k)
    if (referenced[k]) sliced_.push_back(k);

  // Runs: fix the outer sliced coordinates (ascending, so every bound's
  // referenced dimensions are already pinned), write every bound term as
  // an affine function of the last sliced coordinate v, and cut v's range
  // into the pieces where each bound is one term and the slab is non-empty.
  const std::size_t t = sliced_.empty() ? n : sliced_.back();
  IntVec vals(n, 0);  // vals[t] stays 0: a term at v = 0 is its base
  std::size_t work = 0;
  auto note_work = [&] {
    if (++work > kMaxRuns)
      throw std::length_error(
          "IterSpace: slab runs exceed the symbolic cap (too many sliced subdomains)");
  };
  auto term = [&](const AffineExpr& e) {
    return Lin{e.evaluate(vals), t < e.coeffs.size() ? e.coeffs[t] : 0};
  };
  TermBox box;
  PieceScratch scratch;
  std::vector<RunBound> rb(n);
  auto emit_prefix = [&] {
    note_work();
    box.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j == t) {
        box.lo.push_back({0, 1});
        box.hi.push_back({0, 1});
      } else if (referenced[j]) {
        box.lo.push_back({vals[j], 0});
        box.hi.push_back({vals[j], 0});
      } else {
        for (const AffineExpr& e : dims_[j].lower.terms) box.lo.push_back(term(e));
        for (const AffineExpr& e : dims_[j].upper.terms) box.hi.push_back(term(e));
      }
      box.end_dim();
    }
    int128 a = 0, b = 0;
    if (t < n) {
      a = dims_[t].lower.evaluate_lower(vals);
      b = dims_[t].upper.evaluate_upper(vals);
    }
    const std::size_t first = runs_.size();
    for_each_piece(box, a, b, scratch, [&](int128 x, int128 y, const Terms& lo, const Terms& hi) {
      for (std::size_t j = 0; j < n; ++j) {
        // Bases are terms evaluated at v = 0 and slopes are coefficients,
        // so both are int64; every slab bound inside [x, y] lies between
        // its endpoint values.
        rb[j] = {static_cast<std::int64_t>(lo[j].base), static_cast<std::int64_t>(lo[j].slope),
                 static_cast<std::int64_t>(hi[j].base), static_cast<std::int64_t>(hi[j].slope)};
        for (const int128 v : {x, y}) {
          (void)checked::narrow(lo[j].at(v), "IterSpace: slab bounds");
          (void)checked::narrow(hi[j].at(v), "IterSpace: slab bounds");
        }
      }
      // A cut where the crossing terms are not active leaves two pieces
      // with the same bounds: join them, so every run is maximal.
      if (runs_.size() > first && runs_.back().v_hi + 1 == x &&
          std::equal(rb.begin(), rb.end(), run_bounds(runs_.size() - 1).begin())) {
        runs_.back().v_hi = static_cast<std::int64_t>(y);
        return;
      }
      note_work();
      runs_.push_back({static_cast<std::int64_t>(x), static_cast<std::int64_t>(y)});
      run_bounds_.insert(run_bounds_.end(), rb.begin(), rb.end());
    });
  };
  std::function<void(std::size_t)> enumerate = [&](std::size_t si) {
    if (si + 1 >= sliced_.size()) {
      emit_prefix();
      return;
    }
    const std::size_t d = sliced_[si];
    const std::int64_t lo = dims_[d].lower.evaluate_lower(vals);
    const std::int64_t hi = dims_[d].upper.evaluate_upper(vals);
    for (std::int64_t v = lo; v <= hi; ++v) {
      vals[d] = v;
      enumerate(si + 1);
    }
    vals[d] = 0;
  };
  enumerate(0);

  constexpr const char* kCount = "IterSpace: iteration count";
  Terms ext(n);
  for (std::size_t k = 0; k < runs_.size(); ++k) {
    const std::span<const RunBound> b = run_bounds(k);
    for (std::size_t j = 0; j < n; ++j)
      ext[j] = {int128{b[j].hi_base} - b[j].lo_base + 1, int128{b[j].hi_slope} - b[j].lo_slope};
    add_count(size_, sum_of_products(runs_[k].v_lo, runs_[k].v_hi, ext, kCount), kCount);
    slab_count_ += static_cast<std::size_t>(runs_[k].v_hi - runs_[k].v_lo) + 1;
  }

  if (sliced_.empty()) {
    rect_bounds_.reserve(n);
    const IntVec zeros(n, 0);
    for (const AffineDim& d : dims_)
      rect_bounds_.emplace_back(d.lower.evaluate_lower(zeros), d.upper.evaluate_upper(zeros));
  }
}

int IterSpace::compare_prefix(std::size_t k, const std::int64_t* prefix) const {
  const RunBound* b = run_bounds_.data() + k * dims_.size();
  for (std::size_t i = 0; i + 1 < sliced_.size(); ++i) {
    const std::int64_t x = b[sliced_[i]].lo_base;
    if (x != prefix[i]) return x < prefix[i] ? -1 : 1;
  }
  return 0;
}

std::size_t IterSpace::lower_run(const std::int64_t* prefix, std::int64_t v) const {
  std::size_t lo = 0, hi = runs_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const int c = compare_prefix(mid, prefix);
    if (c < 0 || (c == 0 && runs_[mid].v_hi < v))
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

std::size_t IterSpace::run_at(const std::int64_t* prefix, std::int64_t v) const {
  const std::size_t k = lower_run(prefix, v);
  if (k < runs_.size() && compare_prefix(k, prefix) == 0 && runs_[k].v_lo <= v) return k;
  return runs_.size();
}

void IterSpace::slab_box(std::size_t k, std::int64_t v, std::vector<DimBounds>& box) const {
  const std::span<const RunBound> b = run_bounds(k);
  for (std::size_t j = 0; j < b.size(); ++j) box[j] = {b[j].lo(v), b[j].hi(v)};
}

const std::vector<DimBounds>& IterSpace::bounds() const {
  if (!is_rectangular())
    throw std::logic_error("IterSpace::bounds: affine space has no single box");
  return rect_bounds_;
}

std::int64_t IterSpace::extent(std::size_t i) const {
  if (!is_rectangular())
    throw std::logic_error("IterSpace::extent: affine space has no single box");
  const auto& [lo, hi] = rect_bounds_.at(i);
  return hi < lo ? 0 : hi - lo + 1;
}

bool IterSpace::contains(const IntVec& p) const {
  if (p.size() != dims_.size()) return false;
  for (std::size_t j = 0; j < dims_.size(); ++j)
    if (p[j] < dims_[j].lower.evaluate_lower(p) || p[j] > dims_[j].upper.evaluate_upper(p))
      return false;
  return true;
}

std::uint64_t IterSpace::arc_count(const IntVec& d) const {
  if (d.size() != dims_.size())
    throw std::invalid_argument("IterSpace::arc_count: dimension mismatch");
  const std::size_t n = dims_.size();
  const std::size_t m = sliced_.size();
  const std::int64_t dv = m == 0 ? 0 : d[sliced_.back()];
  IntVec target(m == 0 ? 0 : m - 1);
  constexpr const char* kArcs = "IterSpace::arc_count";
  TermBox box;
  PieceScratch scratch;
  Terms ext(n);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < runs_.size(); ++k) {
    // Slab (prefix, v) sends its arcs into slab (prefix + d_prefix, v + dv):
    // visit the target runs overlapping [v_lo + dv, v_hi + dv].
    const std::span<const RunBound> src = run_bounds(k);
    bool outside = false;
    for (std::size_t i = 0; i + 1 < m; ++i)
      outside |= __builtin_add_overflow(src[sliced_[i]].lo_base, d[sliced_[i]], &target[i]);
    const int128 a_src = runs_[k].v_lo, b_src = runs_[k].v_hi;
    if (outside || a_src + dv > INT64_MAX || b_src + dv < INT64_MIN) continue;
    const std::int64_t first_v = static_cast<std::int64_t>(std::max<int128>(a_src + dv, INT64_MIN));
    for (std::size_t q = lower_run(target.data(), first_v);
         q < runs_.size() && compare_prefix(q, target.data()) == 0 && runs_[q].v_lo <= b_src + dv;
         ++q) {
      const int128 a = std::max<int128>(a_src, int128{runs_[q].v_lo} - dv);
      const int128 b = std::min<int128>(b_src, int128{runs_[q].v_hi} - dv);
      const std::span<const RunBound> dst = run_bounds(q);
      // Per dimension: source box ∩ (target box at v + dv) - d.
      box.clear();
      for (std::size_t j = 0; j < n; ++j) {
        box.lo.push_back({src[j].lo_base, src[j].lo_slope});
        box.lo.push_back({dst[j].lo_base + int128{dst[j].lo_slope} * dv - d[j], dst[j].lo_slope});
        box.hi.push_back({src[j].hi_base, src[j].hi_slope});
        box.hi.push_back({dst[j].hi_base + int128{dst[j].hi_slope} * dv - d[j], dst[j].hi_slope});
        box.end_dim();
      }
      for_each_piece(box, a, b, scratch, [&](int128 x, int128 y, const Terms& lo, const Terms& hi) {
        for (std::size_t j = 0; j < n; ++j)
          ext[j] = {hi[j].base - lo[j].base + 1, hi[j].slope - lo[j].slope};
        add_count(total, sum_of_products(x, y, ext, kArcs), kArcs);
      });
    }
  }
  return total;
}

std::uint64_t IterSpace::total_arc_count() const {
  std::uint64_t n = 0;
  for (const IntVec& d : deps_)
    if (__builtin_add_overflow(n, arc_count(d), &n))
      throw OverflowError("IterSpace::total_arc_count");
  return n;
}

std::int64_t IterSpace::min_step(const IntVec& pi) const {
  return corner_step(pi, true, "IterSpace::min_step");
}

std::int64_t IterSpace::max_step(const IntVec& pi) const {
  return corner_step(pi, false, "IterSpace::max_step");
}

std::int64_t IterSpace::corner_step(const IntVec& pi, bool lowest, const char* what) const {
  if (pi.size() != dims_.size())
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  if (empty()) throw std::logic_error(std::string(what) + ": empty space");
  // Exact in int128 (|Π·x| < n·2^126 for any int64 corner); only the
  // extreme is narrowed back, so a wrapping span is an OverflowError.  The
  // extreme corner of a slab is affine in v, so its extreme over a run is
  // at v_lo or v_hi.
  int128 best = lowest ? INT64_MAX : INT64_MIN;
  for (std::size_t k = 0; k < runs_.size(); ++k) {
    const std::span<const RunBound> b = run_bounds(k);
    for (const std::int64_t v : {runs_[k].v_lo, runs_[k].v_hi}) {
      int128 s = 0;
      for (std::size_t i = 0; i < b.size(); ++i)
        s += static_cast<int128>(pi[i]) * ((pi[i] >= 0) == lowest ? b[i].lo(v) : b[i].hi(v));
      best = lowest ? std::min(best, s) : std::max(best, s);
    }
  }
  return checked::narrow(best, what);
}

std::optional<std::pair<std::int64_t, std::int64_t>> IterSpace::line_range(
    const IntVec& p, const IntVec& u) const {
  const std::size_t n = dims_.size();
  if (p.size() != n || u.size() != n)
    throw std::invalid_argument("IterSpace::line_range: dimension mismatch");
  if (is_zero(u)) throw std::invalid_argument("IterSpace::line_range: zero direction");
  std::int64_t k_lo = INT64_MIN, k_hi = INT64_MAX;
  // Each bound is linear along the line: at p + k*u the constraint
  // lower_j(x) <= x_j (resp. x_j <= upper_j(x)) becomes c + k*m >= 0 with
  // the c, m below; m > 0 bounds k from below, m < 0 from above, m == 0 is
  // a constant feasibility test.
  auto apply = [&](std::int64_t c, std::int64_t m) -> bool {
    if (m > 0)
      k_lo = std::max(k_lo, ceil_div(-c, m));
    else if (m < 0)
      k_hi = std::min(k_hi, floor_div(-c, m));
    else if (c < 0)
      return false;
    return k_lo <= k_hi;
  };
  // Multi-term bounds contribute one half-line per term: max(l1,l2) <= x_j
  // is the conjunction of the per-term constraints, so intersecting them
  // keeps the run contiguous.
  for (std::size_t j = 0; j < n; ++j) {
    for (const AffineExpr& t : dims_[j].lower.terms)
      if (!apply(p[j] - t.evaluate(p), u[j] - bound_slope(t, u))) return std::nullopt;
    for (const AffineExpr& t : dims_[j].upper.terms)
      if (!apply(t.evaluate(p) - p[j], bound_slope(t, u) - u[j])) return std::nullopt;
  }
  // A bounded polyhedron cannot admit a half-infinite line; reaching here
  // with an open side would mean the nest's bounds do not close the domain.
  if (k_lo == INT64_MIN || k_hi == INT64_MAX)
    throw std::logic_error("IterSpace::line_range: unbounded line in a finite space");
  return std::make_pair(k_lo, k_hi);
}

void IterSpace::for_each_line(
    const IntVec& u, const std::function<void(const IntVec&, std::int64_t)>& visit) const {
  const std::size_t n = dims_.size();
  if (u.size() != n) throw std::invalid_argument("IterSpace::for_each_line: dimension mismatch");
  if (is_zero(u)) throw std::invalid_argument("IterSpace::for_each_line: zero direction");
  if (empty()) return;

  // The entry points inside slab key are B_key \ (B_{key-u_S} + u): a point
  // of B_key leaves J along -u exactly when its predecessor p - u is
  // outside the only slab that could hold it (slab keys translate with u).
  // For a rectangular space this degenerates to the classic B \ (B + u)
  // boundary faces.  Runs are expanded slab by slab into reused buffers.
  const std::size_t m = sliced_.size();
  const std::int64_t uv = m == 0 ? 0 : u[sliced_.back()];
  IntVec pred_prefix(m == 0 ? 0 : m - 1);
  std::vector<DimBounds> box(n), pred(n), cur(n), pieces;
  IntVec p(n);
  for (std::size_t k = 0; k < runs_.size(); ++k) {
    const std::span<const RunBound> b = run_bounds(k);
    bool outside = false;
    for (std::size_t i = 0; i + 1 < m; ++i)
      outside |= __builtin_sub_overflow(b[sliced_[i]].lo_base, u[sliced_[i]], &pred_prefix[i]);
    for (std::int64_t v = runs_[k].v_lo;; ++v) {
      slab_box(k, v, box);
      std::int64_t pv = 0;
      std::size_t q = runs_.size();
      if (!outside && !__builtin_sub_overflow(v, uv, &pv)) q = run_at(pred_prefix.data(), pv);
      pieces.clear();
      if (q < runs_.size()) slab_box(q, pv, pred);
      box_difference(box, q < runs_.size() ? &pred : nullptr, u, cur, pieces);

      for (std::size_t off = 0; off < pieces.size(); off += n) {
        const DimBounds* region = pieces.data() + off;
        // Odometer walk of the piece; the population is the closed-form
        // run length from the entry (line_range's k starts at 0 on an
        // entry).
        for (std::size_t d = 0; d < n; ++d) p[d] = region[d].first;
        while (true) {
          auto range = line_range(p, u);
          visit(p, range->second + 1);
          std::size_t d = n;
          while (d > 0 && p[d - 1] == region[d - 1].second) {
            p[d - 1] = region[d - 1].first;
            --d;
          }
          if (d == 0) break;
          ++p[d - 1];
        }
      }
      if (v == runs_[k].v_hi) break;
    }
  }
}

}  // namespace hypart

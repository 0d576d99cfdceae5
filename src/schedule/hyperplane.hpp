// hypart — Lamport's hyperplane method (time transformation).
//
// A linear time function Π schedules iteration x at step Π·x; it is valid
// iff Π·d > 0 for every dependence vector d (paper Section II).  All points
// on one hyperplane Π·x = c are independent and execute simultaneously.
// This module validates time functions, evaluates schedule length over an
// index set, and searches for an optimal small-integer Π.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "graph/comp_structure.hpp"
#include "loop/iter_space.hpp"
#include "numeric/int_linalg.hpp"

namespace hypart {

/// A linear schedule Π (integer row vector).
struct TimeFunction {
  IntVec pi;

  [[nodiscard]] std::size_t dimension() const { return pi.size(); }
  /// Execution step of index point x (the hyperplane containing it).
  [[nodiscard]] std::int64_t step_of(const IntVec& x) const { return dot(pi, x); }
  /// Π·Π, the scaling constant used by exact projection.
  [[nodiscard]] std::int64_t norm2() const { return dot(pi, pi); }

  [[nodiscard]] std::string to_string() const { return hypart::to_string(pi); }
};

/// True iff Π·d > 0 for every dependence vector in D.
bool is_valid_time_function(const TimeFunction& tf, const std::vector<IntVec>& dependences);

/// Summary of the schedule a time function induces on a vertex set.
struct ScheduleProfile {
  std::int64_t first_step = 0;
  std::int64_t last_step = 0;
  std::size_t step_count = 0;      ///< number of distinct non-empty steps
  std::size_t max_parallelism = 0; ///< largest hyperplane population
  std::map<std::int64_t, std::size_t> points_per_step;

  /// Schedule length (steps spanned, inclusive).
  [[nodiscard]] std::int64_t span() const { return last_step - first_step + 1; }
};

ScheduleProfile profile_schedule(const TimeFunction& tf, const std::vector<IntVec>& points);

struct TimeFunctionSearchOptions {
  std::int64_t max_coefficient = 3;  ///< search box |pi_k| <= max_coefficient
  bool nonnegative_only = false;     ///< restrict to pi_k >= 0
};

/// Exhaustively search the small-integer box for the Π minimizing schedule
/// span over the given vertex set (ties: smaller Π·Π, then lexicographic).
/// Returns nullopt if no valid Π exists in the box.
std::optional<TimeFunction> search_time_function(const ComputationStructure& q,
                                                 const TimeFunctionSearchOptions& opts = {});

/// Symbolic variant: identical candidate order and tie-breaks, but the span
/// is evaluated at slab corners (a linear functional's extremes on a box),
/// and a corner is affine along a slab run, so only the run endpoints are
/// visited: O(candidates · runs · dim) — it returns exactly the Π the dense
/// search finds for the same space.
std::optional<TimeFunction> search_time_function(const IterSpace& space,
                                                 const TimeFunctionSearchOptions& opts = {});

/// The all-ones time function (the paper uses Π = (1,..,1) throughout);
/// throws if it is invalid for the given dependences.
TimeFunction uniform_time_function(const std::vector<IntVec>& dependences, std::size_t dim);

}  // namespace hypart

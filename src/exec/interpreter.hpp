// hypart — value-level interpreters: sequential and distributed execution.
//
// The cost simulator (sim/exec_sim.hpp) prices a partitioned, mapped loop;
// these interpreters actually *run* it.  The distributed interpreter walks
// the one execution schedule (exec/schedule.hpp) in hyperplane order: every
// processor has a private local store, and each crossing value is stored
// straight into its consumer's store, exactly where Algorithm 1's analysis
// says communication happens.
// Agreement with the sequential interpreter is the strongest form of the
// paper's Theorem 1: the partition and mapping preserve program semantics,
// not just the schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/comp_structure.hpp"
#include "loop/dependence.hpp"
#include "loop/expr.hpp"
#include "loop/loop_nest.hpp"
#include "mapping/tig.hpp"
#include "partition/blocks.hpp"

namespace hypart {

/// Values of one array, keyed by element index.
using ValueMap = std::unordered_map<IntVec, double, IntVecHash>;

/// Written values of all arrays.
struct ArrayStore {
  std::unordered_map<std::string, ValueMap> arrays;

  void store(const std::string& array, const IntVec& element, double value);
  /// nullopt if the element was never written.
  [[nodiscard]] std::optional<double> load(const std::string& array, const IntVec& element) const;
  [[nodiscard]] std::size_t total_elements() const;
};

/// Initial array contents ("host memory"): value of any element not yet
/// written.  Must be a pure function.
using InitFn = std::function<double(const std::string& array, const IntVec& element)>;

/// A deterministic, array- and index-dependent initial value; keeps tests
/// sensitive to element mix-ups.
double default_init(const std::string& array, const IntVec& element);

/// Execute the nest in source (lexicographic) order.  Requires every
/// statement to be executable (built with LoopNestBuilder::assign).
ArrayStore run_sequential(const LoopNest& nest, const InitFn& init = default_init);

struct DistributedStats {
  std::int64_t value_messages = 0;  ///< values forwarded between processors
  std::int64_t halo_loads = 0;      ///< initial-data loads into local stores
  std::int64_t steps = 0;           ///< hyperplane steps executed
  std::vector<std::int64_t> per_proc_iterations;
};

struct DistributedResult {
  ArrayStore written;  ///< merged written values (last write in step order wins)
  DistributedStats stats;
};

/// Rejects nests whose element updates do not form single dependence-
/// ordered chains (write-access nullspace of dimension >= 2): the
/// hyperplane schedule cannot serialize such reductions, so distributed
/// execution would lose updates.  Called by every distributed executor.
void require_serializable_updates(const LoopNest& nest);

/// Execute the partitioned, mapped nest under message-passing semantics.
/// Every processor sees only its local store; produced values are forwarded
/// along the analyzed dependences to the processors of the dependent
/// iterations.  Throws if statements are not executable or updates are not
/// serializable (see require_serializable_updates).
DistributedResult run_distributed(const LoopNest& nest, const ComputationStructure& q,
                                  const TimeFunction& tf, const Partition& part,
                                  const Mapping& mapping, const DependenceInfo& deps,
                                  const InitFn& init = default_init);

struct EquivalenceReport {
  bool equal = false;
  std::size_t compared = 0;
  std::string first_mismatch;  ///< empty when equal
};

/// Element-wise comparison of written values (absolute tolerance).
EquivalenceReport compare_stores(const ArrayStore& expected, const ArrayStore& actual,
                                 double tolerance = 1e-9);

}  // namespace hypart

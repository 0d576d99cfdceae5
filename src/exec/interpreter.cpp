#include "exec/interpreter.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "exec/schedule.hpp"
#include "loop/index_set.hpp"
#include "numeric/rat_matrix.hpp"

namespace hypart {

void ArrayStore::store(const std::string& array, const IntVec& element, double value) {
  arrays[array][element] = value;
}

std::optional<double> ArrayStore::load(const std::string& array, const IntVec& element) const {
  auto it = arrays.find(array);
  if (it == arrays.end()) return std::nullopt;
  auto jt = it->second.find(element);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

std::size_t ArrayStore::total_elements() const {
  std::size_t n = 0;
  for (const auto& [name, values] : arrays) n += values.size();
  return n;
}

double default_init(const std::string& array, const IntVec& element) {
  // Deterministic and distinct per array and element; small magnitudes to
  // keep floating-point comparisons stable across summation orders.
  std::size_t h = std::hash<std::string>{}(array);
  for (std::int64_t x : element)
    h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return 0.25 + static_cast<double>(h % 1024) / 4096.0;
}

void require_serializable_updates(const LoopNest& nest) {
  // Distributed execution relies on every element's updates forming a
  // single dependence-ordered chain.  A write access whose nullspace has
  // dimension >= 2 (e.g. y[i,j] inside a 4-deep nest) updates one element
  // from a whole sub-lattice of iterations; the hyperplane schedule then
  // runs some of those updates concurrently and the chain model would lose
  // updates.  Refuse rather than silently compute something else.
  for (const Statement& s : nest.statements()) {
    const ArrayAccess& w = s.accesses.front();
    if (w.kind != AccessKind::Write) continue;
    RatMat f = RatMat::from_int(w.access_matrix(nest.depth()));
    if (f.nullspace().size() >= 2)
      throw std::invalid_argument(
          "interpreter: statement '" + s.label + "' updates array '" + w.array +
          "' along a reduction lattice of dimension >= 2; the hyperplane schedule "
          "cannot serialize those updates (restructure the reduction into a chain)");
  }
}

ArrayStore run_sequential(const LoopNest& nest, const InitFn& init) {
  require_executable(nest, "run_sequential");
  ArrayStore store;
  IndexSet is(nest);
  auto load = [&](const std::string& array, const IntVec& element) {
    std::optional<double> v = store.load(array, element);
    return v ? *v : init(array, element);
  };
  is.for_each([&](const IntVec& iter) {
    for (const Statement& s : nest.statements()) {
      double value = evaluate(s.rhs, load, iter);
      const ArrayAccess& w = s.accesses.front();  // assign() puts the write first
      store.store(w.array, eval_subscripts(w.subscripts, iter), value);
    }
  });
  return store;
}

DistributedResult run_distributed(const LoopNest& nest, const ComputationStructure& q,
                                  const TimeFunction& tf, const Partition& part,
                                  const Mapping& mapping, const DependenceInfo& deps,
                                  const InitFn& init) {
  require_executable(nest, "run_distributed");
  require_serializable_updates(nest);
  const ExecSchedule sched(q, tf, part, mapping, deps);
  std::vector<Worker> workers;
  for (ProcId p = 0; p < sched.processor_count(); ++p) workers.emplace_back(sched, p, nest, init);

  // Every iteration in (step, vertex) order; a crossing value is delivered
  // by storing it straight into the consumer's local store.
  DistributedResult result;
  result.stats.per_proc_iterations.assign(workers.size(), 0);
  auto deliver = [&](const CrossingSend& send, const std::string& array, const IntVec& element,
                     double value) {
    workers[send.target].receive(send.sink, array, element, value);
    ++result.stats.value_messages;
    return true;
  };
  for (std::size_t k = 0; k < sched.order().size(); ++k) {
    const std::size_t vid = sched.order()[k];
    if (k == 0 || sched.step(vid) != sched.step(sched.order()[k - 1])) ++result.stats.steps;
    ++result.stats.per_proc_iterations[sched.owner(vid)];
    workers[sched.owner(vid)].step(vid, deliver);
  }
  WriteMerge merge;
  for (const Worker& w : workers) {
    result.stats.halo_loads += w.halo_loads();
    merge.add(w.writes());
  }
  result.written = merge.result();
  return result;
}

EquivalenceReport compare_stores(const ArrayStore& expected, const ArrayStore& actual,
                                 double tolerance) {
  EquivalenceReport rep;
  rep.equal = true;
  for (const auto& [array, values] : expected.arrays) {
    for (const auto& [element, value] : values) {
      ++rep.compared;
      std::optional<double> got = actual.load(array, element);
      if (!got || std::abs(*got - value) > tolerance) {
        rep.equal = false;
        if (rep.first_mismatch.empty()) {
          std::ostringstream os;
          os << array << to_string(element) << ": expected " << value << ", got "
             << (got ? std::to_string(*got) : std::string("<missing>"));
          rep.first_mismatch = os.str();
        }
      }
    }
  }
  // Extra written elements in `actual` are also mismatches.
  for (const auto& [array, values] : actual.arrays) {
    auto it = expected.arrays.find(array);
    for (const auto& [element, value] : values) {
      (void)value;
      if (it == expected.arrays.end() || !it->second.contains(element)) {
        rep.equal = false;
        if (rep.first_mismatch.empty())
          rep.first_mismatch = array + to_string(element) + ": unexpected write";
      }
    }
  }
  return rep;
}

}  // namespace hypart

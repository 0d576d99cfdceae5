#include "exec/schedule.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace hypart {

ExecSchedule::ExecSchedule(const ComputationStructure& q, const TimeFunction& tf,
                           const Partition& part, const Mapping& mapping,
                           const DependenceInfo& deps)
    : q_(&q), deps_(&deps) {
  if (mapping.block_to_proc.size() != part.block_count())
    throw std::invalid_argument("execution schedule: mapping/partition size mismatch");
  const std::vector<IntVec>& vertices = q.vertices();
  const std::size_t nverts = vertices.size();
  const std::size_t nprocs = mapping.processor_count;

  owner_.resize(nverts);
  step_.resize(nverts);
  proc_begin_.assign(nprocs + 1, 0);
  for (std::size_t v = 0; v < nverts; ++v) {
    owner_[v] = mapping.block_to_proc[part.block_of(v)];
    if (owner_[v] >= nprocs)
      throw std::invalid_argument("execution schedule: block mapped to processor " +
                                  std::to_string(owner_[v]) + " of " + std::to_string(nprocs));
    ++proc_begin_[owner_[v] + 1];
    step_[v] = tf.step_of(vertices[v]);
    if (v == 0 || step_[v] < min_step_) min_step_ = step_[v];
    if (v == 0 || step_[v] > max_step_) max_step_ = step_[v];
  }

  order_.resize(nverts);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    if (step_[a] != step_[b]) return step_[a] < step_[b];
    return vertices[a] < vertices[b];
  });
  // Stable scatter by owner keeps each processor's slice in (step, vertex).
  std::partial_sum(proc_begin_.begin(), proc_begin_.end(), proc_begin_.begin());
  proc_order_.resize(nverts);
  std::vector<std::size_t> fill(proc_begin_.begin(), proc_begin_.end() - 1);
  for (std::size_t v : order_) proc_order_[fill[owner_[v]]++] = v;

  send_begin_.assign(nverts + 1, 0);
  expected_.assign(nverts, 0);
  for (std::size_t v = 0; v < nverts; ++v) {
    for (std::size_t k = 0; k < deps.dependences.size(); ++k) {
      auto it = q.vertex_index().find(add(vertices[v], deps.dependences[k].distance));
      if (it == q.vertex_index().end() || owner_[it->second] == owner_[v]) continue;
      sends_.push_back({k, it->second, owner_[it->second]});
      ++expected_[it->second];
    }
    send_begin_[v + 1] = sends_.size();
  }
}

void require_executable(const LoopNest& nest, const std::string& who) {
  for (const Statement& s : nest.statements())
    if (!s.is_executable())
      throw std::invalid_argument(who + ": statement '" + s.label +
                                  "' has no executable right-hand side (use "
                                  "LoopNestBuilder::assign)");
}

IntVec eval_subscripts(const std::vector<AffineExpr>& subs, const IntVec& iteration) {
  IntVec element(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) element[i] = subs[i].evaluate(iteration);
  return element;
}

Worker::Worker(const ExecSchedule& sched, ProcId me, const LoopNest& nest, const InitFn& init)
    : sched_(&sched), me_(me), nest_(&nest), init_(&init), received_(sched.order().size(), 0) {}

void Worker::execute(const IntVec& iteration, std::int64_t step) {
  auto read = [&](const std::string& array, const IntVec& element) {
    if (std::optional<double> v = values_.load(array, element)) return *v;
    const double h = (*init_)(array, element);
    values_.store(array, element, h);  // now resident in local memory
    ++halo_loads_;
    return h;
  };
  for (const Statement& s : nest_->statements()) {
    const double value = evaluate(s.rhs, read, iteration);
    const ArrayAccess& w = s.accesses.front();  // assign() puts the write first
    IntVec element = eval_subscripts(w.subscripts, iteration);
    values_.store(w.array, element, value);
    writes_.push_back({w.array, std::move(element), step, value});
  }
}

double Worker::forward(const std::string& array, const IntVec& element) {
  if (std::optional<double> v = values_.load(array, element)) return *v;
  // The source never touched this element locally (possible only for reuse
  // chains whose access pattern skipped it): ship host data.
  ++halo_loads_;
  return (*init_)(array, element);
}

void WriteMerge::add(const WriteRecord& w) {
  auto [it, fresh] = latest_[w.array].try_emplace(w.element, w.step, w.value);
  if (!fresh && it->second.first <= w.step) it->second = {w.step, w.value};
}

ArrayStore WriteMerge::result() const {
  ArrayStore merged;
  for (const auto& [array, values] : latest_)
    for (const auto& [element, step_value] : values)
      merged.store(array, element, step_value.second);
  return merged;
}

}  // namespace hypart

// hypart — the execution schedule every executor shares.
//
// The paper's execution model: each hypercube node runs its blocks
// hyperplane by hyperplane and sends one value per interblock arc.  This
// header computes that model once per (partition, mapping) and runs it one
// processor at a time.  The distributed interpreter, the threaded runtime,
// the process workers and the SPMD processor trace all walk an
// ExecSchedule; each keeps only what really differs — how a value is
// delivered (a direct store, a mailbox post, a DATA frame) and how a worker
// waits for its inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/interpreter.hpp"

namespace hypart {

/// One crossing dependence arc out of a vertex: once the vertex has run, the
/// source element of dependence `dep` is shipped to `target`, the processor
/// of the dependent iteration `sink`.
struct CrossingSend {
  std::size_t dep = 0;
  std::size_t sink = 0;
  ProcId target = 0;
};

/// The static schedule of a partitioned, mapped nest.  Sends and expected
/// receive counts come from one `vertex_index()` lookup of v + d per
/// (vertex, dependence).  Keeps references to `q` and `deps`.
class ExecSchedule {
 public:
  /// Throws std::invalid_argument when the mapping does not cover the
  /// partition or names a processor outside `mapping.processor_count`.
  ExecSchedule(const ComputationStructure& q, const TimeFunction& tf, const Partition& part,
               const Mapping& mapping, const DependenceInfo& deps);

  [[nodiscard]] std::size_t processor_count() const { return proc_begin_.size() - 1; }
  [[nodiscard]] const IntVec& vertex(std::size_t v) const { return q_->vertices()[v]; }
  [[nodiscard]] const Dependence& dependence(std::size_t k) const {
    return deps_->dependences[k];
  }
  [[nodiscard]] ProcId owner(std::size_t v) const { return owner_[v]; }
  [[nodiscard]] std::int64_t step(std::size_t v) const { return step_[v]; }
  [[nodiscard]] std::int64_t min_step() const { return min_step_; }
  [[nodiscard]] std::int64_t max_step() const { return max_step_; }
  /// Every vertex, ordered by (hyperplane step, vertex).
  [[nodiscard]] std::span<const std::size_t> order() const { return order_; }
  /// Processor p's vertices, ordered by (hyperplane step, vertex).
  [[nodiscard]] std::span<const std::size_t> vertices_of(ProcId p) const {
    return std::span(proc_order_).subspan(proc_begin_[p], proc_begin_[p + 1] - proc_begin_[p]);
  }
  /// Vertex v's crossing sends, in dependence order.
  [[nodiscard]] std::span<const CrossingSend> sends_of(std::size_t v) const {
    return std::span(sends_).subspan(send_begin_[v], send_begin_[v + 1] - send_begin_[v]);
  }
  /// Values vertex v receives from other processors before it can run.
  [[nodiscard]] std::uint32_t expected(std::size_t v) const { return expected_[v]; }

 private:
  const ComputationStructure* q_;
  const DependenceInfo* deps_;
  std::vector<ProcId> owner_;
  std::vector<std::int64_t> step_;
  std::int64_t min_step_ = 0;
  std::int64_t max_step_ = 0;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> proc_order_;
  std::vector<std::size_t> proc_begin_;
  std::vector<CrossingSend> sends_;
  std::vector<std::size_t> send_begin_;
  std::vector<std::uint32_t> expected_;
};

/// Throws std::invalid_argument naming `who` when a statement has no
/// executable right-hand side (build it with LoopNestBuilder::assign).
void require_executable(const LoopNest& nest, const std::string& who);

/// The element an access touches at `iteration`.
IntVec eval_subscripts(const std::vector<AffineExpr>& subs, const IntVec& iteration);

/// One value an iteration wrote, kept for the last-write-wins merge.
struct WriteRecord {
  std::string array;
  IntVec element;
  std::int64_t step = 0;
  double value = 0.0;
};

/// The last-write-wins merge of write logs: per element, the write of the
/// largest step wins; on a tie the later add() wins.
class WriteMerge {
 public:
  void add(const WriteRecord& w);
  void add(const std::vector<WriteRecord>& log) {
    for (const WriteRecord& w : log) add(w);
  }
  [[nodiscard]] ArrayStore result() const;

 private:
  std::unordered_map<std::string,
                     std::unordered_map<IntVec, std::pair<std::int64_t, double>, IntVecHash>>
      latest_;
};

/// Microseconds a worker spent blocked on receives, computing iteration
/// bodies and posting sends.  `mark` is the start of the running phase.
struct PhaseClocks {
  double wait_us = 0.0;
  double compute_us = 0.0;
  double send_us = 0.0;
  std::chrono::steady_clock::time_point mark;

  /// Charge the time since `mark` to `phase` and restart the mark.
  void lap(double& phase) {
    const auto now = std::chrono::steady_clock::now();
    phase += std::chrono::duration<double, std::micro>(now - mark).count();
    mark = now;
  }
};

/// One processor's side of a distributed run: its private memory, its write
/// log and the remote values each of its vertices has received.  Anything
/// it never wrote or received is host data (`init`), fetched as a halo
/// load: a body read that misses loads it, caches it and counts one halo
/// load; forwarding a value never touched locally loads it and counts one
/// halo load without caching it.
class Worker {
 public:
  Worker(const ExecSchedule& sched, ProcId me, const LoopNest& nest, const InitFn& init);

  /// Store a value received for iteration `sink`.
  void receive(std::size_t sink, const std::string& array, const IntVec& element, double value) {
    values_.store(array, element, value);
    ++received_[sink];
  }
  /// Remote inputs of `vid` still to arrive.
  [[nodiscard]] std::uint32_t outstanding(std::size_t vid) const {
    return sched_->expected(vid) - received_[vid];
  }

  /// Execute vertex `vid`, then hand each crossing value to
  /// `deliver(send, array, element, value)`.  Returns false as soon as
  /// `deliver` does.  With `clocks`, charges the compute and send phases.
  template <typename DeliverFn>
  bool step(std::size_t vid, DeliverFn&& deliver, PhaseClocks* clocks = nullptr) {
    const IntVec& iter = sched_->vertex(vid);
    execute(iter, sched_->step(vid));
    if (clocks != nullptr) clocks->lap(clocks->compute_us);
    for (const CrossingSend& send : sched_->sends_of(vid)) {
      const Dependence& dep = sched_->dependence(send.dep);
      const IntVec element = eval_subscripts(dep.source_subscripts, iter);
      if (!deliver(send, dep.array, element, forward(dep.array, element))) return false;
    }
    if (clocks != nullptr) clocks->lap(clocks->send_us);
    return true;
  }

  /// Run this processor's vertices in (step, vertex) order.  `wait(vid)`
  /// precedes every vertex and returns once outstanding(vid) is 0.  Returns
  /// false as soon as a callback does.  With `clocks`, times all three
  /// phases.
  template <typename WaitFn, typename DeliverFn>
  bool run(WaitFn&& wait, DeliverFn&& deliver, PhaseClocks* clocks = nullptr) {
    if (clocks != nullptr) clocks->mark = std::chrono::steady_clock::now();
    for (std::size_t vid : sched_->vertices_of(me_)) {
      if (!wait(vid)) return false;
      if (clocks != nullptr) clocks->lap(clocks->wait_us);
      if (!step(vid, deliver, clocks)) return false;
    }
    return true;
  }

  [[nodiscard]] const std::vector<WriteRecord>& writes() const { return writes_; }
  [[nodiscard]] std::int64_t halo_loads() const { return halo_loads_; }

 private:
  void execute(const IntVec& iteration, std::int64_t step);
  double forward(const std::string& array, const IntVec& element);

  const ExecSchedule* sched_;
  ProcId me_;
  const LoopNest* nest_;
  const InitFn* init_;
  ArrayStore values_;
  std::vector<WriteRecord> writes_;
  std::vector<std::uint32_t> received_;
  std::int64_t halo_loads_ = 0;
};

}  // namespace hypart

#include "exec/parallel_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exec/schedule.hpp"

namespace hypart {

namespace {

struct Message {
  std::size_t sink_vid;  ///< iteration this value unblocks
  std::string array;
  IntVec element;
  double value;
};

struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Message> queue;
  bool closed = false;        ///< set by injected worker death
  std::size_t max_depth = 0;  ///< deepest the queue ever got

  /// Deliver one message; false when the mailbox is closed (owner dead).
  bool post(Message msg) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (closed) return false;
      queue.push_back(std::move(msg));
      max_depth = std::max(max_depth, queue.size());
    }
    cv.notify_one();
    return true;
  }

  [[nodiscard]] std::size_t depth() {
    std::lock_guard<std::mutex> lock(mutex);
    return queue.size();
  }
};

/// First-error-wins abort channel shared by all workers.
struct AbortState {
  enum class Kind { None, Stall, WorkerDeath, Internal };

  std::atomic<bool> flag{false};
  std::mutex mutex;
  Kind kind = Kind::None;
  std::string message;
  std::string diagnostics;

  /// Record the first failure; later calls only see `flag` already set.
  /// Returns true for the caller that won the race.
  bool trigger(Kind k, std::string msg, std::string diag = {}) {
    std::lock_guard<std::mutex> lock(mutex);
    if (kind != Kind::None) return false;
    kind = k;
    message = std::move(msg);
    diagnostics = std::move(diag);
    flag.store(true, std::memory_order_release);
    return true;
  }
};

constexpr std::int64_t kRunning = -1;
constexpr std::int64_t kDone = -2;

}  // namespace

ParallelRunResult run_parallel(const LoopNest& nest, const ComputationStructure& q,
                               const TimeFunction& tf, const Partition& part,
                               const Mapping& mapping, const DependenceInfo& deps,
                               const ParallelRunOptions& options) {
  require_executable(nest, "run_parallel");
  require_serializable_updates(nest);
  if (options.delivery_attempts < 1)
    throw Error(ErrorKind::Config, "run_parallel: delivery_attempts must be >= 1");

  const std::size_t nprocs = mapping.processor_count;
  const obs::ObsContext& obs = options.obs;
  for (ProcId d : options.dead_workers)
    if (d >= nprocs)
      throw Error(ErrorKind::Config,
                  "run_parallel: dead worker " + std::to_string(d) + " out of range");
  const ExecSchedule sched(q, tf, part, mapping, deps);

  // ---- runtime state --------------------------------------------------------
  std::vector<Mailbox> mailbox(nprocs);
  std::vector<Worker> workers;
  workers.reserve(nprocs);
  for (ProcId p = 0; p < nprocs; ++p) workers.emplace_back(sched, p, nest, options.init);
  AbortState abort;
  const bool watchdog = options.recv_timeout_ms > 0;
  const auto recv_timeout = std::chrono::milliseconds(options.recv_timeout_ms);

  // Per-worker diagnostic state, written by the owner and read (racily but
  // harmlessly) by whichever worker dumps a stall report.
  std::vector<std::atomic<std::int64_t>> blocked_vid(nprocs);
  std::vector<std::atomic<std::int64_t>> outstanding(nprocs);
  for (std::size_t p = 0; p < nprocs; ++p) {
    blocked_vid[p].store(kRunning, std::memory_order_relaxed);
    outstanding[p].store(0, std::memory_order_relaxed);
  }

  auto notify_all_workers = [&] {
    for (Mailbox& mb : mailbox) {
      std::lock_guard<std::mutex> lock(mb.mutex);
      mb.cv.notify_all();
    }
  };

  /// Snapshot every worker's blocked-on state for the stall report.
  auto dump_workers = [&] {
    std::ostringstream os;
    for (ProcId p = 0; p < nprocs; ++p) {
      std::int64_t vid = blocked_vid[p].load(std::memory_order_relaxed);
      os << "  proc " << p << ": ";
      if (vid == kDone) os << "finished";
      else if (vid == kRunning) os << "running";
      else
        os << "blocked on vertex " << vid << " (awaiting "
           << outstanding[p].load(std::memory_order_relaxed) << " message(s))";
      os << ", mailbox depth " << mailbox[p].depth() << "\n";
    }
    return os.str();
  };

  // Per-worker observability slots: each is touched by exactly one thread
  // and read only after join, so no synchronization (and no sink calls from
  // worker threads) is needed.
  std::vector<std::int64_t> proc_messages(nprocs, 0);
  std::vector<double> span_begin(nprocs, 0.0), span_end(nprocs, 0.0);
  std::vector<PhaseClocks> clocks(nprocs);
  const bool measure = options.measure_phases;
  const bool timing = obs.trace != nullptr || measure;

  obs::Span run_span(obs.trace, "run_parallel", "runtime", obs::kPipelinePid, obs::kPipelineTid,
                     {{"threads", static_cast<std::int64_t>(nprocs)}});

  // Injected death: a dead worker's mailbox is closed *before* any thread
  // starts, so no send can slip a message in during worker startup — the
  // first delivery attempt already sees the closed box deterministically.
  for (ProcId d : options.dead_workers) mailbox[d].closed = true;

  auto worker = [&](ProcId me) {
    if (timing) span_begin[me] = obs::wall_clock_us();
    Worker& w = workers[me];
    // Block until every remote input of this iteration has arrived.  The
    // watchdog deadline restarts whenever progress (any delivery) is made;
    // expiring with nothing delivered means the schedule is stuck.
    auto wait = [&](std::size_t vid) {
      if (w.outstanding(vid) == 0) return true;
      blocked_vid[me].store(static_cast<std::int64_t>(vid), std::memory_order_relaxed);
      std::unique_lock<std::mutex> lock(mailbox[me].mutex);
      auto deadline = std::chrono::steady_clock::now() + recv_timeout;
      while (w.outstanding(vid) > 0) {
        outstanding[me].store(w.outstanding(vid), std::memory_order_relaxed);
        if (abort.flag.load(std::memory_order_acquire)) return false;
        if (!mailbox[me].queue.empty()) {
          std::deque<Message> pending;
          pending.swap(mailbox[me].queue);
          lock.unlock();
          for (const Message& m : pending) w.receive(m.sink_vid, m.array, m.element, m.value);
          lock.lock();
          deadline = std::chrono::steady_clock::now() + recv_timeout;
          continue;
        }
        auto wakeup = [&] {
          return !mailbox[me].queue.empty() || abort.flag.load(std::memory_order_acquire);
        };
        if (!watchdog) {
          mailbox[me].cv.wait(lock, wakeup);
        } else if (!mailbox[me].cv.wait_until(lock, deadline, wakeup)) {
          // Timed out with no delivery: declare a stall.
          lock.unlock();
          abort.trigger(AbortState::Kind::Stall,
                        "run_parallel: stall watchdog fired after " +
                            std::to_string(options.recv_timeout_ms) + " ms (proc " +
                            std::to_string(me) + " blocked on vertex " + std::to_string(vid) +
                            ")",
                        dump_workers());
          notify_all_workers();
          return false;
        }
      }
      blocked_vid[me].store(kRunning, std::memory_order_relaxed);
      outstanding[me].store(0, std::memory_order_relaxed);
      return true;
    };
    // Post with capped backoff: a closed mailbox (dead worker) stays closed,
    // so after the attempts give up the run aborts typed.
    auto deliver = [&](const CrossingSend& send, const std::string& array, const IntVec& element,
                       double value) {
      for (int attempt = 0; attempt < options.delivery_attempts; ++attempt) {
        if (attempt > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(std::min(8, 1 << (attempt - 1))));
        if (abort.flag.load(std::memory_order_acquire)) return false;
        if (mailbox[send.target].post({send.sink, array, element, value})) {
          ++proc_messages[me];
          return true;
        }
      }
      abort.trigger(AbortState::Kind::WorkerDeath,
                    "run_parallel: delivery to dead worker " + std::to_string(send.target) +
                        " failed after " + std::to_string(options.delivery_attempts) +
                        " attempts (sender proc " + std::to_string(me) + ", for vertex " +
                        std::to_string(send.sink) + ")");
      notify_all_workers();
      return false;
    };
    // A dead worker executes nothing; senders hit its closed box and abort.
    if (!mailbox[me].closed && !w.run(wait, deliver, measure ? &clocks[me] : nullptr)) return;
    blocked_vid[me].store(kDone, std::memory_order_relaxed);
    if (timing) span_end[me] = obs::wall_clock_us();
  };

  std::vector<std::thread> threads;
  threads.reserve(nprocs);
  for (ProcId p = 0; p < nprocs; ++p)
    threads.emplace_back([&, p] {
      try {
        worker(p);
      } catch (const std::exception& e) {
        abort.trigger(AbortState::Kind::Internal,
                      "run_parallel: worker " + std::to_string(p) + " threw: " + e.what());
        notify_all_workers();
      }
    });
  for (std::thread& t : threads) t.join();

  std::int64_t max_depth = 0;
  for (Mailbox& mb : mailbox)
    max_depth = std::max(max_depth, static_cast<std::int64_t>(mb.max_depth));

  if (abort.flag.load(std::memory_order_acquire)) {
    // Surface the failure through obs before throwing so even failed runs
    // leave a diagnosable record.
    if (obs.metrics != nullptr) {
      if (abort.kind == AbortState::Kind::Stall) obs.metrics->add("fault.stalls_detected");
      if (abort.kind == AbortState::Kind::WorkerDeath)
        obs.metrics->add("fault.worker_deaths");
      obs.metrics->set_gauge("runtime.max_mailbox_depth", static_cast<double>(max_depth));
    }
    if (obs.trace != nullptr)
      obs::emit_instant(obs.trace, "abort", "runtime", obs::wall_clock_us(), obs::kPipelinePid,
                        obs::kPipelineTid, {{"reason", abort.message}});
    switch (abort.kind) {
      case AbortState::Kind::Stall: throw StallError(abort.message, abort.diagnostics);
      case AbortState::Kind::WorkerDeath: throw WorkerDeathError(abort.message);
      default: throw Error(ErrorKind::Internal, abort.message);
    }
  }

  ParallelRunResult result;
  WriteMerge merge;
  for (ProcId p = 0; p < nprocs; ++p) {
    merge.add(workers[p].writes());
    result.stats.messages_sent += proc_messages[p];
    result.stats.halo_loads += workers[p].halo_loads();
    if (!measure) continue;
    result.stats.per_proc_compute_us.push_back(clocks[p].compute_us);
    result.stats.per_proc_wait_us.push_back(clocks[p].wait_us);
    result.stats.per_proc_send_us.push_back(clocks[p].send_us);
    result.stats.wall_us = std::max(result.stats.wall_us, span_end[p] - span_begin[p]);
  }
  result.written = merge.result();
  result.stats.threads = nprocs;
  result.stats.per_proc_messages = proc_messages;
  result.stats.max_mailbox_depth = max_depth;

  if (obs.trace != nullptr) {
    for (ProcId p = 0; p < nprocs; ++p) {
      obs::emit_thread_name(obs.trace, obs::kPipelinePid, obs::kRuntimeTidBase + p,
                            "runtime worker " + std::to_string(p));
      obs::emit_complete(obs.trace, "worker", "runtime", span_begin[p],
                         span_end[p] - span_begin[p], obs::kPipelinePid,
                         obs::kRuntimeTidBase + p,
                         {{"messages_sent", proc_messages[p]}, {"halo_loads", workers[p].halo_loads()}});
    }
  }
  if (obs.metrics != nullptr) {
    obs.metrics->add("runtime.messages_sent", result.stats.messages_sent);
    obs.metrics->add("runtime.halo_loads", result.stats.halo_loads);
    obs.metrics->add("runtime.threads", static_cast<std::int64_t>(nprocs));
    obs.metrics->set_gauge("runtime.max_mailbox_depth", static_cast<double>(max_depth));
    for (ProcId p = 0; p < nprocs; ++p)
      obs.metrics->add("runtime.proc." + std::to_string(p) + ".messages_sent",
                       proc_messages[p]);
  }
  return result;
}

ParallelRunResult run_parallel(const LoopNest& nest, const ComputationStructure& q,
                               const TimeFunction& tf, const Partition& part,
                               const Mapping& mapping, const DependenceInfo& deps,
                               const InitFn& init, const obs::ObsContext& obs) {
  ParallelRunOptions options;
  options.init = init;
  options.obs = obs;
  return run_parallel(nest, q, tf, part, mapping, deps, options);
}

}  // namespace hypart

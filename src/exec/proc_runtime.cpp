#include "exec/proc_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "core/io_util.hpp"
#include "exec/parallel_runtime.hpp"
#include "exec/schedule.hpp"
#include "exec/supervisor.hpp"
#include "fault/remap.hpp"
#include "mapping/gray.hpp"

namespace hypart {

namespace {

using exec::Frame;
using exec::FrameType;
using exec::PayloadReader;
using exec::PayloadWriter;
using exec::Supervisor;
using exec::SupervisorEvent;
using exec::SupervisorEventKind;
using exec::WorkerDeath;

/// What a worker's STATS frame reports.
struct WorkerStats {
  PhaseClocks clocks;
  std::int64_t halo_loads = 0;
  std::int64_t send_retries = 0;
};

/// Worker-side fault triggers for one proc, derived from the plan.
struct WorkerFaults {
  std::optional<std::int64_t> kill_at;   // hyperplane step (kFromStart = now)
  std::optional<std::int64_t> hang_at;
  std::optional<std::int64_t> trunc_at;
  std::optional<std::int64_t> delay_at;
  std::int64_t delay_ms = 0;
};

bool triggered(const std::optional<std::int64_t>& at, std::int64_t step) {
  return at.has_value() && (*at == fault::kFromStart || step >= *at);
}

/// The worker body: runs its slice of the schedule, receiving forwarded
/// DATA frames and sending one DATA frame per crossing dependence,
/// heartbeating whenever it waits.  Runs in the forked child and never
/// returns.
void worker_main(int fd, ProcId me, const LoopNest& nest, const InitFn& init,
                 const ExecSchedule& sched, const WorkerFaults& faults,
                 std::int64_t heartbeat_interval_ms, bool measure) {
  using clock = std::chrono::steady_clock;
  Worker w(sched, me, nest, init);
  PhaseClocks clocks;
  std::int64_t send_retries = 0;
  bool delaying = false;
  auto last_hb = clock::now();

  auto send = [&](const Frame& f) {
    int retries = 0;
    if (!exec::write_frame(fd, f, &retries)) _exit(3);  // supervisor gone
    send_retries += retries;
  };
  auto heartbeat = [&] {
    send({FrameType::Heartbeat, {}});
    last_hb = clock::now();
  };
  auto fire_faults = [&](std::int64_t step) {
    if (triggered(faults.kill_at, step)) ::raise(SIGKILL);
    if (triggered(faults.trunc_at, step)) {
      // Deliberately corrupt the stream: a length prefix promising more
      // bytes than ever arrive, then die.  The supervisor must classify
      // this as a truncated frame, not hang waiting for the rest.
      const std::uint8_t junk[6] = {0xff, 0x00, 0x00, 0x00,
                                    static_cast<std::uint8_t>(FrameType::Data), 0x42};
      (void)write_full(fd, junk, sizeof(junk));
      _exit(4);
    }
    if (triggered(faults.hang_at, step)) {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));  // silent forever; heartbeat watchdog's case
    }
    if (triggered(faults.delay_at, step)) delaying = true;
  };
  auto wait = [&](std::size_t vid) {
    fire_faults(sched.step(vid));
    if (std::chrono::duration<double, std::milli>(clock::now() - last_hb).count() >=
        static_cast<double>(heartbeat_interval_ms))
      heartbeat();
    while (w.outstanding(vid) > 0) {
      int r = exec::wait_readable(fd, static_cast<int>(heartbeat_interval_ms));
      if (r < 0) _exit(3);
      if (r == 0) {
        heartbeat();
        continue;
      }
      Frame f;
      if (exec::read_frame(fd, f) <= 0) _exit(3);  // supervisor closed our end: epoch is over
      if (f.type != FrameType::Data) continue;
      PayloadReader pr(f.payload);
      (void)pr.u64();  // routing target (us), already consumed by the hub
      const auto sink = static_cast<std::size_t>(pr.u64());
      const std::string array = pr.str();
      const IntVec element = pr.ivec();
      w.receive(sink, array, element, pr.f64());
    }
    return true;
  };
  auto deliver = [&](const CrossingSend& cross, const std::string& array, const IntVec& element,
                     double value) {
    if (delaying && faults.delay_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(faults.delay_ms));
    PayloadWriter pw;
    pw.u64(cross.target);
    pw.u64(cross.sink);
    pw.str(array);
    pw.ivec(element);
    pw.f64(value);
    send({FrameType::Data, pw.take()});
    return true;
  };

  {
    PayloadWriter pw;
    pw.u64(me);
    send({FrameType::Hello, pw.take()});
  }
  fire_faults(sched.min_step() - 1);  // kFromStart faults fire before any vertex
  w.run(wait, deliver, measure ? &clocks : nullptr);
  {
    PayloadWriter pw;
    pw.u32(static_cast<std::uint32_t>(w.writes().size()));
    for (const WriteRecord& wr : w.writes()) {
      pw.str(wr.array);
      pw.ivec(wr.element);
      pw.i64(wr.step);
      pw.f64(wr.value);
    }
    send({FrameType::Writes, pw.take()});
  }
  {
    PayloadWriter pw;
    pw.f64(clocks.compute_us);
    pw.f64(clocks.wait_us);
    pw.f64(clocks.send_us);
    pw.i64(w.halo_loads());
    pw.i64(send_retries);
    send({FrameType::Stats, pw.take()});
  }
  send({FrameType::Done, {}});
  _exit(0);
}

}  // namespace

ProcRunResult run_procs(const LoopNest& nest, const ComputationStructure& q,
                        const TimeFunction& tf, const Partition& part,
                        const Mapping& mapping, const DependenceInfo& deps,
                        const ProcRunOptions& options) {
  require_executable(nest, "run_procs");
  require_serializable_updates(nest);
  if (options.max_recoveries < 0)
    throw Error(ErrorKind::Config, "run_procs: max_recoveries must be >= 0");
  if (options.heartbeat_interval_ms <= 0)
    throw Error(ErrorKind::Config, "run_procs: heartbeat_interval_ms must be > 0");

  const std::size_t nprocs = mapping.processor_count;
  // Frames are routed along the hypercube the mapper targets.
  if (!is_power_of_two(nprocs))
    throw Error(ErrorKind::Config, "run_procs: " + std::to_string(nprocs) +
                                       " processors; the process backend needs a power of two");
  const Hypercube cube(log2_exact(nprocs));
  const obs::ObsContext& obs = options.obs;
  ignore_sigpipe();

  for (const fault::ProcFault& f : options.proc_faults)
    if (f.kind != fault::ProcFaultKind::RandKill && f.proc >= nprocs)
      throw Error(ErrorKind::Config, "run_procs: proc fault targets worker " +
                                         std::to_string(f.proc) + " but only " +
                                         std::to_string(nprocs) + " exist");

  ProcRunResult result;
  ProcRunStats& stats = result.stats;

  auto emit_event = [&](const SupervisorEvent& e) {
    if (obs.trace != nullptr)
      obs::emit_instant(obs.trace, std::string("supervisor.") + exec::to_string(e.kind),
                        "procs", obs::wall_clock_us(), obs::kPipelinePid, obs::kPipelineTid,
                        {{"worker", static_cast<std::int64_t>(e.proc)}, {"detail", e.detail}});
    if (obs.metrics != nullptr)
      obs.metrics->add(std::string("procs.events.") + exec::to_string(e.kind));
  };

  auto degrade = [&](const std::string& why) {
    if (!options.allow_degrade)
      throw Error(ErrorKind::Io, "run_procs: cannot spawn workers (" + why +
                                     ") and degradation is disabled");
    emit_event({SupervisorEventKind::Degrade, 0, why});
    ParallelRunOptions po;
    po.init = options.init;
    po.obs = options.obs;
    po.recv_timeout_ms = options.run_timeout_ms;
    po.measure_phases = options.measure_phases;
    ParallelRunResult threaded = run_parallel(nest, q, tf, part, mapping, deps, po);
    result.written = std::move(threaded.written);
    stats.messages_sent = threaded.stats.messages_sent;
    stats.halo_loads = threaded.stats.halo_loads;
    stats.workers = threaded.stats.threads;
    stats.per_proc_compute_us = std::move(threaded.stats.per_proc_compute_us);
    stats.per_proc_wait_us = std::move(threaded.stats.per_proc_wait_us);
    stats.per_proc_send_us = std::move(threaded.stats.per_proc_send_us);
    stats.wall_us = threaded.stats.wall_us;
    stats.degraded = true;
    return result;
  };

  if (std::getenv("HYPART_PROC_FORCE_DEGRADE") != nullptr)
    return degrade("HYPART_PROC_FORCE_DEGRADE set");

  // Resolve seeded RandKill terms into concrete Kill faults so every epoch
  // (and every rerun with the same seed) injects identically.
  ExecSchedule sched(q, tf, part, mapping, deps);
  std::vector<fault::ProcFault> pending_faults;
  for (const fault::ProcFault& f : options.proc_faults) {
    if (f.kind != fault::ProcFaultKind::RandKill) {
      pending_faults.push_back(f);
      continue;
    }
    std::mt19937_64 rng(f.seed);
    fault::ProcFault kill;
    kill.kind = fault::ProcFaultKind::Kill;
    kill.proc = static_cast<ProcId>(rng() % nprocs);
    const std::uint64_t steps =
        static_cast<std::uint64_t>(sched.max_step() - sched.min_step()) + 1;
    kill.at_step = sched.min_step() + static_cast<std::int64_t>(rng() % steps);
    pending_faults.push_back(kill);
  }

  Supervisor::Options sup_opts;
  sup_opts.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
  sup_opts.on_event = emit_event;
  Supervisor sup(std::move(sup_opts));

  std::vector<ProcId> ever_dead;  // cumulative, across epochs
  const bool measure = options.measure_phases;
  const auto run_clock_start = std::chrono::steady_clock::now();

  for (int epoch = 0;; ++epoch) {
    std::vector<ProcId> live_procs;
    for (ProcId p = 0; p < nprocs; ++p)
      if (std::find(ever_dead.begin(), ever_dead.end(), p) == ever_dead.end())
        live_procs.push_back(p);

    // Per-proc fault triggers for this epoch (consumed faults excluded).
    std::vector<WorkerFaults> wf(nprocs);
    for (const fault::ProcFault& f : pending_faults) {
      WorkerFaults& t = wf[f.proc];
      switch (f.kind) {
        case fault::ProcFaultKind::Kill: t.kill_at = f.at_step; break;
        case fault::ProcFaultKind::Hang: t.hang_at = f.at_step; break;
        case fault::ProcFaultKind::TruncFrame: t.trunc_at = f.at_step; break;
        case fault::ProcFaultKind::DelaySend:
          t.delay_at = f.at_step;
          t.delay_ms = f.delay_ms;
          break;
        case fault::ProcFaultKind::RandKill: break;  // resolved above
      }
    }

    std::string spawn_error;
    bool spawned = sup.spawn(
        live_procs,
        [&](ProcId me, int fd) {
          worker_main(fd, me, nest, options.init, sched, wf[me], options.heartbeat_interval_ms,
                      measure);
        },
        &spawn_error);
    if (!spawned) return degrade(spawn_error);

    const auto epoch_start = std::chrono::steady_clock::now();
    auto last_progress = epoch_start;
    std::vector<std::pair<ProcId, Frame>> frames;
    std::vector<WorkerDeath> deaths;
    WriteMerge epoch_writes;
    std::vector<WorkerStats> epoch_stats(nprocs);
    std::int64_t epoch_messages = 0, epoch_hops = 0;
    std::size_t done = 0;
    bool epoch_failed = false;
    std::string worker_error;

    while (done < live_procs.size() && !epoch_failed && worker_error.empty()) {
      frames.clear();
      deaths.clear();
      sup.poll_once(10, frames, deaths);
      for (auto& [src, f] : frames) {
        switch (f.type) {
          case FrameType::Hello:
          case FrameType::Heartbeat: break;
          case FrameType::Data: {
            PayloadReader pr(f.payload);
            ProcId target = static_cast<ProcId>(pr.u64());
            if (target >= nprocs) {
              worker_error = "worker " + std::to_string(src) + " routed to bad target " +
                             std::to_string(target);
              break;
            }
            epoch_hops += cube.distance(src, target);
            ++epoch_messages;
            sup.send(target, f);
            last_progress = std::chrono::steady_clock::now();
            break;
          }
          case FrameType::Writes: {
            PayloadReader pr(f.payload);
            std::uint32_t n = pr.u32();
            for (std::uint32_t i = 0; i < n; ++i) {
              WriteRecord w;
              w.array = pr.str();
              w.element = pr.ivec();
              w.step = pr.i64();
              w.value = pr.f64();
              epoch_writes.add(w);
            }
            last_progress = std::chrono::steady_clock::now();
            break;
          }
          case FrameType::Stats: {
            PayloadReader pr(f.payload);
            WorkerStats& ws = epoch_stats[src];
            ws.clocks.compute_us = pr.f64();
            ws.clocks.wait_us = pr.f64();
            ws.clocks.send_us = pr.f64();
            ws.halo_loads = pr.i64();
            ws.send_retries = pr.i64();
            break;
          }
          case FrameType::Done:
            ++done;
            last_progress = std::chrono::steady_clock::now();
            break;
          case FrameType::Error: {
            PayloadReader pr(f.payload);
            worker_error = "worker " + std::to_string(src) + ": " + pr.str();
            break;
          }
        }
        if (!worker_error.empty()) break;
      }

      if (!deaths.empty()) {
        // First recovery-relevant event wins; kill the epoch and restart.
        epoch_failed = true;
        for (const WorkerDeath& d : deaths) {
          ever_dead.push_back(d.proc);
          if (obs.trace != nullptr)
            obs::emit_instant(obs.trace, "supervisor.death", "procs", obs::wall_clock_us(),
                              obs::kPipelinePid, obs::kPipelineTid,
                              {{"worker", static_cast<std::int64_t>(d.proc)},
                               {"reason", d.reason}});
          if (obs.metrics != nullptr) obs.metrics->add("procs.worker_deaths");
        }
        break;
      }

      if (options.run_timeout_ms > 0) {
        auto idle = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - last_progress)
                        .count();
        if (idle > static_cast<double>(options.run_timeout_ms)) {
          std::string dump = sup.dump_workers();
          sup.reset();
          throw StallError("run_procs: no schedule progress for " +
                               std::to_string(options.run_timeout_ms) + " ms (epoch " +
                               std::to_string(epoch) + ")",
                           dump);
        }
      }
    }

    if (!worker_error.empty()) {
      sup.reset();
      throw Error(ErrorKind::Internal, "run_procs: " + worker_error);
    }

    if (!epoch_failed) {
      // Success: drain remaining frames (Stats/Done may trail), merge
      // writes and report.
      for (int i = 0; i < 10 && sup.done_count() < live_procs.size(); ++i) {
        frames.clear();
        deaths.clear();
        sup.poll_once(10, frames, deaths);
      }
      sup.reset();

      result.written = epoch_writes.result();
      stats.messages_sent = epoch_messages;
      stats.route_hops = epoch_hops;
      stats.workers = live_procs.size();
      stats.heartbeat_misses = sup.heartbeat_misses();
      stats.send_retries = sup.send_retries();
      for (const WorkerStats& ws : epoch_stats) {
        stats.halo_loads += ws.halo_loads;
        stats.send_retries += ws.send_retries;
        if (!measure) continue;
        stats.per_proc_compute_us.push_back(ws.clocks.compute_us);
        stats.per_proc_wait_us.push_back(ws.clocks.wait_us);
        stats.per_proc_send_us.push_back(ws.clocks.send_us);
      }
      if (measure) {
        stats.wall_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - run_clock_start)
                            .count();
      }
      break;
    }

    // ---- recovery: consume faults, reassign blocks, restart the epoch ----
    sup.reset();
    ++stats.recoveries;
    if (stats.recoveries > options.max_recoveries)
      throw WorkerDeathError("run_procs: worker died and recovery budget exhausted (" +
                             std::to_string(options.max_recoveries) + " restart(s) allowed)");

    std::sort(ever_dead.begin(), ever_dead.end());
    ever_dead.erase(std::unique(ever_dead.begin(), ever_dead.end()), ever_dead.end());
    if (ever_dead.size() >= nprocs)
      throw FaultError("run_procs: every worker has died; no spare to recover on");

    // A fault that fired is consumed: the respawned epoch must not re-kill
    // the spare's inherited schedule.  (DelaySend is non-fatal and would
    // not have caused the death, so it survives consumption.)
    std::vector<fault::ProcFault> remaining;
    for (const fault::ProcFault& f : pending_faults) {
      bool victim_dead = std::find(ever_dead.begin(), ever_dead.end(), f.proc) != ever_dead.end();
      if (victim_dead && f.kind != fault::ProcFaultKind::DelaySend) continue;
      remaining.push_back(f);
    }
    pending_faults = std::move(remaining);

    // Spare-neighbor policy with charged migration, exactly the degraded-
    // cube accounting the simulator uses (fault/remap.hpp).
    fault::FaultPlan plan;
    for (ProcId p : ever_dead) plan.node_faults.push_back({p, fault::kFromStart});
    fault::RemapResult remap = fault::remap_for_faults(part, mapping, cube, plan.resolve(cube));
    const std::size_t before_blocks = stats.migrated_blocks;
    stats.migrated_blocks = remap.migrations.size();
    stats.migration_words = remap.migration_words;
    for (const fault::Migration& m : remap.migrations)
      emit_event({SupervisorEventKind::Reassign, m.to,
                  "block " + std::to_string(m.block) + " from worker " +
                      std::to_string(m.from) + " (" + std::to_string(m.words) + " words)"});
    sched = ExecSchedule(q, tf, part, remap.mapping, deps);
    if (obs.metrics != nullptr) {
      obs.metrics->add("procs.recoveries");
      obs.metrics->add("procs.migrated_blocks",
                       static_cast<std::int64_t>(stats.migrated_blocks - before_blocks));
    }
  }

  if (obs.metrics != nullptr) {
    obs.metrics->add("procs.messages_routed", stats.messages_sent);
    obs.metrics->add("procs.route_hops", stats.route_hops);
    obs.metrics->add("procs.halo_loads", stats.halo_loads);
    obs.metrics->add("procs.workers", static_cast<std::int64_t>(stats.workers));
    obs.metrics->add("procs.migration_words", stats.migration_words);
  }
  return result;
}

}  // namespace hypart

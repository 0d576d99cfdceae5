// hypart::serve — plan-service cache behaviour and request latency.
//
// Report phase (deterministic, baseline-gated): an in-process PlanService
// wired to bench::metrics() handles a scripted request mix — two renamed
// streams over two sizes and all four plan ops, one deliberately malformed
// line, and one batch request mixing hits, a Π-skeleton reuse, a
// within-batch duplicate and an invalid sub-request — so the serve.*
// counters (requests, per-op counts, cache dispositions, error count) are
// fixed by the script alone and regress byte-identically.  The sharded
// cache keeps this contract: shard selection is a pure function of the
// canonical key, so dispositions and eviction counts never depend on
// thread scheduling.
//
// Timing phase (reported, never gated): the three cache dispositions as
// separate benchmarks — cold plan (fresh service per iteration), exact
// document hit (renamed nest against a primed cache) and Π-skeleton hit
// (document capacity 1 with alternating sizes, so every request re-runs the
// pipeline with the cached time function) — plus the batch hit path
// (per-sub-request replay cost at batch sizes 8 and 64) and a
// multi-connection throughput benchmark driving a real Server over a Unix
// socket with connections == worker threads.  These services use no obs
// wiring at all: counters scaled by google-benchmark's iteration count
// would destroy the baseline contract.
#include "bench_common.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "core/json_reader.hpp"
#include "perf/table.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace hypart;

std::string sor_like(const std::string& tag, int n) {
  std::string N = std::to_string(n);
  return "loop nest" + tag + " { for i" + tag + " = 1 to " + N + " for j" + tag + " = 1 to " + N +
         " A" + tag + "[i" + tag + ", j" + tag + "] = (A" + tag + "[i" + tag + "-1, j" + tag +
         "] + A" + tag + "[i" + tag + ", j" + tag + "-1]) * 0.5; }";
}

std::string plan_request(const std::string& op, const std::string& program) {
  JsonWriter w;
  w.begin_object();
  w.field("op", op);
  w.field("program", program);
  w.key("params").begin_object();
  w.field("dim", std::int64_t{2});
  w.end_object();
  w.end_object();
  return w.str();
}

std::string batch_request(const std::vector<std::string>& subs) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "batch");
  w.begin_array("requests");
  for (const std::string& sub : subs) w.raw_value(sub);
  w.end_array();
  w.end_object();
  return w.str();
}

void report() {
  bench::banner("hypart::serve — canonical plan cache dispositions");
  serve::ServiceOptions opts;
  opts.obs = bench::obs_context();
  serve::PlanService service(opts);

  // The scripted mix: stream 0 populates, stream 1 is a renamed copy; the
  // second size shares structure (Π) but not the exact key.
  static const char* kOps[] = {"partition", "map", "predict", "explain"};
  TextTable t({"stream", "size", "op", "cache", "loop"});
  for (const std::string tag : {"A", "B"}) {
    for (int size : {16, 32}) {
      for (const char* op : kOps) {
        JsonValue reply = parse_json(service.handle_line(plan_request(op, sor_like(tag, size))));
        t.row(tag, size, op, reply.string_or("cache", "?"),
              reply.get("result").string_or("loop", "?"));
      }
    }
  }
  // One malformed line: the error path is part of the gated contract too.
  (void)service.handle_line("{not json");
  std::printf("%s", t.to_string().c_str());

  // One batch line: two replays of cached documents, a Π reuse at a fresh
  // size, a within-batch duplicate of that fresh document, and one invalid
  // sub-request (ping is not a plan op) — all answered in request order.
  JsonValue batch = parse_json(service.handle_line(batch_request({
      plan_request("partition", sor_like("C", 16)),
      plan_request("map", sor_like("C", 32)),
      plan_request("predict", sor_like("C", 48)),
      plan_request("partition", sor_like("C", 48)),
      "{\"op\":\"ping\"}",
  })));
  TextTable bt({"#", "op", "cache", "loop"});
  const auto& replies = batch.get("replies").as_array();
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const JsonValue& r = replies[i];
    if (!r.get("ok").as_bool()) {
      bt.row(i, "-", "error:" + r.get("error").string_or("kind", "?"), "-");
      continue;
    }
    bt.row(i, r.string_or("op", "?"), r.string_or("cache", "?"),
           r.get("result").string_or("loop", "?"));
  }
  std::printf("\nbatch of %zu:\n%s", replies.size(), bt.to_string().c_str());

  serve::PlanCacheStats s = service.cache_stats();
  std::printf("\ncache: %lld document hits, %lld pi hits, %lld full misses, "
              "%zu documents / %zu skeletons live\n",
              static_cast<long long>(s.doc_hits), static_cast<long long>(s.pi_hits),
              static_cast<long long>(s.doc_misses - s.pi_hits), s.documents, s.skeletons);
  std::printf("expected: 1 full miss (A/16 partition), pi hits at A/32 partition and the\n"
              "batch's size-48 predict, every other plan request replayed from the\n"
              "document tier (the batch duplicate replays its sibling's document).\n");
}

void BM_serve_cold(benchmark::State& state) {
  const std::string request = plan_request("partition", sor_like("A", 32));
  for (auto _ : state) {
    serve::PlanService service;  // fresh cache: full Π search + pipeline
    benchmark::DoNotOptimize(service.handle_line(request));
  }
}
BENCHMARK(BM_serve_cold)->Unit(benchmark::kMicrosecond);

void BM_serve_exact_hit(benchmark::State& state) {
  serve::PlanService service;
  (void)service.handle_line(plan_request("partition", sor_like("A", 32)));
  const std::string renamed = plan_request("partition", sor_like("B", 32));
  for (auto _ : state) benchmark::DoNotOptimize(service.handle_line(renamed));
}
BENCHMARK(BM_serve_exact_hit)->Unit(benchmark::kMicrosecond);

void BM_serve_pi_hit(benchmark::State& state) {
  serve::ServiceOptions opts;
  opts.doc_cache_capacity = 1;  // alternating sizes always miss the doc tier
  serve::PlanService service(opts);
  const std::string odd = plan_request("partition", sor_like("A", 33));
  const std::string even = plan_request("partition", sor_like("A", 34));
  (void)service.handle_line(odd);
  (void)service.handle_line(even);
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle_line(flip ? odd : even));
    flip = !flip;
  }
}
BENCHMARK(BM_serve_pi_hit)->Unit(benchmark::kMicrosecond);

// Per-sub-request cost of the batch hit path: one primed document replayed
// K times per line.  items_per_second is the per-sub-request rate.
void BM_serve_batch_hit(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  serve::PlanService service;
  (void)service.handle_line(plan_request("partition", sor_like("A", 32)));
  std::vector<std::string> subs;
  for (std::int64_t i = 0; i < k; ++i)
    subs.push_back(plan_request("partition", sor_like("B", 32)));
  const std::string line = batch_request(subs);
  for (auto _ : state) benchmark::DoNotOptimize(service.handle_line(line));
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_serve_batch_hit)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

int connect_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One client connection.  Replies are read in 8 KiB chunks; bytes past a
/// reply's '\n' stay in `pending` for the connection's next reply.
struct Client {
  int fd = -1;
  std::string pending;

  bool roundtrip(const std::string& request, std::string& reply) {
    std::string line = request;
    line.push_back('\n');
    std::size_t off = 0;
    while (off < line.size()) {
      ssize_t n = ::write(fd, line.data() + off, line.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    char buf[8192];
    for (std::size_t scanned = 0;;) {
      std::size_t nl = pending.find('\n', scanned);
      if (nl != std::string::npos) {
        reply.assign(pending, 0, nl);
        pending.erase(0, nl + 1);
        return true;
      }
      scanned = pending.size();
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) return false;
      pending.append(buf, static_cast<std::size_t>(n));
    }
  }
};

// Multi-connection hit workload against a real Server: N worker threads, N
// persistent client connections (workers own a connection for its
// lifetime), every request an exact document hit on a per-connection key so
// the load spreads across cache shards.  items_per_second is aggregate
// req/s; scaling 1 → 8 threads is the sharding payoff (on multi-core
// hosts — a single-core container serializes the workers).
void BM_serve_throughput(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPerConn = 32;  // roundtrips per connection per iteration

  serve::PlanService service;
  serve::ServerOptions sopts;
  sopts.unix_path = "/tmp/hypart-bench-serve-" + std::to_string(::getpid()) + "-" +
                    std::to_string(threads) + ".sock";
  sopts.threads = threads;
  serve::Server server(service, sopts);
  server.start();

  // Prime one document per connection (sizes differ → distinct exact keys
  // → distinct shards); each client then replays a renamed copy of its own.
  std::vector<std::string> requests(threads);
  std::vector<Client> clients(threads);
  std::string reply;
  for (std::size_t t = 0; t < threads; ++t) {
    clients[t].fd = connect_unix(sopts.unix_path);
    if (clients[t].fd < 0) {
      state.SkipWithError("connect failed");
      server.request_stop();
      server.stop();
      return;
    }
    (void)clients[t].roundtrip(
        plan_request("partition", sor_like("P", 32 + static_cast<int>(t))), reply);
    requests[t] = plan_request("partition", sor_like("C", 32 + static_cast<int>(t)));
  }

  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::string r;
        for (std::size_t i = 0; i < kPerConn; ++i)
          if (!clients[t].roundtrip(requests[t], r)) return;
      });
    }
    for (std::thread& w : workers) w.join();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(threads * kPerConn));

  for (const Client& c : clients) ::close(c.fd);
  server.request_stop();
  server.stop();
}
BENCHMARK(BM_serve_throughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

HYPART_BENCH_MAIN(report)

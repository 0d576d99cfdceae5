// hypart loadgen — load generator / latency probe for `hypart serve`.
//
//   loadgen (--socket PATH | --port N) [--requests N] [--streams K]
//           [--rescale] [--connections C] [--batch K] [--rps R] [--op OP]
//           [--size N] [--program FILE] [--dim N] [--space M] [--json]
//           [--expect-hits]
//
// Sends NDJSON plan requests and reports client-side latency percentiles
// (p50/p90/p99/p999 via the obs histogram machinery) split by the server's
// cache disposition, sustained throughput (req/s), and the server's own
// cache counters (a final "stats" query).
//
// The request schedule is deterministic: `--streams K` issues K renamed
// copies of the same request sequence (same structure, same sizes, fresh
// loop/index/array identifiers per stream), so stream 0 populates the cache
// and streams 1..K-1 must score exact document hits.  `--rescale`
// interleaves a doubled-size variant into every stream, which misses the
// document tier but reuses the cached time function (the "pi" disposition).
// `--op` fixes one query type; the default cycles
// partition/map/predict/explain.  `--rps R` paces an open loop at R
// requests/second and times each request from its intended send (the
// generator spins the last 200 µs before each slot, and reports its own
// lateness); the default is a closed loop (send, wait, send) timed from
// the actual send.
// `--batch K` wraps every K consecutive requests of a connection's schedule
// into one {"op":"batch"} line: round-trip latency is then attributed per
// sub-request (line time / K, so percentiles stay comparable across batch
// sizes and the framing amortization is directly visible); the raw line
// times are reported separately under "batch_line".
//
// Exit codes: 0 ok, 1 error replies or transport failure, 2 --expect-hits
// saw zero document hits, 64 usage.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/io_util.hpp"
#include "core/json_reader.hpp"
#include "core/json_writer.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace hypart;

const char kUsage[] =
    "usage: loadgen (--socket PATH | --port N) [--requests N] [--streams K]\n"
    "               [--rescale] [--connections C] [--batch K] [--rps R]\n"
    "               [--op partition|map|predict|explain] [--size N]\n"
    "               [--program FILE] [--dim N] [--space dense|symbolic|verify]\n"
    "               [--json] [--expect-hits]\n";

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "loadgen: %s\n", msg);
  std::fprintf(stderr, "%s", kUsage);
  std::exit(64);
}

struct Options {
  std::string socket_path;
  int port = -1;
  std::int64_t requests = 32;
  std::size_t streams = 2;
  bool rescale = false;
  std::size_t connections = 1;
  std::size_t batch = 1;  ///< sub-requests per line; 1 = plain requests
  double rps = 0.0;  ///< 0 = closed loop
  std::string op;    ///< empty = cycle the four plan ops
  std::int64_t size = 24;
  std::string program_path;  ///< --program FILE: custom template, sent as-is
  std::int64_t dim = 2;
  std::string space = "symbolic";
  bool json = false;
  bool expect_hits = false;
};

/// One NDJSON connection: blocking socket + buffered line reads.
class Connection {
 public:
  Connection(const std::string& socket_path, int port) {
    if (!socket_path.empty()) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
      if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        std::fprintf(stderr, "loadgen: cannot connect to unix:%s: %s\n", socket_path.c_str(),
                     std::strerror(errno));
        std::exit(1);
      }
    } else {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        std::fprintf(stderr, "loadgen: cannot connect to tcp:127.0.0.1:%d: %s\n", port,
                     std::strerror(errno));
        std::exit(1);
      }
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request line, block for the reply line.
  std::string roundtrip(const std::string& request) {
    std::string line = request;
    line.push_back('\n');
    if (!write_full(fd_, line.data(), line.size())) {
      std::fprintf(stderr, "loadgen: write failed: %s\n", std::strerror(errno));
      std::exit(1);
    }
    for (;;) {
      std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[4096];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "loadgen: server closed the connection\n");
        std::exit(1);
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The built-in request program: a SOR-like 2-D recurrence whose loop,
/// index and array identifiers carry the stream suffix, so streams are
/// structurally identical but share no names.
std::string make_program(std::size_t stream, std::int64_t n) {
  std::string s = std::to_string(stream);
  std::string N = std::to_string(n);
  return "loop gen" + s + " { for i" + s + " = 1 to " + N + " for j" + s + " = 1 to " + N +
         " A" + s + "[i" + s + ", j" + s + "] = (A" + s + "[i" + s + "-1, j" + s + "] + A" + s +
         "[i" + s + ", j" + s + "-1]) * 0.5; }";
}

std::string make_request(std::int64_t id, const std::string& op, const std::string& program,
                         const Options& o) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("op", op);
  w.field("program", program);
  w.key("params").begin_object();
  w.field("dim", o.dim);
  w.field("space", o.space);
  w.end_object();
  w.end_object();
  return w.str();
}

/// Open loop: how long before a send slot the generator stops sleeping and
/// spins (perfbench serve-mix spins the same way).
constexpr std::chrono::microseconds kSpinMargin{200};

/// Latency-percentile buckets: 1-2-5 decades from 1 us to 50 s.
std::vector<std::int64_t> latency_bounds() {
  std::vector<std::int64_t> bounds;
  for (std::int64_t decade = 1; decade <= 10'000'000; decade *= 10)
    for (std::int64_t m : {1, 2, 5}) bounds.push_back(m * decade);
  return bounds;
}

struct Tally {
  std::mutex mutex;
  std::map<std::string, obs::HistogramData> latency;  ///< round-trip, per disposition + "all"
  std::map<std::string, obs::HistogramData> plan_us;  ///< server-reported planning time
  obs::HistogramData gen_late;  ///< --rps: how late the generator sent past each slot
  std::int64_t errors = 0;
  std::map<std::string, std::int64_t> dispositions;

  /// Call with `mutex` held; lazily sizes the histogram's fixed buckets.
  static void observe_into(obs::HistogramData& h, std::int64_t us) {
    static const std::vector<std::int64_t> bounds = latency_bounds();
    if (h.upper_bounds.empty()) {
      h.upper_bounds = bounds;
      h.counts.resize(bounds.size() + 1);
    }
    h.observe(us);
  }
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--socket") o.socket_path = next();
    else if (a == "--port") o.port = static_cast<int>(std::stol(next()));
    else if (a == "--requests") o.requests = std::stoll(next());
    else if (a == "--streams") o.streams = std::stoul(next());
    else if (a == "--rescale") o.rescale = true;
    else if (a == "--connections") o.connections = std::stoul(next());
    else if (a == "--batch") o.batch = std::stoul(next());
    else if (a == "--rps") o.rps = std::stod(next());
    else if (a == "--op") o.op = next();
    else if (a == "--size") o.size = std::stoll(next());
    else if (a == "--program") o.program_path = next();
    else if (a == "--dim") o.dim = std::stoll(next());
    else if (a == "--space") o.space = next();
    else if (a == "--json") o.json = true;
    else if (a == "--expect-hits") o.expect_hits = true;
    else if (a == "--help" || a == "-h") { std::printf("%s", kUsage); std::exit(0); }
    else usage(("unknown option " + a).c_str());
  }
  if (o.socket_path.empty() && o.port < 0) usage("need --socket PATH or --port N");
  if (!o.socket_path.empty() && o.port >= 0) usage("--socket and --port are mutually exclusive");
  if (o.requests < 1) usage("--requests must be >= 1");
  if (o.streams < 1) o.streams = 1;
  if (o.connections < 1) o.connections = 1;
  if (o.batch < 1) o.batch = 1;
  if (!o.op.empty() && o.op != "partition" && o.op != "map" && o.op != "predict" &&
      o.op != "explain")
    usage("--op must be partition, map, predict or explain");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  ignore_sigpipe();
  Options o = parse_args(argc, argv);

  std::string custom_program;
  if (!o.program_path.empty()) {
    std::ifstream in(o.program_path);
    if (!in) {
      std::fprintf(stderr, "loadgen: cannot open '%s'\n", o.program_path.c_str());
      return 66;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    custom_program = ss.str();
  }

  static const char* kOps[] = {"partition", "map", "predict", "explain"};
  // Deterministic schedule: request k belongs to stream k / per_stream and,
  // within the stream, cycles sizes (base, 2*base with --rescale) and ops.
  const std::int64_t per_stream =
      (o.requests + static_cast<std::int64_t>(o.streams) - 1) /
      static_cast<std::int64_t>(o.streams);
  auto request_for = [&](std::int64_t k) {
    std::size_t stream = static_cast<std::size_t>(k / per_stream);
    std::int64_t within = k % per_stream;
    std::int64_t size = (o.rescale && within % 2 == 1) ? 2 * o.size : o.size;
    std::string program =
        custom_program.empty() ? make_program(stream, size) : custom_program;
    std::string op = o.op.empty() ? kOps[static_cast<std::size_t>(k) % 4] : o.op;
    return make_request(k, op, program, o);
  };

  Tally tally;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < o.connections; ++c) {
    threads.emplace_back([&, c] {
      Connection conn(o.socket_path, o.port);
      // Connection c serves requests c, c+C, c+2C, ...; with --batch K,
      // every K consecutive requests of that schedule share one line.
      // With --rps the whole schedule is paced on one global clock (open
      // loop), each line due at its first request's slot.
      std::vector<std::int64_t> mine;
      for (std::int64_t k = static_cast<std::int64_t>(c); k < o.requests;
           k += static_cast<std::int64_t>(o.connections))
        mine.push_back(k);
      for (std::size_t i = 0; i < mine.size(); i += o.batch) {
        const std::size_t n = std::min(o.batch, mine.size() - i);
        std::chrono::steady_clock::time_point due{};
        if (o.rps > 0.0) {
          due = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(static_cast<double>(mine[i]) / o.rps));
          // Sleep to a margin before the slot, then spin: a thread woken
          // from sleep_until(due) runs late by the host's wake-up latency,
          // and that lateness would land in every open-loop latency.
          std::this_thread::sleep_until(due - kSpinMargin);
          while (std::chrono::steady_clock::now() < due) {
          }
          const auto late = std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - due)
                                .count();
          std::lock_guard<std::mutex> lock(tally.mutex);
          Tally::observe_into(tally.gen_late, late);
        }
        std::string request;
        if (o.batch == 1) {
          request = request_for(mine[i]);
        } else {
          JsonWriter w;
          w.begin_object();
          w.field("id", mine[i]);
          w.field("op", "batch");
          w.begin_array("requests");
          for (std::size_t j = 0; j < n; ++j) w.raw_value(request_for(mine[i + j]));
          w.end_array();
          w.end_object();
          request = w.str();
        }
        // Open loop: latency runs from the intended send, so the queueing a
        // late send suffers is counted rather than hidden (no coordinated
        // omission).  Closed loop: from the actual send.
        const auto t0 = o.rps > 0.0 ? due : std::chrono::steady_clock::now();
        std::string reply_text = conn.roundtrip(request);
        auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        // Collect the per-request replies (the line's own object, or the
        // in-order "replies" of a batch line).
        JsonValue reply;
        std::vector<const JsonValue*> per_request;
        bool line_ok = true;
        try {
          reply = parse_json(reply_text);
          if (o.batch == 1) {
            per_request.push_back(&reply);
          } else if (reply.has("ok") && reply.get("ok").as_bool() && reply.has("replies")) {
            for (const JsonValue& r : reply.get("replies").as_array()) per_request.push_back(&r);
          } else {
            line_ok = false;
            std::fprintf(stderr, "loadgen: error reply: %s\n", reply_text.c_str());
          }
        } catch (const JsonParseError& e) {
          line_ok = false;
          std::fprintf(stderr, "loadgen: unparsable reply: %s\n", e.what());
        }
        const std::int64_t per_us =
            us / static_cast<std::int64_t>(per_request.empty() ? 1 : per_request.size());
        std::lock_guard<std::mutex> lock(tally.mutex);
        if (o.batch > 1) Tally::observe_into(tally.latency["batch_line"], us);
        if (!line_ok) {
          tally.errors += static_cast<std::int64_t>(n);
          Tally::observe_into(tally.latency["all"], us);
          continue;
        }
        for (const JsonValue* rp : per_request) {
          bool ok = rp->has("ok") && rp->get("ok").as_bool();
          std::string disposition = rp->string_or("cache", "");
          std::int64_t server_us = rp->int_or("plan_us", -1);
          if (!ok) {
            std::fprintf(stderr, "loadgen: error reply: %s\n", rp->to_json().c_str());
            ++tally.errors;
          }
          Tally::observe_into(tally.latency["all"], per_us);
          if (ok && !disposition.empty()) {
            Tally::observe_into(tally.latency[disposition], per_us);
            ++tally.dispositions[disposition];
            if (server_us >= 0) Tally::observe_into(tally.plan_us[disposition], server_us);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                            .count();

  // Server-side view: one stats query over a fresh connection.
  JsonValue server_stats;
  {
    Connection conn(o.socket_path, o.port);
    try {
      server_stats = parse_json(conn.roundtrip("{\"id\":\"stats\",\"op\":\"stats\"}"));
    } catch (const JsonParseError&) {
    }
  }

  const std::int64_t hits =
      tally.dispositions.count("hit") ? tally.dispositions.at("hit") : 0;
  if (o.json) {
    JsonWriter w;
    w.begin_object();
    w.field("requests", o.requests);
    w.field("batch", static_cast<std::int64_t>(o.batch));
    w.field("errors", tally.errors);
    w.field("wall_s", wall_s);
    w.field("rps", static_cast<double>(o.requests) / (wall_s > 0 ? wall_s : 1.0));
    w.key("dispositions").begin_object();
    for (const auto& [name, count] : tally.dispositions) w.field(name, count);
    w.end_object();
    auto write_histograms = [&w](const std::map<std::string, obs::HistogramData>& hists) {
      for (const auto& [name, h] : hists) {
        w.key(name).begin_object();
        w.field("count", h.count);
        w.field("mean", h.mean());
        w.field("p50", h.percentile(0.50));
        w.field("p90", h.percentile(0.90));
        w.field("p99", h.percentile(0.99));
        w.field("p999", h.percentile(0.999));
        w.field("min", h.min);
        w.field("max", h.max);
        w.end_object();
      }
    };
    w.key("latency_us").begin_object();
    write_histograms(tally.latency);
    w.end_object();
    w.key("plan_us").begin_object();
    write_histograms(tally.plan_us);
    w.end_object();
    if (o.rps > 0.0) {
      w.key("gen_late_us").begin_object();
      write_histograms({{"send", tally.gen_late}});
      w.end_object();
    }
    if (server_stats.has("cache")) w.key("server").raw_value(server_stats.get("cache").to_json());
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("loadgen: %lld requests in %.2fs (%.1f rps), %lld errors\n",
                static_cast<long long>(o.requests), wall_s,
                static_cast<double>(o.requests) / (wall_s > 0 ? wall_s : 1.0),
                static_cast<long long>(tally.errors));
    for (const auto& [name, h] : tally.latency) {
      std::printf("  %-10s n=%-5lld p50=%lldus p90=%lldus p99=%lldus p999=%lldus max=%lldus\n",
                  name.c_str(), static_cast<long long>(h.count),
                  static_cast<long long>(h.percentile(0.50)),
                  static_cast<long long>(h.percentile(0.90)),
                  static_cast<long long>(h.percentile(0.99)),
                  static_cast<long long>(h.percentile(0.999)), static_cast<long long>(h.max));
    }
    if (o.rps > 0.0)
      std::printf("  generator lateness p50=%lldus p99=%lldus max=%lldus\n",
                  static_cast<long long>(tally.gen_late.percentile(0.50)),
                  static_cast<long long>(tally.gen_late.percentile(0.99)),
                  static_cast<long long>(tally.gen_late.max));
    for (const auto& [name, h] : tally.plan_us) {
      std::printf("  plan %-5s p50=%lldus max=%lldus (server-side)\n", name.c_str(),
                  static_cast<long long>(h.percentile(0.50)), static_cast<long long>(h.max));
    }
    if (server_stats.has("cache")) {
      const JsonValue& c = server_stats.get("cache");
      std::printf("  server cache: %lld hits, %lld pi, %lld misses, %lld+%lld evictions, "
                  "%lld docs / %lld skeletons live\n",
                  static_cast<long long>(c.int_or("hits", 0)),
                  static_cast<long long>(c.int_or("pi_hits", 0)),
                  static_cast<long long>(c.int_or("misses", 0) - c.int_or("pi_hits", 0)),
                  static_cast<long long>(c.int_or("doc_evictions", 0)),
                  static_cast<long long>(c.int_or("pi_evictions", 0)),
                  static_cast<long long>(c.int_or("documents", 0)),
                  static_cast<long long>(c.int_or("skeletons", 0)));
    }
  }

  if (tally.errors > 0) return 1;
  if (o.expect_hits && hits == 0) {
    std::fprintf(stderr, "loadgen: --expect-hits: no document cache hits recorded\n");
    return 2;
  }
  return 0;
}

// serve-mix: one serve::Server (2 worker threads, Unix socket, default
// cache capacities) around a PlanService, driven by one client process over
// 2 persistent connections.  The seeded request stream is
//   - ~90 % exact hits: renamed copies of a primed hot set, spread over
//     partition, map, predict and explain;
//   - ~8 % Π-reuse: a hot structure at new, one-off bounds (N <= 64);
//   - ~2 % cold misses: a new stencil dependence set (N <= 64);
// and no batch lines (the batch pool sizes itself to the machine).  Each
// connection's keys are disjoint, so dispositions do not depend on how the
// two connections interleave.  The stream runs open loop at three fixed
// rates (about 1/4, 1/2 and 3/4 of closed-loop saturation, measured once
// and frozen below), then closed loop to saturation.  Open-loop latency is
// timed from each request's intended send time, so a stall is charged to the
// requests queued behind it; the gated latencies come from the saturation
// phase (see run_serve_mix).  The hit path (request parse, .loop parse,
// dependence analysis, canonicalize, shard lookup, splice, write) does almost
// all the work; the Π-reuse and miss requests insert and evict beside the
// reads.
// Bypassed: the lattice sweep and simulator at scale, dense points and the
// threaded runtime.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/json_reader.hpp"
#include "frontend/parser.hpp"
#include "loop/dependence.hpp"
#include "serve/canonical.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace hypart;

constexpr int kConns = 2;
constexpr int kHotPerConn = 32;
constexpr std::size_t kServerThreads = 2;
/// Latency limit on the p99 of an open-loop rate.
constexpr double kP99LimitUs = 2000.0;
/// Open-loop rates in requests/s over both connections: about 1/4, 1/2 and
/// 3/4 of the closed-loop saturation of seed 1 on a 4-core machine
/// (RelWithDebInfo), frozen so every later run offers the same load.
constexpr double kRates[3] = {8000.0, 16000.0, 24000.0};
constexpr const char* kRateNames[3] = {"low", "mid", "high"};
/// Share of --seconds given to an unmeasured warm-up at the low rate, the
/// low, middle and high rates, and the saturation phase.
constexpr double kWarmShare = 0.1;
constexpr double kPhaseShare[4] = {0.2, 0.2, 0.2, 0.3};
/// Rough closed-loop rate, only to size the sample buffers up front.
constexpr double kClosedRateHint = 50000.0;
/// A generator whose median send lateness exceeds this has not offered the
/// load it claims: the run is invalid, not slow.  (Its p99 is reported, but
/// on a shared virtualized machine brief host stalls set it.)
constexpr double kLateLimitUs = 1000.0;
/// Requests in flight per connection in the closed-loop saturation phase:
/// enough that the server, not the client's wake-up latency, sets the rate.
constexpr std::size_t kClosedWindow = 8;
/// How long a phase waits after its end for replies still owed; a request
/// not answered by then counts as failed.
constexpr double kDrainLimitS = 20.0;
/// Window of the windowed tail percentiles (see windowed()).
constexpr double kWindowS = 0.5;
/// About one reply in kSampleEvery (seeded) is re-derived by a fresh
/// PlanService after the run, up to kMaxSamples.
constexpr std::uint64_t kSampleEvery = 128;
constexpr std::size_t kMaxSamples = 300;

// ---- request stream ---------------------------------------------------------

using Vec2 = std::pair<int, int>;
using Stencil = std::vector<Vec2>;

/// Every 2-D stencil of 2..5 distinct lexicographically positive distance
/// vectors (a in 1..3 with |b| <= 3, or a = 0 with b in 1..3) whose
/// dependence lattice has rank 2 and that has a valid Π inside the search
/// box (|Π_k| <= 3): a stencil with a (0, b) vector cannot also hold (1, -3).
std::vector<Stencil> stencil_pool() {
  std::vector<Vec2> vs;
  for (int a = 1; a <= 3; ++a)
    for (int b = -3; b <= 3; ++b) vs.emplace_back(a, b);
  for (int b = 1; b <= 3; ++b) vs.emplace_back(0, b);
  auto admissible = [](const Stencil& s) {
    bool rank2 = false, vertical = false, steep = false;
    for (std::size_t x = 0; x < s.size(); ++x) {
      vertical |= s[x].first == 0;
      steep |= s[x] == Vec2{1, -3};
      for (std::size_t y = x + 1; y < s.size(); ++y)
        rank2 |= s[x].first * s[y].second - s[x].second * s[y].first != 0;
    }
    return rank2 && !(vertical && steep);
  };
  std::vector<Stencil> pool;
  Stencil cur;
  // Subsets in lexicographic order of vector indices, sizes 2..5.
  auto grow = [&](auto&& self, std::size_t from) -> void {
    if (cur.size() >= 2 && admissible(cur)) pool.push_back(cur);
    if (cur.size() == 5) return;
    for (std::size_t k = from; k < vs.size(); ++k) {
      cur.push_back(vs[k]);
      self(self, k + 1);
      cur.pop_back();
    }
  };
  grow(grow, 0);
  return pool;
}

constexpr const char* kIndexNames[][2] = {{"i", "j"}, {"p", "q"}, {"x", "y"},
                                          {"r", "c"}, {"m", "n"}, {"u", "v"}};
constexpr const char* kArrayNames[] = {"A", "B", "U", "V", "W", "Grid", "T"};
constexpr const char* kOps[] = {"partition", "map", "predict", "explain"};

std::string offset(const char* index, int d) {
  if (d == 0) return index;
  return std::string(index) + (d > 0 ? "-" : "+") + std::to_string(d > 0 ? d : -d);
}

/// The stencil as a one-line `.loop` program; `rng` (when given) renames
/// the loop, its indices and its array.
std::string program(const Stencil& st, int lo, int hi, Rng* rng) {
  const char* const* idx = kIndexNames[0];
  const char* arr = kArrayNames[0];
  std::string name = "hot";
  if (rng != nullptr) {
    idx = kIndexNames[rng->range(0, 5)];
    arr = kArrayNames[rng->range(0, 6)];
    name = "k" + std::to_string(rng->range(0, 999999));
  }
  std::string s = "loop " + name + " { for " + idx[0] + " = " + std::to_string(lo) + " to " +
                  std::to_string(hi) + " for " + idx[1] + " = " + std::to_string(lo) + " to " +
                  std::to_string(hi) + " " + arr + "[" + idx[0] + ", " + idx[1] + "] = ";
  for (std::size_t k = 0; k < st.size(); ++k) {
    if (k != 0) s += " + ";
    s += std::string(arr) + "[" + offset(idx[0], st[k].first) + ", " + offset(idx[1], st[k].second) + "]";
  }
  return s + "; }";
}

std::string request_line(std::uint64_t id, const char* op, const std::string& prog) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op + "\",\"program\":\"" + prog + "\"}";
}

struct Request {
  std::string program;
  std::string line;
};

struct HotEntry {
  Stencil stencil;
  int hi = 0;
};

/// One connection's seeded request sequence.  The client process and the
/// in-process checks build it from the same seed and get the same requests.
/// Π-reuse bounds and miss stencils are one-off while their pools last
/// (about 52 000 and 25 000 per connection, several times what a 30 s run
/// uses here); past that they wrap around rather than fail.
class Stream {
 public:
  Stream(std::uint64_t seed, int conn, const std::vector<Stencil>& pool)
      : rng_(seed * 7919 + static_cast<std::uint64_t>(conn)) {
    Rng pick(seed);
    std::vector<std::size_t> order(pool.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    shuffle(order, pick);
    auto c = static_cast<std::size_t>(conn);
    for (std::size_t h = 0; h < kHotPerConn; ++h)
      hot_.push_back({pool[order[c * kHotPerConn + h]], static_cast<int>(pick.range(24, 48))});
    for (std::size_t k = kConns * kHotPerConn + c; k < order.size(); k += kConns)
      misses_.push_back(pool[order[k]]);
    for (std::size_t h = 0; h < hot_.size(); ++h)
      for (int lo = 0; lo <= 56; ++lo)
        for (int hi = lo + 8; hi <= 64; ++hi)
          if (!(lo == 1 && hi == hot_[h].hi)) resizes_.push_back({static_cast<int>(h), lo, hi});
    shuffle(resizes_, rng_);
  }

  [[nodiscard]] std::string prime_line(std::size_t h) const {
    return request_line(h, "partition", program(hot_[h].stencil, 1, hot_[h].hi, nullptr));
  }

  Request next(std::uint64_t id) {
    Request r;
    double u = rng_.unit();
    const char* op = kOps[rng_.range(0, 3)];
    if (u < 0.90) {
      const HotEntry& h = hot_[static_cast<std::size_t>(rng_.range(0, kHotPerConn - 1))];
      r.program = program(h.stencil, 1, h.hi, &rng_);
    } else if (u < 0.98) {
      const Resize& z = resizes_[next_resize_++ % resizes_.size()];
      r.program = program(hot_[static_cast<std::size_t>(z.h)].stencil, z.lo, z.hi, &rng_);
    } else {
      int hi = static_cast<int>(rng_.range(16, 64));
      r.program = program(misses_[next_miss_++ % misses_.size()], 1, hi, &rng_);
    }
    r.line = request_line(id, op, r.program);
    return r;
  }

 private:
  struct Resize {
    int h, lo, hi;
  };
  Rng rng_;
  std::vector<HotEntry> hot_;
  std::vector<Stencil> misses_;
  std::vector<Resize> resizes_;
  std::size_t next_miss_ = 0, next_resize_ = 0;
};

bool sampled(std::uint64_t seed, int conn, std::uint64_t k) {
  Rng h(seed ^ (k * 0x9E3779B97F4A7C15ull) ^ (static_cast<std::uint64_t>(conn) << 56));
  return h.next() % kSampleEvery == 0;
}

/// A reply with the fields that legitimately differ between a cached and a
/// fresh answer (disposition and server wall time) removed.
std::string normalized(std::string reply) {
  for (const std::string key : {"\"cache\":", "\"plan_us\":"}) {
    std::size_t at = reply.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = at + key.size();
    end = reply[end] == '"' ? reply.find('"', end + 1) + 1 : reply.find_first_of(",}", end);
    if (end < reply.size() && reply[end] == ',') ++end;
    reply.erase(at, end - at);
  }
  return reply;
}

char disposition(const std::string& reply) {
  std::size_t at = reply.find("\"cache\":\"");
  return at == std::string::npos ? '?' : reply[at + 9];
}

// ---- socket client -------------------------------------------------------------

int connect_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path + "): " + std::strerror(errno));
  }
  return fd;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("write: " + std::string(std::strerror(errno)));
    off += static_cast<std::size_t>(n);
  }
}

/// Reads a socket in blocks (never a byte per read) and splits lines.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  /// One read(); appends complete lines to `lines`.  False on EOF/error.
  bool fill(std::vector<std::string>& lines) {
    char buf[65536];
    ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
    if (n <= 0) return false;
    pending_.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0, nl;
    while ((nl = pending_.find('\n', start)) != std::string::npos) {
      lines.emplace_back(pending_, start, nl - start);
      start = nl + 1;
    }
    pending_.erase(0, start);
    return true;
  }
  std::string read_line() {
    std::vector<std::string> lines;
    while (lines.empty())
      if (!fill(lines)) throw std::runtime_error("connection closed");
    if (lines.size() != 1) throw std::runtime_error("unexpected pipelined reply");
    return lines.front();
  }

 private:
  int fd_;
  std::string pending_;
};

// ---- client process --------------------------------------------------------------

struct PhaseResult {
  std::vector<double> latency_us;  ///< from intended send time
  std::vector<double> intended_us;  ///< intended send time, from phase start
  std::vector<double> late_us;     ///< send lateness
  std::int64_t sent = 0, received = 0;
  double seconds = 0.0;
};

struct ClientConn {
  int fd = -1;
  std::optional<LineReader> reader;
  std::optional<Stream> stream;
  struct Pending {
    double intended_us, sent_us;
    std::uint64_t k;
  };
  std::deque<Pending> inflight;
  std::uint64_t next_k = 0;
  /// Request bytes the (non-blocking) socket has not taken yet.  The client
  /// never blocks in write(): a blocked writer stops reading replies, and a
  /// server blocked on writing those replies stops reading requests.
  std::string outbuf;

  void flush() {
    while (!outbuf.empty()) {
      ssize_t n = ::write(fd, outbuf.data(), outbuf.size());
      if (n < 0 && (errno == EINTR)) continue;
      if (n < 0 && errno == EAGAIN) return;
      if (n <= 0) throw std::runtime_error("write: " + std::string(std::strerror(errno)));
      outbuf.erase(0, static_cast<std::size_t>(n));
    }
  }
};

struct ClientTotals {
  std::int64_t bad = 0;  ///< not-ok replies and requests never answered
  double work_us = 0.0;  ///< time spent generating, sending and reading (not spinning)
  std::int64_t disp[3] = {0, 0, 0};
  std::vector<double> transport_us;
  std::vector<std::string> samples;
};

/// One phase.  rate > 0: open loop at `rate` requests/s over all
/// connections, evenly spaced.  rate == 0: closed loop, kClosedWindow
/// requests in flight per connection.
PhaseResult run_phase(std::vector<ClientConn>& conns, double rate, double seconds,
                      std::uint64_t seed, ClientTotals& tot) {
  PhaseResult res;
  const bool open = rate > 0.0;
  const double start = now_us(), end = start + seconds * 1e6;
  const double interval = open ? 1e6 * kConns / rate : 0.0;
  std::vector<double> next_due(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c)
    next_due[c] = start + interval * static_cast<double>(c) / kConns;
  std::vector<pollfd> fds(conns.size());
  std::vector<std::string> lines;
  {
    // Grow nothing inside the timed loop: a vector doubling there is a
    // client stall charged to the server.
    auto expect = static_cast<std::size_t>((open ? rate : kClosedRateHint) * seconds * 1.1) + 1024;
    res.latency_us.reserve(expect);
    res.intended_us.reserve(expect);
    res.late_us.reserve(expect);
    tot.transport_us.reserve(tot.transport_us.size() + expect);
  }

  auto send = [&](ClientConn& cc, double intended) {
    double t0 = now_us();
    Request r = cc.stream->next(cc.next_k);
    double sent = now_us();
    cc.outbuf += r.line;
    cc.outbuf += '\n';
    cc.flush();
    cc.inflight.push_back({intended, sent, cc.next_k++});
    ++res.sent;
    if (open) res.late_us.push_back(sent - intended);
    tot.work_us += now_us() - t0;
  };

  for (;;) {
    double now = now_us();
    bool idle = true;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (open) {
        while (next_due[c] <= now && next_due[c] < end) {
          send(conns[c], next_due[c]);
          next_due[c] += interval;
        }
      } else {
        while (conns[c].inflight.size() < kClosedWindow && now < end) send(conns[c], now);
      }
      if (!conns[c].inflight.empty()) idle = false;
    }
    now = now_us();
    if (now >= end && idle) break;
    if (now > end + kDrainLimitS * 1e6) {  // replies that never came count as failures
      for (ClientConn& cc : conns) tot.bad += static_cast<std::int64_t>(cc.inflight.size());
      break;
    }
    // Open loop, the client spins (zero-timeout polls) instead of sleeping
    // until the next send: a sleeping client adds its own wake-up latency,
    // which varies with the host, to every request it times.  Closed loop,
    // the server always has queued work, so the client sleeps until a reply
    // arrives and leaves the cores to the server.
    timespec ts{};
    if (!open) ts.tv_nsec = 10'000'000;
    for (std::size_t c = 0; c < conns.size(); ++c)
      fds[c] = {conns[c].fd, static_cast<short>(POLLIN | (conns[c].outbuf.empty() ? 0 : POLLOUT)), 0};
    int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    for (std::size_t c = 0; c < conns.size(); ++c) {
      ClientConn& cc = conns[c];
      if ((fds[c].revents & POLLOUT) != 0) cc.flush();
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      double read_start = now_us();
      if (!cc.reader->fill(lines)) throw std::runtime_error("server closed the connection");
      double recv = now_us();
      for (const std::string& reply : lines) {
        if (cc.inflight.empty()) throw std::runtime_error("reply without a request");
        ClientConn::Pending p = cc.inflight.front();
        cc.inflight.pop_front();
        ++res.received;
        res.latency_us.push_back(recv - p.intended_us);
        res.intended_us.push_back(p.intended_us - start);
        if (reply.find("\"ok\":true") == std::string::npos) {
          ++tot.bad;
          continue;
        }
        switch (disposition(reply)) {
          case 'h': ++tot.disp[0]; break;
          case 'p': ++tot.disp[1]; break;
          default: ++tot.disp[2]; break;
        }
        std::size_t at = reply.find("\"plan_us\":");
        if (open && at != std::string::npos)
          tot.transport_us.push_back(recv - p.sent_us - std::strtod(reply.c_str() + at + 10, nullptr));
        if (tot.samples.size() < kMaxSamples && sampled(seed, static_cast<int>(c), p.k))
          tot.samples.push_back(std::to_string(c) + " " + std::to_string(p.k) + " " + reply);
      }
      tot.work_us += now_us() - read_start;
    }
  }
  res.seconds = (now_us() - start) / 1e6;
  return res;
}

/// Median over kWindowS-long windows of each window's percentile `p`: the
/// typical tail at this rate.  A stall of the (shared, virtualized) machine
/// lands in one or two windows instead of setting the whole phase's tail.
double windowed(const PhaseResult& r, double p) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    auto w = static_cast<std::size_t>(r.intended_us[i] / (kWindowS * 1e6));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(r.latency_us[i]);
  }
  std::vector<double> tails;
  for (const std::vector<double>& w : windows)
    if (w.size() >= 1000) tails.push_back(percentile(w, p));
  return median(tails);
}

// ---- server side -------------------------------------------------------------------

std::string self_exe() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot locate the benchmark binary");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Run the client process to completion and return its stdout.
std::string run_client(const Args& args, const std::string& socket_path) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, pipefd[1], 1);
  posix_spawn_file_actions_addclose(&fa, pipefd[0]);
  posix_spawn_file_actions_addclose(&fa, pipefd[1]);
  std::string exe = self_exe(), seed = std::to_string(args.seed);
  char secs[32];
  std::snprintf(secs, sizeof secs, "%.6f", args.seconds);
  std::vector<std::string> argv_s = {exe, "serve-client", socket_path, seed, secs};
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(pipefd[1]);
  if (rc != 0) {
    ::close(pipefd[0]);
    throw std::runtime_error("posix_spawn failed");
  }
  std::string out;
  char buf[65536];
  for (;;) {
    ssize_t n = ::read(pipefd[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(pipefd[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("serve client failed: " + out.substr(0, 400));
  return out;
}

/// A started server with its hot sets primed over the socket.
struct Deployment {
  std::unique_ptr<serve::PlanService> service;
  std::unique_ptr<serve::Server> server;
};

/// Each connection's priming requests (one per hot program), built once so
/// the set-up time is the server's, not the generator's.
std::vector<std::vector<std::string>> prime_lines(std::uint64_t seed, const std::vector<Stencil>& pool) {
  std::vector<std::vector<std::string>> lines(kConns);
  for (int c = 0; c < kConns; ++c) {
    Stream stream(seed, c, pool);
    for (std::size_t h = 0; h < kHotPerConn; ++h)
      lines[static_cast<std::size_t>(c)].push_back(stream.prime_line(h));
  }
  return lines;
}

Deployment deploy(const std::string& socket_path, const std::vector<std::vector<std::string>>& prime) {
  Deployment d;
  d.service = std::make_unique<serve::PlanService>();
  serve::ServerOptions opts;
  opts.unix_path = socket_path;
  opts.threads = kServerThreads;
  d.server = std::make_unique<serve::Server>(*d.service, opts);
  d.server->start();
  for (const std::vector<std::string>& lines : prime) {
    int fd = connect_unix(socket_path);
    LineReader reader(fd);
    for (const std::string& line : lines) {
      write_all(fd, line + "\n");
      std::string reply = reader.read_line();
      if (reply.find("\"ok\":true") == std::string::npos) {
        ::close(fd);
        throw std::runtime_error("priming failed: " + reply.substr(0, 300));
      }
    }
    ::close(fd);
  }
  return d;
}

void stop(Deployment& d) {
  d.server->request_stop();
  d.server->stop();
  d.server.reset();
  d.service.reset();
}

/// In-process replay of the first `count` requests of both streams
/// (alternating) on a fresh, primed PlanService, spanning each request's
/// layers: request JSON parse, .loop parse, dependence analysis and
/// canonicalize are called out of line on the same input, then
/// handle_line itself; the hit/Π/miss self time is handle_line minus those.
void replay_layers(const Args& args, const std::vector<Stencil>& pool, std::size_t count, Outcome& out) {
  Tracer tr;
  serve::PlanService svc;
  std::vector<Stream> streams;
  for (int c = 0; c < kConns; ++c) {
    streams.emplace_back(args.seed, c, pool);
    for (std::size_t h = 0; h < kHotPerConn; ++h) (void)svc.handle_line(streams.back().prime_line(h));
  }
  double comp_us[4] = {0, 0, 0, 0}, comp_allocs[4] = {0, 0, 0, 0};  // json, parse, dep, canon
  double self_us[3] = {0, 0, 0}, self_allocs[3] = {0, 0, 0}, whole_allocs[3] = {0, 0, 0};
  std::int64_t n[3] = {0, 0, 0};
  std::vector<double> handle_us;
  for (std::size_t k = 0; k < count; ++k) {
    Request r = streams[k % kConns].next(k / kConns);
    int req = tr.open("serve.request");
    int ids[4];
    ids[0] = tr.open("serve.json_parse");
    { JsonValue v = parse_json(r.line); (void)v; }
    tr.close(ids[0]);
    ids[1] = tr.open("frontend.parse");
    std::optional<LoopNest> nest(parse_loop_nest(r.program));
    tr.close(ids[1]);
    ids[2] = tr.open("loop.dependence");
    std::optional<DependenceInfo> dep(analyze_dependences(*nest));
    tr.close(ids[2]);
    ids[3] = tr.open("serve.canonicalize");
    { serve::CanonicalForm f = serve::canonicalize_nest(*nest, *dep); (void)f; }
    tr.close(ids[3]);
    dep.reset();
    nest.reset();
    int hid = tr.open("serve.handle_line");
    std::string reply = svc.handle_line(r.line);
    tr.close(hid);
    tr.close(req);

    const auto& spans = tr.spans();
    if (reply.find("\"ok\":true") == std::string::npos) fail(out, "replay: " + reply.substr(0, 200));
    char d = disposition(reply);
    int di = d == 'h' ? 0 : d == 'p' ? 1 : 2;
    double comp = 0.0, comp_a = 0.0;
    for (int i = 0; i < 4; ++i) {
      const SpanRecord& s = spans[static_cast<std::size_t>(ids[i])];
      comp_us[i] += s.dur_us;
      comp_allocs[i] += static_cast<double>(s.allocs);
      comp += s.dur_us;
      comp_a += static_cast<double>(s.allocs);
    }
    const SpanRecord& h = spans[static_cast<std::size_t>(hid)];
    handle_us.push_back(h.dur_us);
    self_us[di] += h.dur_us - comp;
    self_allocs[di] += static_cast<double>(h.allocs) - comp_a;
    whole_allocs[di] += static_cast<double>(h.allocs);
    ++n[di];
  }
  auto total = static_cast<double>(count);
  auto calls = static_cast<std::int64_t>(count);
  const char* comp_names[4] = {"serve.json_parse", "frontend.parse", "loop.dependence",
                               "serve.canonicalize"};
  for (int i = 0; i < 4; ++i) {
    out.per_layer[std::string(comp_names[i]) + "_us"] = {comp_us[i] / total, "us", calls};
    out.per_layer[std::string(comp_names[i]) + "_allocs"] = {comp_allocs[i] / total, "count", 0};
  }
  const char* disp_names[3] = {"serve.hit", "serve.pi", "serve.miss"};
  for (int i = 0; i < 3; ++i) {
    double m = static_cast<double>(std::max<std::int64_t>(n[i], 1));
    out.per_layer[std::string(disp_names[i]) + "_us"] = {self_us[i] / m, "us", n[i]};
    out.per_layer[std::string(disp_names[i]) + "_allocs"] = {self_allocs[i] / m, "count", 0};
    out.per_layer[disp_names[i]] = {static_cast<double>(n[i]), "count", 0};
  }
  out.per_layer["serve.allocs_per_hit"] = {
      whole_allocs[0] / static_cast<double>(std::max<std::int64_t>(n[0], 1)), "count", 0};
  serve::PlanCacheStats st = svc.cache_stats();
  out.per_layer["serve.evictions"] = {static_cast<double>(st.doc_evictions + st.pi_evictions),
                                      "count", 0};

  // The same requests untraced, on another fresh service: the ratio of the
  // two handle_line medians is the span overhead.
  serve::PlanService plain;
  std::vector<Stream> again;
  for (int c = 0; c < kConns; ++c) {
    again.emplace_back(args.seed, c, pool);
    for (std::size_t h = 0; h < kHotPerConn; ++h) (void)plain.handle_line(again.back().prime_line(h));
  }
  std::vector<double> plain_us;
  for (std::size_t k = 0; k < count; ++k) {
    Request r = again[k % kConns].next(k / kConns);
    double t0 = now_us();
    std::string reply = plain.handle_line(r.line);
    plain_us.push_back(now_us() - t0);
  }
  out.per_layer["trace.overhead_ratio"] = {median(handle_us) / median(plain_us), "ratio", calls};
  out.notes.push_back("replay of " + std::to_string(count) + " requests: hit " + std::to_string(n[0]) +
                      ", pi " + std::to_string(n[1]) + ", miss " + std::to_string(n[2]) +
                      "; mean handle_line " + std::to_string(mean(handle_us)) + " us");
  write_out(args, "serve-mix.trace.json", tr.to_chrome_json());
}

}  // namespace

// The client process: argv = [exe, "serve-client", socket, seed, seconds].
// Prints "key value..." lines for the server process to parse.
int serve_client_main(int argc, char** argv) {
  if (argc != 5) return 2;
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const std::string socket_path = argv[2];
    const std::uint64_t seed = std::stoull(argv[3]);
    const double seconds = std::stod(argv[4]);
    std::vector<Stencil> pool = stencil_pool();
    std::vector<ClientConn> conns(kConns);
    for (int c = 0; c < kConns; ++c) {
      conns[static_cast<std::size_t>(c)].fd = connect_unix(socket_path);
      ::fcntl(conns[static_cast<std::size_t>(c)].fd, F_SETFL, O_NONBLOCK);
      conns[static_cast<std::size_t>(c)].reader.emplace(conns[static_cast<std::size_t>(c)].fd);
      conns[static_cast<std::size_t>(c)].stream.emplace(seed, c, pool);
    }
    ClientTotals tot;
    std::int64_t requests = 0;
    std::string report;
    char buf[512];
    {
      ClientTotals warm;
      PhaseResult r = run_phase(conns, kRates[0], seconds * kWarmShare, seed, warm);
      tot.bad += warm.bad;
      tot.work_us += warm.work_us;
      requests += r.sent;
    }
    for (int p = 0; p < 3; ++p) {
      PhaseResult r = run_phase(conns, kRates[p], seconds * kPhaseShare[p], seed, tot);
      requests += r.sent;
      std::snprintf(buf, sizeof buf,
                    "phase %s rate %.17g sent %lld received %lld p50_us %.17g p99_us %.17g "
                    "window_p95_us %.17g window_p99_us %.17g late_p50_us %.17g "
                    "late_p99_us %.17g\n",
                    kRateNames[p], kRates[p], static_cast<long long>(r.sent),
                    static_cast<long long>(r.received), percentile(r.latency_us, 50),
                    percentile(r.latency_us, 99), windowed(r, 95), windowed(r, 99),
                    percentile(r.late_us, 50), percentile(r.late_us, 99));
      report += buf;
    }
    PhaseResult sat = run_phase(conns, 0.0, seconds * kPhaseShare[3], seed, tot);
    std::snprintf(buf, sizeof buf, "phase sat p50_us %.17g window_p95_us %.17g p99_us %.17g\n",
                  percentile(sat.latency_us, 50), windowed(sat, 95), percentile(sat.latency_us, 99));
    report += buf;
    requests += sat.sent;
    std::snprintf(buf, sizeof buf,
                  "saturation %lld %.17g\ntransport_p50_us %.17g\ncpu_us_per_req %.17g\n"
                  "bad %lld\nrequests %lld\ndisp %lld %lld %lld\n",
                  static_cast<long long>(sat.received), sat.seconds, percentile(tot.transport_us, 50),
                  tot.work_us / static_cast<double>(std::max<std::int64_t>(requests, 1)),
                  static_cast<long long>(tot.bad), static_cast<long long>(requests),
                  static_cast<long long>(tot.disp[0]), static_cast<long long>(tot.disp[1]),
                  static_cast<long long>(tot.disp[2]));
    report += buf;
    for (const std::string& s : tot.samples) report += "sample " + s + "\n";
    for (ClientConn& cc : conns) ::close(cc.fd);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::printf("error %s\n", e.what());
    return 1;
  }
}

Outcome run_serve_mix(const Args& args) {
  ::signal(SIGPIPE, SIG_IGN);
  Outcome out;
  std::vector<Stencil> pool = stencil_pool();
  const std::string socket_path = out_path(args, "serve-" + std::to_string(::getpid()) + ".sock");

  // Set-up (server start + priming both hot sets), fifteen times; the last
  // deployment serves the run.
  const std::vector<std::vector<std::string>> prime = prime_lines(args.seed, pool);
  std::vector<double> setup_s;
  Deployment dep;
  for (int rep = 0; rep < 15; ++rep) {
    if (dep.server) stop(dep);
    double t0 = now_us();
    dep = deploy(socket_path, prime);
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  std::string report;
  double client_start = now_us();
  try {
    report = run_client(args, socket_path);
  } catch (...) {
    stop(dep);
    throw;
  }
  stop(dep);
  out.notes.push_back("client process ran " + std::to_string((now_us() - client_start) / 1e6) + " s");

  // Parse the client's report.
  std::istringstream in(report);
  std::string line;
  std::map<std::string, std::map<std::string, double>> phase;
  double sat_n = 0, sat_s = 1, transport = 0, cpu = 0;
  std::int64_t bad = 0, requests = 0, disp[3] = {0, 0, 0};
  std::vector<std::string> samples;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "phase") {
      std::string name, field;
      double v;
      ls >> name;
      while (ls >> field >> v) phase[name][field] = v;
    } else if (key == "saturation") ls >> sat_n >> sat_s;
    else if (key == "transport_p50_us") ls >> transport;
    else if (key == "cpu_us_per_req") ls >> cpu;
    else if (key == "bad") ls >> bad;
    else if (key == "requests") ls >> requests;
    else if (key == "disp") ls >> disp[0] >> disp[1] >> disp[2];
    else if (key == "sample") samples.push_back(line.substr(7));
  }
  for (const char* name : kRateNames)
    if (phase[name].size() != 9) throw std::runtime_error("serve client report incomplete");
  out.attempted = requests;
  for (std::int64_t b = 0; b < bad; ++b) fail(out, "a request got no ok reply");

  double late_p50 = 0.0, late_p99 = 0.0, max_met = 0.0;
  for (const char* name : kRateNames) {
    std::map<std::string, double>& v = phase[name];
    late_p50 = std::max(late_p50, v["late_p50_us"]);
    late_p99 = std::max(late_p99, v["late_p99_us"]);
    if (v["window_p99_us"] <= kP99LimitUs && v["sent"] == v["received"]) max_met = v["rate"];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "rate %s %.0f/s: p50 %.1f us, windowed p95 %.1f us, p99 %.1f us, windowed p99 "
                  "%.1f us, send late p50/p99 %.1f/%.1f us, n=%.0f",
                  name, v["rate"], v["p50_us"], v["window_p95_us"], v["p99_us"],
                  v["window_p99_us"], v["late_p50_us"], v["late_p99_us"], v["received"]);
    out.notes.push_back(buf);
    out.per_layer[std::string("serve.rate_") + name + ".latency_p99_ms"] = {
        v["window_p99_us"] / 1000.0, "ms", static_cast<std::int64_t>(v["received"])};
  }
  out.notes.push_back("saturation: " + std::to_string(sat_n / sat_s) + " req/s, p50 " +
                      std::to_string(phase["sat"]["p50_us"]) + " us, windowed p95 " +
                      std::to_string(phase["sat"]["window_p95_us"]) + " us; dispositions hit " +
                      std::to_string(disp[0]) + " pi " + std::to_string(disp[1]) + " miss " +
                      std::to_string(disp[2]));
  if (late_p50 > kLateLimitUs)
    out.invalid = "load generator fell behind its schedule (median send lateness " +
                  std::to_string(late_p50) + " us)";

  // The gated latencies come from the closed-loop saturation phase, where
  // both workers are never idle.  At the open-loop rates they idle between
  // requests, and on a shared virtualized host the wake-up of an idle vCPU
  // set the tail: across ten runs of one build the low rate's p95 was
  // either about 0.35 ms or 1.2-1.7 ms, and the middle rate's 0.4-5.5 ms.
  // Those rates stay in the per-layer record.  p95, not p90: about a tenth
  // of the requests are Π-reuse or misses, so p90 sits on the edge between
  // hit and planned latencies.
  std::map<std::string, double>& sat = phase["sat"];
  auto sat_count = static_cast<std::int64_t>(sat_n);
  out.end_to_end["setup_s"] = {median(setup_s), "s", static_cast<std::int64_t>(setup_s.size())};
  out.end_to_end["latency_p50_ms"] = {sat["p50_us"] / 1000.0, "ms", sat_count};
  out.end_to_end["latency_p95_ms"] = {sat["window_p95_us"] / 1000.0, "ms", sat_count};
  out.end_to_end["throughput_per_s"] = {sat_n / sat_s, "op/s", sat_count};
  out.extra["latency_p99_ms"] = {sat["p99_us"] / 1000.0, "ms", sat_count};
  std::map<std::string, double>& low = phase["low"];
  auto low_n = static_cast<std::int64_t>(low["received"]);
  out.per_layer["serve.max_rate_met_rps"] = {max_met, "1/s", 0};
  out.per_layer["serve.transport_us"] = {transport, "us", low_n};
  out.per_layer["bench.gen_late_p99_us"] = {late_p99, "us", low_n};
  out.per_layer["bench.client_cpu_us_per_req"] = {cpu, "us", requests};

  // Re-derive the sampled replies on a fresh PlanService, outside the timed
  // region: the bytes must match once disposition and plan_us are removed.
  std::map<int, std::map<std::uint64_t, std::string>> want;
  for (const std::string& s : samples) {
    std::istringstream ss(s);
    int c;
    std::uint64_t k;
    ss >> c >> k;
    want[c][k] = s.substr(s.find(' ', s.find(' ') + 1) + 1);
  }
  std::int64_t checked = 0;
  double verify_start = now_us();
  for (auto& [c, by_k] : want) {
    Stream stream(args.seed, c, pool);
    std::uint64_t k = 0;
    for (auto& [target, reply] : by_k) {
      Request r;
      while (k <= target) r = stream.next(k++);
      serve::PlanService fresh;
      std::string expect = fresh.handle_line(r.line);
      ++checked;
      if (normalized(expect) != normalized(reply))
        fail(out, "reply differs from a fresh PlanService: " + reply.substr(0, 160));
    }
  }
  out.notes.push_back("sampled replies re-derived on a fresh PlanService: " + std::to_string(checked) +
                      " in " + std::to_string((now_us() - verify_start) / 1e6) + " s");

  if (args.trace) replay_layers(args, pool, 20000, out);
  return out;
}

}  // namespace perfbench

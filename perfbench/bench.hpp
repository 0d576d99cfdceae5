// hypart perfbench — shared pieces of the three workloads: the seeded
// generator, timing and percentile helpers, the in-memory span recorder of
// the traced run, and the result the driver prints.
//
// Spans are recorded here, in the benchmark, around calls into the
// library's public functions; nothing inside the library is instrumented
// for it.  Allocation counts come from obs::thread_alloc_count(), the
// counting operator new behind obs::Span, so they repeat exactly.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

// ---- seeded generator ------------------------------------------------------

/// splitmix64: tiny, fast, and identical on every standard library (the
/// std:: distributions are not), so a seed names the same inputs anywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (inclusive).
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next() % i)]);
}

// ---- clocks and summaries ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now().time_since_epoch()).count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }
double mean(const std::vector<double>& v);

/// Peak resident set of this process in MiB.
double peak_rss_mib();

// ---- traced run: in-memory span recorder -----------------------------------

/// One closed span.  `name` must be a string literal (spans never allocate,
/// so they do not disturb the allocation counts they record).
struct SpanRecord {
  const char* name = nullptr;
  int parent = -1;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t allocs = 0;
};

/// Records nested spans of one thread.  Self time and self allocations of
/// a span are its own minus those of its direct children.
class Tracer {
 public:
  Tracer();
  int open(const char* name);
  void close(int id);

  struct Layer {
    double self_us = 0.0;
    double self_allocs = 0.0;
    std::int64_t calls = 0;
  };
  /// Self time and allocations summed per span name.
  [[nodiscard]] std::map<std::string, Layer> layers() const;
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Chrome trace-event JSON of every span (written once, at the end).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> start_allocs_;
  std::vector<int> stack_;
};

/// RAII span; inert when `tracer` is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->open(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// ---- results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< measurements behind the value; 0 = a count
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Set when the run cannot be trusted (not merely slow), e.g. the load
  /// generator fell behind its schedule.  The driver then prints no result.
  std::string invalid;
  std::map<std::string, Metric> end_to_end;  ///< untraced run
  std::map<std::string, Metric> per_layer;   ///< traced run
  /// Printed for the record but not gated (e.g. serve-mix's p99).
  std::map<std::string, Metric> extra;
  std::vector<std::string> notes;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Record one failed output check (message kept for the report, capped).
void fail(Outcome& out, const std::string& what);

/// Fill the end-to-end latency/throughput metrics shared by the in-process
/// workloads from per-operation wall times (microseconds).
void add_latency_metrics(Outcome& out, const std::vector<double>& op_us, double measured_s);

/// The per-layer metric names every workload reports in its traced run
/// (0 where the workload bypasses the layer), so the set is the same on
/// every workload.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

/// Copy a tracer's per-layer self time and self allocations, as means per
/// call of each layer, into `out` ("exec.*" spans in ms, the rest in us).
void add_layer_metrics(Outcome& out, const Tracer& tracer);

/// `<out_dir>/<name>`, creating the directory.
std::string out_path(const Args& args, const std::string& name);
/// Write `text` to out_path(args, name).
void write_out(const Args& args, const std::string& name, const std::string& text);

Outcome run_plan_symbolic(const Args& args);
Outcome run_serve_mix(const Args& args);
Outcome run_exec_dense(const Args& args);
/// Client half of serve-mix (a separate process; see serve_mix.cpp).
int serve_client_main(int argc, char** argv);
/// Print the plan-symbolic digest table (pinned_digests.inc).
int pin_digests_main();

}  // namespace perfbench

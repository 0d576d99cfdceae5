#include "bench.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mib() { return static_cast<double>(hypart::obs::peak_rss_kb()) / 1024.0; }

// ---- Tracer -------------------------------------------------------------------

Tracer::Tracer() {
  spans_.reserve(1 << 18);
  start_allocs_.reserve(1 << 18);
  stack_.reserve(64);
}

int Tracer::open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  // Bookkeeping first, clock and counter last: the span's own growth of
  // the record vectors is not charged to the work it brackets.
  spans_.push_back(rec);
  start_allocs_.push_back(0);
  int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  start_allocs_[static_cast<std::size_t>(id)] = hypart::obs::thread_alloc_count();
  spans_[static_cast<std::size_t>(id)].start_us = now_us();
  return id;
}

void Tracer::close(int id) {
  double end = now_us();
  std::uint64_t allocs = hypart::obs::thread_alloc_count();
  SpanRecord& rec = spans_[static_cast<std::size_t>(id)];
  rec.dur_us = end - rec.start_us;
  rec.allocs = allocs - start_allocs_[static_cast<std::size_t>(id)];
  if (stack_.empty() || stack_.back() != id) throw std::logic_error("perfbench: spans closed out of order");
  stack_.pop_back();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  std::vector<double> child_allocs(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) continue;
    child_us[static_cast<std::size_t>(s.parent)] += s.dur_us;
    child_allocs[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.allocs);
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Layer& l = out[spans_[i].name];
    l.self_us += spans_[i].dur_us - child_us[i];
    l.self_allocs += static_cast<double>(spans_[i].allocs) - child_allocs[i];
    ++l.calls;
  }
  return out;
}

std::string Tracer::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i != 0) os << ",\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"allocs\":%llu}}",
                  s.name, s.start_us - t0, s.dur_us, i, s.parent,
                  static_cast<unsigned long long>(s.allocs));
    os << buf;
  }
  os << "]}\n";
  return os.str();
}

// ---- results --------------------------------------------------------------------

void fail(Outcome& out, const std::string& what) {
  ++out.failed;
  if (out.notes.size() < 20) out.notes.push_back("FAILED: " + what);
}

void add_latency_metrics(Outcome& out, const std::vector<double>& op_us, double measured_s) {
  auto n = static_cast<std::int64_t>(op_us.size());
  out.end_to_end["latency_p50_ms"] = {percentile(op_us, 50) / 1000.0, "ms", n};
  // p95, not p99: a run holds a few hundred operations, so p99 would rest
  // on a handful of samples.  p95 also sits inside the slowest nest class
  // (a sixth or a quarter of the operations), not on the edge between two.
  out.end_to_end["latency_p95_ms"] = {percentile(op_us, 95) / 1000.0, "ms", n};
  out.end_to_end["throughput_per_s"] = {static_cast<double>(n) / measured_s, "op/s", n};
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v;
    for (const char* layer :
         {"frontend.parse", "loop.dependence", "loop.iter_space", "schedule.pi_search",
          "partition.lattice_build", "partition.sweep", "partition.line_grouping",
          "partition.dense", "partition.validate", "mapping.map", "sim.lattice", "sim.line",
          "sim.dense", "serve.json_parse", "serve.canonicalize", "serve.hit", "serve.pi",
          "serve.miss"}) {
      v.emplace_back(std::string(layer) + "_us", "us");
      v.emplace_back(std::string(layer) + "_allocs", "count");
    }
    for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
             {"loop.slabs", "count"},
             {"partition.lines", "count"},
             {"partition.lattice_fallbacks", "count"},
             {"pipeline.overhead_us", "us"},
             {"serve.allocs_per_hit", "count"},
             {"serve.evictions", "count"},
             {"serve.transport_us", "us"},
             {"serve.hit", "count"},
             {"serve.pi", "count"},
             {"serve.miss", "count"},
             {"serve.rate_low.latency_p99_ms", "ms"},
             {"serve.rate_mid.latency_p99_ms", "ms"},
             {"serve.rate_high.latency_p99_ms", "ms"},
             {"serve.max_rate_met_rps", "1/s"},
             {"exec.threads_ms", "ms"},
             {"exec.wait_share", "ratio"},
             {"exec.messages", "count"},
             {"exec.max_mailbox_depth", "count"},
             {"exec.sequential_ms", "ms"},
             {"exec.compare_ms", "ms"},
             {"bench.gen_late_p99_us", "us"},
             {"bench.client_cpu_us_per_req", "us"},
             {"trace.overhead_ratio", "ratio"}})
      v.emplace_back(name, unit);
    return v;
  }();
  return names;
}

void add_layer_metrics(Outcome& out, const Tracer& tracer) {
  for (const auto& [name, layer] : tracer.layers()) {
    if (name == "op") continue;
    auto calls = static_cast<double>(layer.calls);
    if (name.rfind("exec.", 0) == 0) {
      out.per_layer[name + "_ms"] = {layer.self_us / calls / 1000.0, "ms", layer.calls};
      continue;
    }
    out.per_layer[name + "_us"] = {layer.self_us / calls, "us", layer.calls};
    out.per_layer[name + "_allocs"] = {layer.self_allocs / calls, "count", 0};
  }
}

std::string out_path(const Args& args, const std::string& name) {
  ::mkdir(args.out_dir.c_str(), 0755);
  return args.out_dir + "/" + name;
}

void write_out(const Args& args, const std::string& name, const std::string& text) {
  std::ofstream f(out_path(args, name));
  f << text;
}

}  // namespace perfbench

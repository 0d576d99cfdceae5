// hypart perfbench driver binary.
//
//   hypart_perfbench --workload plan-symbolic|serve-mix|exec-dense
//                    --seed N --seconds S --trace 0|1 [--commit SHA]
//   hypart_perfbench pin-digests        (prints pinned_digests.inc)
//
// Prints every metric by name with its unit and sample count, a provenance
// line, and as its last line one JSON object
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 when any output check failed, 2 on bad usage or an
// unoptimized build, 3 when the run is invalid (not merely slow).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: hypart_perfbench --workload plan-symbolic|serve-mix|exec-dense --seed N "
               "--seconds S --trace 0|1 [--commit SHA]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::strcmp(argv[1], "serve-client") == 0) return serve_client_main(argc, argv);
  if (argc >= 2 && std::strcmp(argv[1], "pin-digests") == 0) return pin_digests_main();

  Args args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::stoull(v);
    else if (k == "--seconds") args.seconds = std::stod(v);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--commit") commit = v;
    else return usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();
  if (!kOptimized) {
    std::fprintf(stderr, "hypart_perfbench: refusing to report timings from an unoptimized build "
                         "(build type %s)\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Outcome out;
  try {
    if (args.workload == "plan-symbolic") out = run_plan_symbolic(args);
    else if (args.workload == "serve-mix") out = run_serve_mix(args);
    else if (args.workload == "exec-dense") out = run_exec_dense(args);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hypart_perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (!out.invalid.empty()) {
    for (const std::string& note : out.notes) std::fprintf(stderr, "# %s\n", note.c_str());
    std::fprintf(stderr, "hypart_perfbench: invalid run: %s\n", out.invalid.c_str());
    return 3;
  }
  if (out.attempted < 1) {
    std::fprintf(stderr, "hypart_perfbench: no operation completed\n");
    return 1;
  }

  std::map<std::string, Metric>* reported = &out.end_to_end;
  if (args.trace) {
    for (const auto& [name, unit] : per_layer_names())
      if (!out.per_layer.count(name)) out.per_layer[name] = {0.0, unit, 0};
    reported = &out.per_layer;
  } else {
    out.end_to_end["peak_rss_mib"] = {peak_rss_mib(), "MiB", 1};
    out.end_to_end["ok_ratio"] = {
        static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
        "ratio", out.attempted};
  }
  out.extra["failed_ratio"] = {static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                               "ratio", out.attempted};

  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const auto* group : {reported, &out.extra})
    for (const auto& [name, m] : *group) {
      if (m.samples > 0)
        std::printf("%-34s %14.6g %-6s (n=%lld)\n", name.c_str(), m.value, m.unit.c_str(),
                    static_cast<long long>(m.samples));
      else
        std::printf("%-34s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  std::printf("provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
              "\"commit\":\"%s\",\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\"}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              number(args.seconds).c_str(), args.trace ? 1 : 0, json_escape(commit).c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              json_escape(__VERSION__).c_str());

  std::string metrics;
  for (const auto& [name, m] : *reported) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

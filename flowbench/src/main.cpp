/// Flow benchmark: times the paper's closure flow and an ECO session from
/// outside the engine's layers. See flowbench/README.md.
///
///   flowbench --workload NAME --seed N --seconds S --trace 0|1
///             [--design-seed D] [--smoke] [--trace-out FILE]
///             [--describe TEXT]
///
/// Prints run facts and the operations that failed, then one JSON line:
/// {"correct", "attempted", "failed", "values"}, with every metric the
/// workload measured by name. flowbench/run.py picks the end-to-end
/// (--trace 0) or per-layer (--trace 1) metrics from it, with the units
/// BENCHMARK.json gives them.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace flowbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload "
               "table5_d1_d10|closure_50k|eco_session_50k --seed N "
               "--seconds S --trace 0|1 [--design-seed D] [--smoke] "
               "[--trace-out FILE] [--describe TEXT]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage(flag);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string describe = "unknown";
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = parse_u64(value(), "bad --seed");
    } else if (arg == "--design-seed") {
      opt.design_seed = parse_u64(value(), "bad --design-seed");
      if (opt.design_seed == 0) usage("--design-seed starts at 1");
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(value(), "bad --seconds"));
      have_seconds = true;
    } else if (arg == "--trace") {
      opt.trace = parse_u64(value(), "bad --trace") != 0;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--describe") {
      describe = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seconds) opt.seconds = opt.smoke ? 0.0 : 20.0;

  WorkloadResult (*run)(const Options&, Tracer&) = nullptr;
  if (opt.workload == "table5_d1_d10") run = run_table5;
  if (opt.workload == "closure_50k") run = run_closure_50k;
  if (opt.workload == "eco_session_50k") run = run_eco_session;
  if (run == nullptr) usage("unknown workload");

  mgba::set_log_level(mgba::LogLevel::Warn);
  mgba::set_num_threads(kThreads);
  Tracer tracer(opt.trace);
  WorkloadResult result = run(opt, tracer);

  result.set("peak_rss_mb", peak_rss_mib());
  add_self_times(tracer, result);
  result.set("trace.spans", static_cast<double>(tracer.num_events()));

  std::printf("workload=%s seed=%llu design_seed=%llu smoke=%d trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(opt.design_seed),
              opt.smoke ? 1 : 0, opt.trace ? 1 : 0);
  std::printf("threads=%zu nproc=%u build=%s describe=%s\n",
              mgba::num_threads(), std::thread::hardware_concurrency(),
              FLOWBENCH_BUILD_TYPE, describe.c_str());
  for (const std::string& line : result.log) std::printf("%s\n", line.c_str());
  std::printf("operations: attempted=%zu failed=%zu\n", result.attempted,
              result.failed);
  if (opt.trace && !opt.trace_out.empty()) {
    if (!tracer.write_chrome_trace(opt.trace_out)) {
      std::fprintf(stderr, "flowbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans in %s\n", tracer.num_events(),
                opt.trace_out.c_str());
  }

  std::string exact;
  std::string values;
  for (const auto& [name, value] : result.values) {
    if (result.exact.count(name) != 0) exact += " " + name;
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": %.17g",
                  values.empty() ? "" : ", ", name.c_str(), value);
    values += entry;
  }
  std::printf("exact-repeat counters:%s\n",
              exact.empty() ? " none" : exact.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"values\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, values.c_str());
  // A smoke run is a test: it fails when a check fails.
  return opt.smoke && !result.correct ? 1 : 0;
}

#pragma once

/// \file harness.hpp
/// Measurement scaffolding of the flow benchmark: spans around every call
/// the benchmark makes into a layer of the engine, sample statistics, the
/// metric list a workload reports, and host facts (peak RSS).
///
/// Spans are always timed (the workloads need the durations for their
/// metrics); only a traced run keeps them as events, writes them as Chrome
/// trace-event JSON and derives per-layer self time from them.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/stopwatch.hpp"

namespace flowbench {

/// One layer of the engine, named as its module directory in src/, plus
/// "bench" for the benchmark's own work (input relabeling, checks, loops).
enum class Layer { Netlist, Aocv, Sta, Pba, Mgba, Opt, Bench, kCount };

const char* layer_name(Layer layer);

class Tracer {
 public:
  struct Event {
    std::string name;
    Layer layer = Layer::Bench;
    double start_us = 0.0;
    double dur_us = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Microseconds since the tracer was created.
  [[nodiscard]] double now_us() const { return epoch_.seconds() * 1e6; }

  /// Opens a span; returns its event index (-1 when disabled).
  int open(Layer layer, const char* name);
  void close(int index);
  /// Records an already-measured span inside the innermost open one.
  void add(Layer layer, const char* name, double start_us, double dur_us);

  [[nodiscard]] std::size_t num_events() const { return events_.size(); }
  /// Sum over spans of the layer of (duration - children's durations), ms.
  [[nodiscard]] double self_ms(Layer layer) const;
  /// Writes {"traceEvents": [...]} (complete "X" events, one thread).
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  mgba::Stopwatch epoch_;
  std::vector<Event> events_;
  std::vector<int> open_;
};

/// RAII span: times the enclosed call and, when tracing, records it.
class Span {
 public:
  Span(Tracer& tracer, Layer layer, const char* name)
      : tracer_(tracer), index_(tracer.open(layer, name)) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double stop() {
    if (!stopped_) {
      ms_ = watch_.millis();
      tracer_.close(index_);
      stopped_ = true;
    }
    return ms_;
  }

 private:
  Tracer& tracer_;
  int index_;
  mgba::Stopwatch watch_;
  bool stopped_ = false;
  double ms_ = 0.0;
};

/// Linear-interpolated quantile (q in [0, 1]) of \p values; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// What a workload hands back to main: operation accounting, metric
/// values by name (run.py takes their units and order from BENCHMARK.json),
/// and log lines.
struct WorkloadResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// False once an operation failed that is not a known fault.
  bool correct = true;
  std::map<std::string, double> values;
  /// Counts that must read the same on every run of one seed (marked in
  /// the run log; timings never are).
  std::set<std::string> exact;
  std::vector<std::string> log;

  /// Counts one operation; a false \p ok is a failure, logged with \p what.
  /// A \p known_fault operation fails because of a fault in the program on
  /// inputs that are the same in every run: its failure is counted but
  /// leaves `correct` true.
  void count(bool ok, const std::string& what, bool known_fault = false);
  void set(const std::string& name, double value, bool is_exact = false) {
    values[name] = value;
    if (is_exact) exact.insert(name);
  }
};

/// Peak resident set of this process in MiB.
double peak_rss_mib();

}  // namespace flowbench

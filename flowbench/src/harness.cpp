#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace flowbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Netlist: return "netlist";
    case Layer::Aocv: return "aocv";
    case Layer::Sta: return "sta";
    case Layer::Pba: return "pba";
    case Layer::Mgba: return "mgba";
    case Layer::Opt: return "opt";
    case Layer::Bench: return "bench";
    case Layer::kCount: break;
  }
  return "?";
}

int Tracer::open(Layer layer, const char* name) {
  if (!enabled_) return -1;
  Event event;
  event.name = name;
  event.layer = layer;
  event.start_us = now_us();
  event.parent = open_.empty() ? -1 : open_.back();
  events_.push_back(std::move(event));
  const int index = static_cast<int>(events_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  events_[static_cast<std::size_t>(index)].dur_us =
      now_us() - events_[static_cast<std::size_t>(index)].start_us;
  // Spans are RAII-scoped, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add(Layer layer, const char* name, double start_us,
                 double dur_us) {
  if (!enabled_) return;
  events_.push_back({name, layer, start_us, dur_us,
                     open_.empty() ? -1 : open_.back()});
}

double Tracer::self_ms(Layer layer) const {
  std::vector<double> child_us(events_.size(), 0.0);
  for (const Event& e : events_) {
    if (e.parent >= 0) child_us[static_cast<std::size_t>(e.parent)] += e.dur_us;
  }
  double total_us = 0.0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].layer == layer) total_us += events_[i].dur_us - child_us[i];
  }
  return total_us / 1e3;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1}%s\n",
                 e.name.c_str(), layer_name(e.layer), e.start_us, e.dur_us,
                 i + 1 < events_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void WorkloadResult::count(bool ok, const std::string& what,
                           bool known_fault) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (!known_fault) correct = false;
    log.push_back((known_fault ? "FAILED (known fault): " : "FAILED: ") +
                  what);
  }
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace flowbench

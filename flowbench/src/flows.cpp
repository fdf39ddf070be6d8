#include "flows.hpp"

#include <algorithm>
#include <utility>

#include "aocv/aocv_model.hpp"
#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "util/float_bits.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace flowbench {

using namespace mgba;

namespace {

constexpr std::size_t kRelabelBlock = 256;

std::vector<std::size_t> block_shuffled_order(std::size_t n, Rng& rng) {
  std::vector<std::size_t> blocks((n + kRelabelBlock - 1) / kRelabelBlock);
  for (std::size_t b = 0; b < blocks.size(); ++b) blocks[b] = b;
  rng.shuffle(blocks);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (const std::size_t b : blocks) {
    for (std::size_t i = b * kRelabelBlock;
         i < std::min(n, (b + 1) * kRelabelBlock); ++i) {
      order.push_back(i);
    }
  }
  return order;
}

/// Times the closure's trial transforms from its TransformListener
/// callbacks. A trial opens at an upsize or a buffer insertion and closes
/// at the next callback (its own rollback, or the next trial when it was
/// kept) or at the end of the run. The first downsize that is not a
/// rollback starts area recovery, whose batched resizes are not trials.
class TrialClock final : public TransformListener {
 public:
  TrialClock(const Library& library, Tracer& tracer, FlowRecord& record)
      : library_(library), tracer_(tracer), record_(record) {}

  void on_resize(InstanceId inst, std::size_t old_cell,
                 std::size_t new_cell) override {
    if (recovery_) return;
    const double now = tracer_.now_us();
    if (open_ == Kind::Resize && inst == inst_ && new_cell == trial_cell_) {
      close(now);  // rejected upsize rolled back
      return;
    }
    close(now);
    if (library_.cell(new_cell).area_um2 <= library_.cell(old_cell).area_um2) {
      recovery_ = true;
      return;
    }
    open(Kind::Resize, now);
    inst_ = inst;
    trial_cell_ = old_cell;
  }
  void on_buffer_inserted(InstanceId, NetId, const Terminal&, std::size_t,
                          Point) override {
    const double now = tracer_.now_us();
    close(now);
    open(Kind::Buffer, now);
  }
  void on_buffer_removed(InstanceId, NetId) override {
    close(tracer_.now_us());
  }
  void finish() { close(tracer_.now_us()); }

 private:
  enum class Kind { None, Resize, Buffer };

  void open(Kind kind, double now) {
    open_ = kind;
    start_us_ = now;
  }
  void close(double now) {
    if (open_ == Kind::None) return;
    const double dur = now - start_us_;
    const bool resize = open_ == Kind::Resize;
    (resize ? record_.resize_trial_ms : record_.buffer_trial_ms)
        .push_back(dur / 1e3);
    tracer_.add(Layer::Opt, resize ? "opt.resize_trial" : "opt.buffer_trial",
                start_us_, dur);
    open_ = Kind::None;
  }

  const Library& library_;
  Tracer& tracer_;
  FlowRecord& record_;
  Kind open_ = Kind::None;
  double start_us_ = 0.0;
  InstanceId inst_ = 0;
  std::size_t trial_cell_ = 0;
  bool recovery_ = false;
};

Timer::UpdateStats stats_delta(const Timer::UpdateStats& after,
                               const Timer::UpdateStats& before) {
  Timer::UpdateStats d;
  d.full_updates = after.full_updates - before.full_updates;
  d.incremental_updates =
      after.incremental_updates - before.incremental_updates;
  d.forward_nodes = after.forward_nodes - before.forward_nodes;
  d.backward_nodes = after.backward_nodes - before.backward_nodes;
  d.delay_cache_hits = after.delay_cache_hits - before.delay_cache_hits;
  d.delay_cache_misses = after.delay_cache_misses - before.delay_cache_misses;
  return d;
}

}  // namespace

Design relabel(const Design& source, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  const std::vector<std::size_t> inst_order =
      block_shuffled_order(source.num_instances(), rng);
  const std::vector<std::size_t> net_order =
      block_shuffled_order(source.num_nets(), rng);

  Design out(source.library(), source.name());
  out.reserve(source.num_instances(), source.num_nets(), source.num_ports());
  for (std::size_t p = 0; p < source.num_ports(); ++p) {
    const Port& port = source.port(static_cast<PortId>(p));
    out.add_port(port.name, port.direction, port.location);
  }
  std::vector<InstanceId> inst_id(source.num_instances());
  for (const std::size_t i : inst_order) {
    const Instance& inst = source.instance(static_cast<InstanceId>(i));
    inst_id[i] = out.add_instance(inst.name, inst.cell, inst.location);
  }
  std::vector<NetId> net_id(source.num_nets());
  for (const std::size_t n : net_order) {
    net_id[n] = out.add_net(source.net(static_cast<NetId>(n)).name);
  }
  // Driver first, then sinks in their original order, so every net's sink
  // list (and with it the wire model's summation order) is unchanged.
  const auto connect = [&](const Terminal& t, NetId net) {
    if (t.kind == Terminal::Kind::Port) {
      out.connect_port(t.id, net);
    } else {
      out.connect_pin(inst_id[t.id], t.pin, net);
    }
  };
  for (const std::size_t n : net_order) {
    const Net& net = source.net(static_cast<NetId>(n));
    if (net.driver.has_value()) connect(*net.driver, net_id[n]);
    for (const Terminal& sink : net.sinks) connect(sink, net_id[n]);
  }
  return out;
}

std::unique_ptr<Timer> build_timer(const Design& design,
                                   const TimingConstraints& constraints,
                                   const DerateTable& table, Tracer& tracer,
                                   SetupTimes* times) {
  SetupTimes local;
  SetupTimes& t = times != nullptr ? *times : local;
  std::unique_ptr<Timer> timer;
  {
    Span span(tracer, Layer::Sta, "sta.build");
    timer = std::make_unique<Timer>(design, constraints);
    t.build_ms += span.stop();
  }
  {
    Span span(tracer, Layer::Aocv, "aocv.gba_derates");
    std::vector<DeratePair> derates = compute_gba_derates(timer->graph(), table);
    t.derates_ms += span.stop();
    timer->set_instance_derates(std::move(derates));
  }
  {
    Span span(tracer, Layer::Sta, "sta.update");
    timer->update_timing();
    t.update_ms += span.stop();
  }
  return timer;
}

PreparedDesign prepare_design(const Library& library, const DerateTable& table,
                              const GeneratorOptions& options,
                              double utilization, std::uint64_t run_seed,
                              Tracer& tracer, SetupTimes& times) {
  GeneratedDesign generated = [&] {
    Span span(tracer, Layer::Netlist, "netlist.generate");
    GeneratedDesign g = generate_design(library, options);
    times.generate_ms += span.stop();
    return g;
  }();
  GeneratedDesign relabeled{[&] {
                              Span span(tracer, Layer::Bench, "bench.relabel");
                              return relabel(generated.design, run_seed);
                            }(),
                            generated.clock_port, generated.input_ports,
                            generated.output_ports};

  TimingConstraints constraints;
  constraints.clock_port = relabeled.clock_port;
  constraints.clock_period_ps = 1e9;
  {
    const std::unique_ptr<Timer> probe =
        build_timer(relabeled.design, constraints, table, tracer, &times);
    Span span(tracer, Layer::Pba, "pba.clock_period");
    constraints.clock_period_ps =
        choose_clock_period(*probe, table, utilization);
    times.clock_period_ms += span.stop();
  }
  return PreparedDesign{options.name, std::move(relabeled), constraints};
}

bool cold_qor_matches(const QorMetrics& reported,
                      const std::vector<double>& weights, const Design& design,
                      const TimingConstraints& constraints,
                      const DerateTable& table, Tracer& tracer,
                      std::string& why) {
  Span span(tracer, Layer::Bench, "check.cold_qor");
  Tracer quiet(false);
  const std::unique_ptr<Timer> cold =
      build_timer(design, constraints, table, quiet);
  if (!weights.empty()) {
    cold->set_instance_weights(weights);
    cold->update_timing();
  }
  const QorMetrics q = measure_qor(*cold);
  if (float_bits(q.wns_ps) != float_bits(reported.wns_ps) ||
      float_bits(q.tns_ps) != float_bits(reported.tns_ps) ||
      q.violations != reported.violations) {
    why = str_format("cold timer WNS/TNS/viol %.17g/%.17g/%zu vs flow "
                     "%.17g/%.17g/%zu",
                     q.wns_ps, q.tns_ps, q.violations, reported.wns_ps,
                     reported.tns_ps, reported.violations);
    return false;
  }
  return true;
}

bool cell_sums_match(const Design& design, const QorMetrics& qor,
                     std::string& why) {
  double area = 0.0;
  double leakage = 0.0;
  std::size_t buffers = 0;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (design.is_disconnected(id)) continue;
    const LibCell& cell = design.cell_of(id);
    area += cell.area_um2;
    leakage += cell.leakage_nw;
    if (cell.kind == CellKind::Buffer) ++buffers;
  }
  if (float_bits(area) != float_bits(qor.area_um2) ||
      float_bits(leakage) != float_bits(qor.leakage_nw) ||
      buffers != qor.buffer_count) {
    why = str_format("cell sums area/leakage/buffers %.17g/%.17g/%zu vs "
                     "reported %.17g/%.17g/%zu",
                     area, leakage, buffers, qor.area_um2, qor.leakage_nw,
                     qor.buffer_count);
    return false;
  }
  return true;
}

bool gba_bounds_pba(const Timer& timer, const DerateTable& table,
                    std::size_t k, Tracer& tracer, std::string& why) {
  Span span(tracer, Layer::Bench, "check.gba_bounds_pba");
  const auto view = timer.snapshot();
  const PathEnumerator enumerator(view, k);
  const PathEvaluator evaluator(view, table);
  std::size_t checked = 0;
  for (const TimingPath& path : enumerator.all_paths()) {
    const PathTiming pt = evaluator.evaluate(path);
    ++checked;
    if (pt.gba_slack_ps > pt.pba_slack_ps + 1e-6) {
      why = str_format("path to node %u: GBA slack %.6f > PBA slack %.6f",
                       path.endpoint(), pt.gba_slack_ps, pt.pba_slack_ps);
      return false;
    }
  }
  if (checked == 0) {
    why = "no path to check";
    return false;
  }
  return true;
}

QueryTimes signoff_query(const Timer& timer, PathEngine& engine,
                         const DerateTable& table, Tracer& tracer,
                         std::vector<TimingPath>* paths) {
  QueryTimes q;
  Span total(tracer, Layer::Bench, "query");
  std::vector<TimingPath> worst;
  {
    Span span(tracer, Layer::Pba, "pba.worst_paths");
    worst = engine.worst_paths(kQueryPaths);
    q.worst_paths_ms = span.stop();
  }
  {
    Span span(tracer, Layer::Pba, "pba.eval");
    const PathEvaluator evaluator(engine.view(), table);
    for (const TimingPath& path : worst) {
      const PathTiming pt = evaluator.evaluate(path);
      (void)pt;
    }
    q.eval_ms = span.stop();
  }
  {
    Span span(tracer, Layer::Sta, "sta.query");
    const double wns = timer.wns(Mode::Late);
    const double tns = timer.tns(Mode::Late);
    const std::size_t violations = timer.num_violations(Mode::Late);
    (void)wns;
    (void)tns;
    (void)violations;
    q.sta_us = span.stop() * 1e3;
  }
  q.total_ms = total.stop();
  if (paths != nullptr) *paths = std::move(worst);
  return q;
}

double query_p50(const std::vector<QueryTimes>& queries,
                 double QueryTimes::*field) {
  std::vector<double> values;
  values.reserve(queries.size());
  for (const QueryTimes& q : queries) values.push_back(q.*field);
  return median(std::move(values));
}

FlowRecord run_closure(const PreparedDesign& prepared,
                       const DerateTable& table, const FlowSpec& spec,
                       Tracer& tracer, WorkloadResult& result) {
  FlowRecord record;
  const std::string label =
      prepared.name + (spec.use_mgba ? " mGBA flow" : " GBA flow");
  // Each flow closes its own copy.
  auto owned_design = std::make_unique<Design>(prepared.generated.design);
  Design& design = *owned_design;
  SetupTimes times;
  std::unique_ptr<Timer> timer =
      build_timer(design, prepared.constraints, table, tracer, &times);
  record.update_ms = times.update_ms;

  QorMetrics golden_before;
  std::string why;
  if (spec.check) {
    Span span(tracer, Layer::Bench, "check.golden_before");
    golden_before = measure_golden_qor(*timer, table);
    span.stop();
    // Each check runs before its message is built from `why`.
    const bool bounded =
        gba_bounds_pba(*timer, table, spec.gba_check_k, tracer, why);
    result.count(bounded, label + ", GBA <= PBA before the fit: " + why);
  }

  OptimizerOptions options;
  options.max_passes = spec.max_passes;
  options.use_mgba = spec.use_mgba;
  options.mgba_refresh_passes = spec.refresh_passes;
  TimingCloser closer(design, *timer, table, options);
  TrialClock clock(design.library(), tracer, record);
  closer.set_transform_listener(&clock);
  const Timer::UpdateStats before = timer->update_stats();
  {
    Span span(tracer, Layer::Opt, "opt.run");
    record.report = closer.run();
    clock.finish();
    record.flow_s = span.stop() / 1e3;
  }
  result.count(true, label);
  record.update_stats = stats_delta(timer->update_stats(), before);
  record.refit_stats = closer.mgba_refit_stats();
  record.arena_mb =
      static_cast<double>(timer->memory_stats().arena_bytes) / (1024.0 * 1024.0);

  QorMetrics golden_after;
  std::vector<double> signoff_s;
  for (std::size_t i = 0; i < spec.signoffs; ++i) {
    Span span(tracer, Layer::Pba, "pba.golden_qor");
    golden_after = measure_golden_qor(*timer, table);
    signoff_s.push_back(span.stop() / 1e3);
    result.count(true, label + " sign-off");
  }
  record.signoff_s = median(signoff_s);

  if (spec.check) {
    const bool cold_matches = cold_qor_matches(
        record.report.final_qor, timer->instance_weights(), design,
        prepared.constraints, table, tracer, why);
    result.count(cold_matches, label + ", cold timer: " + why);
    const bool sums_match = cell_sums_match(design, record.report.final_qor, why);
    result.count(sums_match, label + ", cell sums: " + why);
    result.count(golden_after.tns_ps >= golden_before.tns_ps,
                 label + str_format(", golden TNS %.3f after closure is "
                                    "worse than %.3f before",
                                    golden_after.tns_ps, golden_before.tns_ps));
  }
  if (spec.keep_closed) {
    record.design = std::move(owned_design);
    record.timer = std::move(timer);
  }
  return record;
}

void add_self_times(const Tracer& tracer, WorkloadResult& result) {
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const auto layer = static_cast<Layer>(l);
    result.set(std::string(layer_name(layer)) + ".self_ms",
               tracer.self_ms(layer));
  }
}

}  // namespace flowbench

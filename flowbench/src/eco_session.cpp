#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "aocv/aocv_model.hpp"
#include "liberty/default_library.hpp"
#include "mgba/problem.hpp"
#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "util/float_bits.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace flowbench {

using namespace mgba;

namespace {

constexpr std::size_t kStepsPerRound = 25;
constexpr std::size_t kGatesPerStep = 4;
/// Size and length of the refit drift probe's session (refit_drift_probe).
constexpr std::size_t kProbeInstances = 2000;
constexpr std::size_t kProbeSteps = 25;

/// The fitted design a session edits. Members are declared in dependency
/// order so they are destroyed engine-first.
struct Session {
  std::unique_ptr<PreparedDesign> design;
  std::unique_ptr<Timer> timer;
  std::optional<MgbaRefitSession> refit;
  std::optional<PathEngine> engine;
  MgbaFlowResult fit;
};

/// Draws the step's gates from the cell arcs of the current worst paths:
/// sizable data-path gates, each moved to another cell of its footprint.
std::vector<std::pair<InstanceId, std::size_t>> draw_edits(
    const Design& design, const Timer& timer,
    const std::vector<TimingPath>& worst, Rng& rng) {
  std::vector<InstanceId> candidates;
  for (const TimingPath& path : worst) {
    for (const ArcId a : path.arcs) {
      const TimingArc& arc = timer.graph().arc(a);
      if (arc.kind != TimingArc::Kind::Cell) continue;
      if (timer.graph().node(arc.to).is_clock_network) continue;
      const LibCell& cell = design.cell_of(arc.inst);
      if (cell.kind == CellKind::FlipFlop) continue;
      candidates.push_back(arc.inst);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  rng.shuffle(candidates);

  std::vector<std::pair<InstanceId, std::size_t>> edits;
  for (const InstanceId inst : candidates) {
    if (edits.size() == kGatesPerStep) break;
    const std::vector<std::size_t> family =
        design.library().footprint_family(design.cell_of(inst).footprint);
    if (family.size() < 2) continue;
    std::size_t cell = design.instance(inst).cell;
    while (cell == design.instance(inst).cell) {
      cell = family[rng.uniform_index(family.size())];
    }
    edits.emplace_back(inst, cell);
  }
  return edits;
}

/// Rows of \p problem whose model slack under \p weights exceeds the
/// Eq. (5) bound by more than 1 ps (test_solver_fastpath's measure).
std::size_t optimistic_rows(const MgbaProblem& problem,
                            const std::vector<double>& weights) {
  std::vector<double> x(problem.num_cols(), 0.0);
  for (std::size_t c = 0; c < problem.num_cols(); ++c) {
    const InstanceId inst = problem.column_instance(c);
    x[c] = inst < weights.size() ? weights[inst] : 0.0;
  }
  std::size_t optimistic = 0;
  for (std::size_t i = 0; i < problem.num_rows(); ++i) {
    const double pba = problem.pba_slack()[i];
    if (problem.model_slack(i, x) > pba + 0.02 * std::abs(pba) + 1.0) {
      ++optimistic;
    }
  }
  return optimistic;
}

/// The refit's \p weights against a cold fit on the same netlist, both
/// judged on one fresh k=8 problem: the refit may have no more Eq. (5)
/// optimistic rows than the cold fit, within test_solver_fastpath's
/// tolerance (2 % of the rows, plus one).
bool refit_within_cold_fit(const Design& design,
                           const TimingConstraints& constraints,
                           const DerateTable& table,
                           const MgbaFlowOptions& fit_options,
                           const std::vector<double>& weights,
                           std::string& why) {
  Tracer quiet(false);
  const std::unique_ptr<Timer> plain =
      build_timer(design, constraints, table, quiet);
  const PathEnumerator enumerator(*plain, 8);
  const PathEvaluator evaluator(*plain, table);
  const MgbaProblem fresh(*plain, evaluator, enumerator.all_paths(),
                          fit_options.epsilon);
  const std::size_t warm = optimistic_rows(fresh, weights);
  const MgbaFlowResult cold = run_mgba_flow(*plain, table, fit_options);
  const std::size_t cold_rows = optimistic_rows(fresh, cold.instance_weights);
  const double limit = static_cast<double>(cold_rows) +
                       0.02 * static_cast<double>(fresh.num_rows()) + 1.0;
  why = str_format("%zu optimistic rows after refit, %zu for a cold fit, of "
                   "%zu (limit %.0f)",
                   warm, cold_rows, fresh.num_rows(), limit);
  return static_cast<double>(warm) <= limit;
}

/// One ECO step: the refit's result and the times of its parts, ms.
struct Step {
  MgbaFlowResult refit;
  double update_ms = 0.0;
  double refit_ms = 0.0;
  double sync_ms = 0.0;
};

/// Resizes each edited gate and brings the session up to date: timing,
/// refit, engine.
Step apply_step(Session& s,
                const std::vector<std::pair<InstanceId, std::size_t>>& edits,
                Tracer& tracer) {
  Step step;
  {
    Span span(tracer, Layer::Netlist, "netlist.resize");
    for (const auto& [inst, cell] : edits) {
      s.design->generated.design.resize_instance(inst, cell);
      s.timer->invalidate_instance(inst);
    }
  }
  {
    Span span(tracer, Layer::Sta, "sta.update");
    s.timer->update_timing();
    step.update_ms = span.stop();
  }
  {
    Span span(tracer, Layer::Mgba, "mgba.refit");
    step.refit = s.refit->refit();
    step.refit_ms = span.stop();
  }
  {
    Span span(tracer, Layer::Pba, "pba.sync");
    s.engine->sync();
    step.sync_ms = span.stop();
  }
  return step;
}

/// Builds an empty session \p s on \p gen: design (relabeled with
/// \p run_seed), timer, cold fit and the engine's first sync.
void set_up(Session& s, const Library& library, const DerateTable& table,
            const GeneratorOptions& gen, const MgbaFlowOptions& fit_options,
            std::uint64_t run_seed, Tracer& tracer, SetupTimes& times) {
  s.design = std::make_unique<PreparedDesign>(
      prepare_design(library, table, gen, 1.10, run_seed, tracer, times));
  s.timer = build_timer(s.design->generated.design, s.design->constraints,
                        table, tracer, &times);
  s.refit.emplace(*s.timer, table, fit_options);
  {
    Span fit(tracer, Layer::Mgba, "mgba.fit");
    s.fit = s.refit->fit();
    times.fit_ms = fit.stop();
  }
  s.engine.emplace(*s.timer, kQueryK);
  {
    Span sync(tracer, Layer::Pba, "pba.sync");
    s.engine->sync();
  }
}

/// Refit drift probe: a fresh session on a fixed small design,
/// kProbeSteps steps drawn by a fixed generator, then
/// refit_within_cold_fit. Its inputs are the same in every round of every
/// run, so it passes or fails alike each time; the main session's own
/// comparison depends on which gates the run seed draws.
bool refit_drift_probe(const Library& library, const DerateTable& table,
                       const MgbaFlowOptions& fit_options, std::string& why) {
  Tracer quiet(false);
  Session s;
  SetupTimes times;
  set_up(s, library, table, scaled_design_options(kProbeInstances, 11),
         fit_options, 0, quiet, times);
  Rng rng(0x5eedULL);
  for (std::size_t i = 0; i < kProbeSteps; ++i) {
    const auto edits =
        draw_edits(s.design->generated.design, *s.timer,
                   s.engine->worst_paths(kQueryPaths), rng);
    apply_step(s, edits, quiet);
  }
  return refit_within_cold_fit(s.design->generated.design,
                               s.design->constraints, table, fit_options,
                               s.timer->instance_weights(), why);
}

/// Compares the session's incremental state with cold recomputation; each
/// comparison is one counted operation.
void checkpoint(Session& s, const DerateTable& table, Tracer& tracer,
                WorkloadResult& result, const std::string& at) {
  Span span(tracer, Layer::Bench, "check.checkpoint");
  Tracer quiet(false);
  const Design& design = s.design->generated.design;
  const TimingConstraints& constraints = s.design->constraints;
  const Timer& timer = *s.timer;

  // Endpoint slacks of a cold timer with the session's weights.
  {
    const std::unique_ptr<Timer> cold =
        build_timer(design, constraints, table, quiet);
    cold->set_instance_weights(timer.instance_weights());
    cold->update_timing();
    std::size_t mismatches = 0;
    for (const NodeId e : timer.graph().endpoints()) {
      if (float_bits(cold->slack(e, Mode::Late)) !=
          float_bits(timer.slack(e, Mode::Late))) {
        ++mismatches;
      }
    }
    result.count(mismatches == 0,
                 str_format("%s: %zu endpoint slacks differ from a cold timer",
                            at.c_str(), mismatches));
  }

  // The warm engine's worst paths against a cold enumerator's.
  {
    const auto view = timer.snapshot();
    const PathEnumerator cold(view, kQueryK);
    struct Keyed {
      double slack;
      NodeId endpoint;
      std::size_t rank;
      TimingPath path;
    };
    std::vector<Keyed> all;
    for (const NodeId e : timer.graph().endpoints()) {
      std::vector<TimingPath> paths = cold.paths_to(e);
      const double required = view->required(e, Mode::Late);
      for (std::size_t r = 0; r < paths.size(); ++r) {
        all.push_back({required - paths[r].gba_arrival_ps, e, r,
                       std::move(paths[r])});
      }
    }
    std::sort(all.begin(), all.end(), [](const Keyed& a, const Keyed& b) {
      return std::tie(a.slack, a.endpoint, a.rank) <
             std::tie(b.slack, b.endpoint, b.rank);
    });
    const std::vector<TimingPath> warm = s.engine->worst_paths(kQueryPaths);
    bool same = warm.size() == std::min(kQueryPaths, all.size());
    for (std::size_t i = 0; same && i < warm.size(); ++i) {
      const TimingPath& c = all[i].path;
      same = warm[i].nodes == c.nodes && warm[i].arcs == c.arcs &&
             warm[i].launch_check == c.launch_check &&
             float_bits(warm[i].gba_arrival_ps) ==
                 float_bits(c.gba_arrival_ps);
    }
    result.count(same, at + ": worst_paths differs from a cold enumerator");
  }

  // Plain GBA bounds golden PBA on the state the next refit fits.
  const std::unique_ptr<Timer> plain =
      build_timer(design, constraints, table, quiet);
  std::string why;
  const bool bounded = gba_bounds_pba(*plain, table, 2, quiet, why);
  result.count(bounded, at + ": GBA <= PBA: " + why);
}

}  // namespace

WorkloadResult run_eco_session(const Options& opt, Tracer& tracer) {
  WorkloadResult result;
  const Library library = make_default_library();
  const DerateTable table = default_aocv_table();
  const GeneratorOptions gen = scaled_design_options(
      opt.smoke ? 3000 : 50'000, 12 * opt.design_seed - 1);
  const MgbaFlowOptions fit_options;

  // Set-up, three times: the design, its timer, the cold fit and the
  // engine's first (cold) sync. The last set-up is the one edited.
  Session s;
  std::vector<double> setup_s;
  std::vector<SetupTimes> setup_times;
  for (std::size_t k = 0; k < kSetups; ++k) {
    s.engine.reset();
    s.refit.reset();
    s.timer.reset();
    s.design.reset();
    SetupTimes times;
    Span span(tracer, Layer::Bench, "setup");
    set_up(s, library, table, gen, fit_options, opt.seed, tracer, times);
    setup_s.push_back(span.stop() / 1e3);
    setup_times.push_back(times);
  }
  Timer& timer = *s.timer;
  PathEngine& engine = *s.engine;

  Rng rng(opt.seed * 0xd1b54a32d192ed03ULL + 1);
  // The first step's gates come from the fitted design's worst paths.
  std::vector<TimingPath> worst = engine.worst_paths(kQueryPaths);
  std::vector<double> step_ms, update_ms, refit_ms, sync_ms, round_s,
      round_gba_s, golden_ms;
  std::vector<QueryTimes> queries;

  Timer::UpdateStats stats0, stats1;
  PathEngine::Stats engine0, engine1;
  RefitStats refit0, refit1;
  std::size_t rows_reevaluated = 0, cone_nodes = 0;
  QorMetrics first_round_qor;

  // Every round counts the same operations: its checks, then its steps,
  // queries and sign-off. Each round opens with a checkpoint of the state
  // the fit or the previous round left and with the drift probe; their
  // time is not measured.
  const std::size_t min_rounds = opt.smoke ? 1 : 4;
  const std::size_t steps_per_round = opt.smoke ? 10 : kStepsPerRound;
  const Stopwatch watch;
  double unmeasured_s = 0.0;
  std::size_t round = 0;
  for (; round < min_rounds || watch.seconds() - unmeasured_s < opt.seconds;
       ++round) {
    const Stopwatch checks;
    const std::string at = round == 0
                               ? std::string("after the fit")
                               : str_format("after round %zu", round - 1);
    checkpoint(s, table, tracer, result, at);
    {
      Span span(tracer, Layer::Bench, "check.refit_drift_probe");
      std::string why;
      const bool within = refit_drift_probe(library, table, fit_options, why);
      result.count(within, at + ": refit drift probe: " + why, true);
    }
    unmeasured_s += checks.seconds();
    if (round == 0) {
      stats0 = timer.update_stats();
      engine0 = engine.stats();
      refit0 = s.refit->stats();
    }

    Span round_span(tracer, Layer::Bench, "round");
    double total = 0.0, outside_refit = 0.0;
    for (std::size_t i = 0; i < steps_per_round; ++i) {
      const auto edits =
          draw_edits(s.design->generated.design, timer, worst, rng);
      Span span(tracer, Layer::Bench, "eco.step");
      const Step step = apply_step(s, edits, tracer);
      step_ms.push_back(span.stop());
      update_ms.push_back(step.update_ms);
      refit_ms.push_back(step.refit_ms);
      sync_ms.push_back(step.sync_ms);
      total += step_ms.back();
      outside_refit += step_ms.back() - step.refit_ms;
      result.count(!edits.empty(), "ECO step found no gate to resize");
      result.count(step.refit.mse_after <= step.refit.mse_before,
                   str_format("refit raised MSE from %.6g to %.6g",
                              step.refit.mse_before, step.refit.mse_after));
      if (round == 0) {
        rows_reevaluated += s.refit->stats().rows_reevaluated;
        cone_nodes += s.refit->stats().cone_nodes;
      }

      queries.push_back(signoff_query(timer, engine, table, tracer, &worst));
      result.count(true, "query");
    }
    round_s.push_back(total / 1e3);
    round_gba_s.push_back(outside_refit / 1e3);
    {
      Span span(tracer, Layer::Pba, "pba.golden_qor");
      const QorMetrics golden = measure_golden_qor(timer, table);
      golden_ms.push_back(span.stop());
      if (round == 0) first_round_qor = golden;
    }
    result.count(true, "sign-off");
    if (round == 0) {
      stats1 = timer.update_stats();
      engine1 = engine.stats();
      refit1 = s.refit->stats();
    }
  }
  {
    // Logged only: whether this session's refit is within the tolerance at
    // a given step depends on the gates the run seed drew.
    std::string why;
    const bool within = refit_within_cold_fit(
        s.design->generated.design, s.design->constraints, table, fit_options,
        timer.instance_weights(), why);
    result.log.push_back("at the end, session refit vs cold fit (not "
                         "counted): " + why +
                         (within ? ", within" : ", EXCEEDED"));
  }
  result.log.push_back(str_format("samples: %zu rounds, %zu steps, %zu queries",
                                  round, step_ms.size(), queries.size()));

  std::vector<double> query_ms;
  for (const QueryTimes& q : queries) query_ms.push_back(q.total_ms);
  const auto count = [](std::size_t v) { return static_cast<double>(v); };
  const double steps0 = count(steps_per_round);

  result.set("setup_s", median(setup_s));
  result.set("gba_flow_s", median(round_gba_s));
  result.set("mgba_flow_s", median(round_s));
  result.set("signoff_s", median(golden_ms) / 1e3);
  result.set("area_um2", first_round_qor.area_um2, true);
  result.set("leakage_nw", first_round_qor.leakage_nw, true);
  result.set("buffers", count(first_round_qor.buffer_count), true);
  result.set("eco_p50_ms", quantile(step_ms, 0.5));
  result.set("eco_p90_ms", quantile(step_ms, 0.9));
  result.set("query_p50_ms", quantile(query_ms, 0.5));
  result.set("query_p90_ms", quantile(query_ms, 0.9));

  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setup_times) v.push_back(t.*field);
    return median(v);
  };
  result.set("netlist.generate_ms", setup_median(&SetupTimes::generate_ms));
  result.set("aocv.gba_derates_ms", setup_median(&SetupTimes::derates_ms));
  result.set("sta.build_ms", setup_median(&SetupTimes::build_ms));
  result.set("pba.clock_period_ms",
             setup_median(&SetupTimes::clock_period_ms));
  result.set("mgba.fit_ms", setup_median(&SetupTimes::fit_ms));
  result.set("mgba.solver_iterations", count(s.fit.solver_iterations), true);

  // Counters of the first round, which is the same for every run of a seed.
  const Timer::UpdateStats& a = stats1;
  const Timer::UpdateStats& b = stats0;
  result.set("sta.update_p50_ms", median(update_ms));
  result.set("sta.forward_nodes", count(a.forward_nodes - b.forward_nodes),
             true);
  result.set("sta.backward_nodes", count(a.backward_nodes - b.backward_nodes),
             true);
  result.set("sta.full_updates", count(a.full_updates - b.full_updates), true);
  result.set("sta.incremental_updates",
             count(a.incremental_updates - b.incremental_updates), true);
  const double hits = count(a.delay_cache_hits - b.delay_cache_hits);
  const double misses = count(a.delay_cache_misses - b.delay_cache_misses);
  result.set("sta.delay_cache_hit_rate",
             hits + misses == 0.0 ? 0.0 : hits / (hits + misses), true);
  result.set("sta.query_p50_us", query_p50(queries, &QueryTimes::sta_us));
  result.set("sta.arena_mb",
             count(timer.memory_stats().arena_bytes) / (1024.0 * 1024.0),
             true);
  result.set("pba.sync_p50_ms", median(sync_ms));
  const std::size_t warm_syncs = engine1.warm_syncs - engine0.warm_syncs;
  result.set("pba.nodes_per_sync",
             warm_syncs == 0 ? 0.0
                             : count(engine1.nodes_recomputed -
                                     engine0.nodes_recomputed) /
                                   count(warm_syncs),
             true);
  const std::size_t backtracked =
      engine1.endpoints_backtracked - engine0.endpoints_backtracked;
  const std::size_t pruned =
      engine1.endpoints_pruned - engine0.endpoints_pruned;
  result.set("pba.backtrack_ratio",
             backtracked + pruned == 0
                 ? 0.0
                 : count(backtracked) / count(backtracked + pruned),
             true);
  result.set("pba.worst_paths_p50_ms",
             query_p50(queries, &QueryTimes::worst_paths_ms));
  result.set("pba.eval_p50_ms", query_p50(queries, &QueryTimes::eval_ms));
  result.set("pba.golden_qor_ms", median(golden_ms));
  result.set("mgba.refit_p50_ms", median(refit_ms));
  result.set("mgba.rows_reevaluated", count(rows_reevaluated) / steps0, true);
  result.set("mgba.cone_nodes", count(cone_nodes) / steps0, true);
  result.set("mgba.warm_refits", count(refit1.warm_refits - refit0.warm_refits),
             true);
  result.set("mgba.cold_rebuilds",
             count(refit1.cold_rebuilds - refit0.cold_rebuilds), true);
  result.set("trace.flow_s", median(round_s));
  return result;
}

}  // namespace flowbench

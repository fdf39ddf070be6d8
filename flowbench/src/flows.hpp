#pragma once

/// \file flows.hpp
/// Pieces the three workloads share: set-up of a constrained design, the
/// closure flow with its sign-off, the sign-off query, and the correctness
/// checks that compare the engine's incremental answers with a cold
/// recomputation. Every call into an engine layer sits inside a Span.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aocv/derate_table.hpp"
#include "harness.hpp"
#include "liberty/library.hpp"
#include "netlist/generator.hpp"
#include "opt/optimizer.hpp"
#include "opt/qor.hpp"
#include "pba/path_engine.hpp"
#include "sta/timer.hpp"

namespace flowbench {

struct Options {
  std::string workload;
  /// Run seed: numbers the netlist (see relabel) and draws the ECO edits.
  std::uint64_t seed = 1;
  /// Design seed: 1 gives the D1..D10 designs of EXPERIMENTS.md and the
  /// seed-11 50k design; 2 is held out for claims.
  std::uint64_t design_seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

/// Engine threads every workload runs with.
inline constexpr std::size_t kThreads = 2;
/// Paths per endpoint of the sign-off query's engine.
inline constexpr std::size_t kQueryK = 8;
/// Paths a sign-off query returns and re-times.
inline constexpr std::size_t kQueryPaths = 50;

/// Same circuit, renumbered: instances and nets are re-added in an order
/// that shuffles blocks of 256 consecutive ids (locality within a block is
/// kept, as synthesis output keeps it). Every seed gives the same circuit;
/// only ids, memory layout and tie order move, so the closure work stays
/// nearly the same (ties can change a few transforms).
mgba::Design relabel(const mgba::Design& source, std::uint64_t seed);

/// A generated design with its clock period chosen: the output of set-up.
struct PreparedDesign {
  std::string name;
  mgba::GeneratedDesign generated;
  mgba::TimingConstraints constraints;
};

/// Layer times of one set-up, ms.
struct SetupTimes {
  double generate_ms = 0.0;
  double derates_ms = 0.0;
  double build_ms = 0.0;
  double update_ms = 0.0;
  double clock_period_ms = 0.0;
  double fit_ms = 0.0;
};

/// Generates the design, relabels it with \p run_seed, and picks the clock
/// period at \p utilization with golden PBA (choose_clock_period).
PreparedDesign prepare_design(const mgba::Library& library,
                              const mgba::DerateTable& table,
                              const mgba::GeneratorOptions& options,
                              double utilization, std::uint64_t run_seed,
                              Tracer& tracer, SetupTimes& times);

/// A fresh timer with GBA derates installed and timing up to date.
std::unique_ptr<mgba::Timer> build_timer(const mgba::Design& design,
                                         const mgba::TimingConstraints& c,
                                         const mgba::DerateTable& table,
                                         Tracer& tracer,
                                         SetupTimes* times = nullptr);

// --- correctness checks (outside every timed region) ----------------------

/// A cold timer on the same netlist, with the flow's final \p weights
/// installed, gives bit-identical WNS, TNS and violation count to
/// \p reported.
bool cold_qor_matches(const mgba::QorMetrics& reported,
                      const std::vector<double>& weights,
                      const mgba::Design& design,
                      const mgba::TimingConstraints& constraints,
                      const mgba::DerateTable& table, Tracer& tracer,
                      std::string& why);

/// Area, leakage and buffer count summed from the netlist's library cells
/// equal the reported QoR.
bool cell_sums_match(const mgba::Design& design, const mgba::QorMetrics& qor,
                     std::string& why);

/// With no weights installed, every one of the k worst paths per endpoint
/// has plain-GBA slack <= its golden PBA slack (GBA is pessimistic).
bool gba_bounds_pba(const mgba::Timer& timer, const mgba::DerateTable& table,
                    std::size_t k, Tracer& tracer, std::string& why);

// --- sign-off query --------------------------------------------------------

struct QueryTimes {
  double total_ms = 0.0;
  double worst_paths_ms = 0.0;
  double eval_ms = 0.0;
  double sta_us = 0.0;
};

/// The worst kQueryPaths paths from the warm engine, each re-timed by a
/// PathEvaluator on the engine's view, plus WNS, TNS and violations.
/// \p engine must be synced. Returns the queried paths through \p paths.
QueryTimes signoff_query(const mgba::Timer& timer, mgba::PathEngine& engine,
                         const mgba::DerateTable& table, Tracer& tracer,
                         std::vector<mgba::TimingPath>* paths = nullptr);

/// p50 of one field over a list of query times.
double query_p50(const std::vector<QueryTimes>& queries,
                 double QueryTimes::*field);

// --- closure flow ----------------------------------------------------------

struct FlowSpec {
  bool use_mgba = false;
  std::size_t max_passes = 25;
  std::size_t refresh_passes = 1000;  ///< 1000: fit once per flow
  std::size_t gba_check_k = 4;        ///< paths/endpoint of the GBA check
  std::size_t signoffs = 1;           ///< sign-offs; signoff_s is their median
  bool check = true;                  ///< run the correctness checks
  bool keep_closed = false;           ///< hand the closed design back
};

struct FlowRecord {
  mgba::OptimizerReport report;
  double flow_s = 0.0;
  double signoff_s = 0.0;
  /// Intervals between TransformListener callbacks, by the kind of trial
  /// that opened them (upsize trials and buffer trials; area recovery's
  /// batched resizes are not trials and are left out).
  std::vector<double> resize_trial_ms;
  std::vector<double> buffer_trial_ms;
  std::vector<mgba::RefitStats> refit_stats;
  mgba::Timer::UpdateStats update_stats;
  double update_ms = 0.0;  ///< the flow timer's initial full update
  double arena_mb = 0.0;
  /// The closed design and its timer (spec.keep_closed), for queries.
  std::unique_ptr<mgba::Design> design;
  std::unique_ptr<mgba::Timer> timer;
};

/// One closure of a copy of \p design: fresh timer, TimingCloser::run,
/// golden sign-off, then (spec.check) the checks, each counted as an
/// operation in \p result. The flow and the sign-off are counted as
/// operations too.
FlowRecord run_closure(const PreparedDesign& design,
                       const mgba::DerateTable& table, const FlowSpec& spec,
                       Tracer& tracer, WorkloadResult& result);

/// Self time of each layer in the trace, one "<layer>.self_ms" metric each.
void add_self_times(const Tracer& tracer, WorkloadResult& result);

}  // namespace flowbench

#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads. Each runs set-up kSetups times, then
/// whole rounds of its operations until opt.seconds have passed (and at
/// least its minimum round count), checks its outputs outside the timed
/// regions, and fills every metric it measures.

#include "flows.hpp"
#include "harness.hpp"

namespace flowbench {

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;

/// D1..D10, each closed with GBA and with mGBA (one fit per flow).
WorkloadResult run_table5(const Options& opt, Tracer& tracer);
/// One mGBA closure of a 50k-instance design, refit every 4 passes.
WorkloadResult run_closure_50k(const Options& opt, Tracer& tracer);
/// A closed-loop ECO session on a fitted 50k-instance design.
WorkloadResult run_eco_session(const Options& opt, Tracer& tracer);

}  // namespace flowbench

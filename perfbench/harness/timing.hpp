// Untraced end-to-end timing of one workload: repeated runs of the same
// generated spec through the public workload::run_spec path.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "outcome.hpp"
#include "report.hpp"
#include "workload/spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// load_scenario_spec + validate, timed into *load_s.
sgprs::workload::ScenarioSpec load_spec(const std::string& path,
                                        double* load_s);

/// One timed repetition: load + validate the spec file, then run it in
/// full. A closed-world spec first has its set-up probed a few times
/// with runs cut to their first simulated instant; an open-world run
/// times its own set-up phase.
struct Rep {
  /// Set-up samples: load + validate plus one probe's set-up
  /// (closed-world) or the full run's own set-up phase (open-world).
  std::vector<double> setup_s;
  /// run_spec's set-up share: the fleet runtime's set-up phase timer on
  /// open-world specs, the probes' median on closed-world ones.
  double setup_in_run_s = 0.0;
  double run_phase_s = 0.0;  // full run_spec wall minus that set-up
  Outcome outcome;
};

Rep run_rep(const std::string& spec_path);

/// Median end-to-end metrics over repetitions of one input.
Result end_to_end(const std::vector<Rep>& reps);

}  // namespace perfbench

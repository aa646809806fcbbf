// Simulated outcome of one run and the output checks on it.
//
// Every generated spec has warmup 0, so the collector's measured window
// is the whole horizon and the frame accounting closes exactly:
//   released = on_time + late + dropped + faulted + in_flight
// where `dropped` already includes frames shed by the overload guard and
// `in_flight` is bounded by the streams still live at the horizon.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/spec.hpp"

namespace perfbench {

struct Outcome {
  std::int64_t released = 0;  // runner count, whole horizon
  std::int64_t on_time = 0;
  std::int64_t late = 0;
  std::int64_t dropped = 0;  // frame-buffer drops + overload sheds
  std::int64_t shed = 0;     // the overload-guard share of `dropped`
  std::int64_t faulted = 0;  // in flight when their device crashed
  std::int64_t in_flight = 0;
  std::int64_t streams_admitted = 0;
  std::int64_t streams_rejected = 0;
  std::int64_t stage_migrations = 0;
  double sim_events = 0.0;
  double horizon_s = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t latency_samples = 0;
  /// FNV-1a over every simulated statistic above, as 16 hex digits.
  std::string digest;
  /// The same with each floating-point statistic rounded to the 9
  /// significant digits the simulator's reports print. Runs at different
  /// shard counts promise identical reports, not identical bits: merging
  /// per-device collectors sums latencies in another order.
  std::string report_digest;
  /// Failed output checks; empty when the run is correct.
  std::vector<std::string> problems;

  std::int64_t closed() const { return on_time + late + dropped + faulted; }
  double deadline_met_ratio() const;
  double on_time_fps() const;
  double stream_admit_ratio() const;
};

/// Extracts the outcome of a finished run of `spec` and runs the
/// conservation checks on it.
Outcome summarize(const sgprs::workload::ScenarioSpec& spec,
                  const sgprs::workload::SpecResult& result);

}  // namespace perfbench

// Outside-in layer probes for the traced run. Each one times calls into a
// module's public functions from the benchmark's own code: a closed-world
// rig assembled from the classes run_scenario uses, standalone engine and
// collector replays, and a placer replay of a captured admission stream.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/report.hpp"
#include "trace/trace.hpp"
#include "workload/spec.hpp"

namespace perfbench {

/// sim + gpu + rt split from one device's closed-world rig.
struct RigCosts {
  int streams = 0;  // tasks on the rig's device
  std::int64_t frames = 0;
  std::int64_t kernels = 0;
  std::int64_t release_calls = 0;
  double rig_s = 0.0;            // Runner::run of the full rig
  double release_job_ns = 0.0;   // mean inclusive Scheduler::release_job
  double replay_s = 0.0;         // engine + executor kernel-stream replay
  std::int64_t replay_events = 0;
  double mean_pending = 0.0;     // calendar size seen at kernel starts
  double executor_ns_per_kernel = 0.0;
  double rt_self_ns_per_frame = 0.0;
};

/// Builds one device's closed-world rig for `spec` (the whole task set of
/// a closed-world spec; one device's share of initial streams plus one
/// stream per template on an open-world one), runs it for about `frames`
/// frames with a counting gpu::TraceSink and a timing rt::Scheduler
/// decorator, then replays its captured kernel stream through a bare
/// engine + executor.
RigCosts measure_rig(const sgprs::workload::ScenarioSpec& spec, int frames);

/// Host ns per event of a standalone sim::Engine hold run: `pending`
/// events outstanding, each fired event scheduling one more, `events`
/// fired in total.
double engine_ns_per_event(std::int64_t events, std::int64_t pending);

/// Host ns per frame of Collector::on_release + on_complete over `tasks`
/// tasks, replaying `frames` frames with latencies in [lo_ms, hi_ms].
double collector_ns_per_frame(int tasks, std::int64_t frames, double lo_ms,
                              double hi_ms);

/// Host ms of Collector::merge_from over `devices` per-device collectors
/// sharing `tasks` tasks and `frames` frames, plus the final aggregate;
/// median of 5.
double collector_reduce_ms(int devices, int tasks, std::int64_t frames,
                           double lo_ms, double hi_ms);

/// rt::build_task calls the run makes (initial tasks, then one prototype
/// per template and per downgraded template), replayed and timed.
struct BuildCosts {
  std::int64_t calls = 0;
  double mean_us = 0.0;
};
BuildCosts measure_build_task(const sgprs::workload::ScenarioSpec& spec);

/// Placer replay of a captured open-world run: trace admits through
/// Placer::place_ex (force_place without the admission test), crash and
/// drain evacuations through place_batch, and the audit trail's failover
/// retries of crash orphans through place_ex again. `attempts` and
/// `rejected` count initial and admitted streams; a faithful replay
/// matches the run's streams_admitted + streams_rejected and
/// streams_rejected.
struct PlacerCosts {
  std::int64_t place_calls = 0;
  double place_us = 0.0;
  std::int64_t batches = 0;
  double place_batch_us = 0.0;
  std::int64_t attempts = 0;
  std::int64_t rejected = 0;
};
PlacerCosts replay_placer(const sgprs::workload::ScenarioSpec& spec,
                          const sgprs::trace::Trace& trace,
                          const sgprs::fleet::FleetRunResult& run);

}  // namespace perfbench

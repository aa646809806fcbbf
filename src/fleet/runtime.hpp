// Online fleet runtime: the sim-time control plane for open-world runs.
//
// Layered on the existing engine — cluster of per-device schedulers, the
// placer's analytic admission model, the shared collector — it adds the
// three control loops a live serving fleet needs:
//   * a churn driver executing the scenario's timeline (scripted admits /
//     retires plus seeded Poisson arrival processes) through the dynamic
//     Runner surface (add_task / generation-tagged retire);
//   * an elastic autoscaler growing and shrinking the device fleet under a
//     policy (utilization thresholds or capacity headroom), with warm-up
//     latency on the way up and drain + stream re-placement on the way
//     down;
//   * an overload controller: admission-test rejection at the door, an
//     optional QoS downgrade retry (fps_scale), and per-device load
//     shedding behind the OverloadGuard.
// A "faults" spec section (fleet/faults.hpp, docs/faults.md) adds a
// fourth, impolite loop: scripted and seeded-stochastic device crashes
// that abort in-flight jobs and orphan live streams, a failover engine
// re-placing them with retry-with-backoff, and availability accounting
// (recovery percentiles, unavailability stream-seconds).
// Every run produces windowed time-series samples and an audit trail of
// control decisions (fleet/report.hpp).
//
// Determinism: one control-plane engine, one churn rng consumed in event
// order, stream rng seeds keyed on (seed, task id) — replays and parallel
// experiment fan-outs of the same spec are byte-identical (pinned by
// tests/fleet/fleet_determinism_test.cpp).
//
// Sharding (sim.shards > 1, docs/sharding.md): devices are partitioned
// onto per-shard engines (device_index % shards) that execute in parallel
// between epoch barriers at control-plane instants; per-device collectors
// are reduced canonically at the end of the run. Any shard count produces
// byte-identical reports, series and traces (pinned by
// tests/sim/shard_determinism_test.cpp).
#pragma once

#include "fleet/report.hpp"
#include "workload/spec.hpp"

namespace sgprs::trace {
class TraceRecorder;
}  // namespace sgprs::trace

namespace sgprs::fleet {

/// Runs one open-world spec (validated by the caller; run_spec and the
/// suite runner route here when spec.dynamic()) with its own seeds.
FleetRunResult run_fleet_scenario(const workload::ScenarioSpec& spec);

/// Seed-overriding variant for experiment replications: seeds.sim replaces
/// the sim seed (phases, arrival jitter, churn mixing), seeds.generator
/// the task-generator seed.
///
/// When `capture` is non-null the runtime feeds it the run's admit/retire
/// stream (trace::TraceRecorder, --record-trace). Recording never perturbs
/// the run; replaying the captured trace against the same base spec
/// reproduces the report byte for byte.
///
/// `instruments` (docs/observability.md): `instruments.spans` collects
/// execution spans for --trace-spans, `instruments.profiler` times the
/// runtime's coarse phases for --profile. Both are optional and neither
/// perturbs the run — the report is byte-identical with and without
/// instruments attached.
FleetRunResult run_fleet_scenario(const workload::ScenarioSpec& spec,
                                  const workload::RunSeeds& seeds,
                                  trace::TraceRecorder* capture = nullptr,
                                  const obs::Instruments& instruments = {});

}  // namespace sgprs::fleet

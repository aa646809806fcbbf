// bench_shard_scaling — events/s of one dynamic fleet run as the shard
// count grows (docs/sharding.md).
//
// The workload is device-dominated on purpose: 8 devices each serving a
// steady stream set, an inert fleet policy, and a coarse series window, so
// nearly all events execute inside the parallel shard phases and the
// epoch-barrier overhead (a handful of control instants) is visible but
// not dominant. Every shard count is first checked byte-identical against
// the serial run — a scaling number for a run that diverged would be
// meaningless.
//
// Writes BENCH_shard_scaling.json (schema v2, docs/benchmarks.md).
// Trajectory data, not a gate: absolute speedup depends on the host's
// core count (1 on a serial container, ~4 on CI runners).
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "figure_common.hpp"
#include "fleet/report.hpp"
#include "fleet/runtime.hpp"
#include "workload/spec.hpp"

namespace {

using namespace sgprs;

workload::ScenarioSpec scaling_spec() {
  workload::ScenarioSpec spec;
  spec.name = "bench_shard_scaling";
  spec.base.num_contexts = 2;
  spec.base.oversubscription = 1.5;
  spec.base.duration = common::SimTime::from_sec(2.0);
  spec.base.warmup = common::SimTime::from_sec(0.2);
  spec.base.seed = 42;
  spec.base.num_devices = 8;
  // Round-robin keeps the per-shard event load balanced by construction
  // (devices map onto shards round-robin too).
  spec.base.placement = cluster::PlacementPolicy::kRoundRobin;
  spec.base.admission_margin = 0.0;  // fixed set, no admission control
  spec.fleet_mode = true;

  workload::TaskEntrySpec cams;
  cams.name = "cam";
  cams.count = 48;  // 6 streams per device
  spec.tasks.push_back(cams);

  // Dynamic-by-policy: routes through the fleet runtime (the sharded
  // path) without autoscaler or churn barriers; the only control-plane
  // instants are the series samples.
  fleet::FleetPolicySpec policy;
  policy.series_window_ms = 500.0;
  spec.fleet_policy = std::move(policy);
  return spec;
}

std::string report_bytes(const fleet::FleetRunResult& r) {
  std::ostringstream os;
  fleet::write_fleet_run_json(r, os);
  return os.str();
}

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  bench::BenchReport report("shard_scaling");
  std::cout << "shard scaling bench (8 devices, 48 streams)\n";

  double serial_eps = 0.0;
  std::string serial_bytes;
  for (int shards : {1, 2, 4, 8}) {
    auto spec = scaling_spec();
    spec.base.shards = shards;
    workload::validate(spec);

    // Warm-up run (page in code, grow slabs and pools) + measured run.
    fleet::FleetRunResult warm = fleet::run_fleet_scenario(spec);
    (void)warm;
    fleet::FleetRunResult result;
    const double wall =
        wall_seconds([&] { result = fleet::run_fleet_scenario(spec); });

    const std::string bytes = report_bytes(result);
    if (shards == 1) {
      serial_bytes = bytes;
    } else if (bytes != serial_bytes) {
      std::cerr << "ERROR: shards=" << shards
                << " report diverged from the serial run\n";
      return 1;
    }

    const double eps = result.sim_events / wall;
    if (shards == 1) serial_eps = eps;
    const double speedup = eps / serial_eps;
    std::cout << "  shards=" << shards << ": " << result.sim_events
              << " events in " << wall << " s (" << eps / 1e6
              << " M events/s, " << speedup << "x)\n";

    const std::string tag = "shards_" + std::to_string(shards);
    report.add(tag + "_wall_s", wall, "s");
    report.add(tag + "_events_per_s", eps, "events/s");
    report.add(tag + "_speedup", speedup, "ratio");
  }

  report.write();
  return 0;
}

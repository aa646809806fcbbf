// Declarative JSON scenario specs (docs/scenario-format.md is the full
// schema reference).
//
// A spec describes everything run_scenario / run_cluster_scenario need —
// scheduler, pool shape, sim window, a *heterogeneous* task list (explicit
// entries or a UUniFast generator) and an optional fleet section — so a
// workload lives in a versioned .json file instead of a recompiled binary.
// Lowering guarantee: a "simple" spec (one periodic task entry, default
// phases) lowers onto the identical-task fast path of ScenarioConfig and is
// bit-identical to the hard-coded benches (pinned by
// tests/workload/spec_test.cpp against scenarios/paper_scenario1.json).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "fleet/faults.hpp"
#include "fleet/policy.hpp"
#include "fleet/report.hpp"
#include "fleet/timeline.hpp"
#include "obs/instruments.hpp"
#include "workload/scenario.hpp"
#include "workload/spec_error.hpp"

namespace sgprs::trace {
class TraceRecorder;
}  // namespace sgprs::trace

namespace sgprs::workload {

/// Most streams one spec may declare: the sum of `tasks[].count`, or
/// `generator.count`. validate() rejects more before anything is built;
/// the cap sits 100x above the largest curated scenario (10,000 streams).
inline constexpr long long kMaxSpecStreams = 1'000'000;

/// One task entry: `count` replicas of a (network, rate, stages, arrival)
/// combination. Times are milliseconds in the JSON schema because frame
/// budgets are naturally quoted that way.
struct TaskEntrySpec {
  std::string name = "task";
  int count = 1;
  std::string network = "resnet18";
  double fps = 30.0;
  int num_stages = 6;
  /// Relative deadline; 0 = implicit (deadline = period).
  double deadline_ms = 0.0;
  /// First-release offset; < 0 = seeded random phase in [0, period).
  double phase_ms = -1.0;
  rt::PriorityPolicy priority_policy = rt::PriorityPolicy::kLastStageHigh;
  rt::ArrivalModel arrival = rt::ArrivalModel::kPeriodic;
  /// Sporadic only. 0 = derive min from fps (1000/fps) and max as
  /// 1.5 * min. Admission treats 1/min_separation as the worst-case rate.
  double min_separation_ms = 0.0;
  double max_separation_ms = 0.0;
  /// Overload shed tier (fleet runs only): 0 = protected from
  /// priority-aware load shedding. Initial task entries default to 0;
  /// timeline templates default to 1.
  int tier = 0;
  /// Placement footprint overrides. < 0 (default) keeps the footprint the
  /// profiler derives from the network; >= 0 pins memory (MiB) and/or
  /// time-averaged resident warps explicitly.
  double mem_mb = -1.0;
  long long warps = -1;
};

/// UUniFast task-set generator (workload/taskset.hpp), for capacity
/// studies: `count` tasks whose utilizations sum to `total_utilization`.
struct GeneratorSpec {
  int count = 8;
  double total_utilization = 2.0;
  int num_stages = 6;
  double min_fps = 5.0;
  double max_fps = 120.0;
  /// Network names drawn uniformly; empty = the taskset default mix.
  std::vector<std::string> networks;
  std::uint64_t seed = 7;
};

struct ScenarioSpec {
  std::string name;         // defaults to the file stem
  std::string description;  // free text, echoed in reports
  /// Scheduler/pool/device/fleet/sim knobs, lowered 1:1 from the JSON.
  /// Task fields inside (num_tasks, fps, ...) are filled at run time.
  ScenarioConfig base;
  /// Explicit task entries, in file order. Mutually exclusive with
  /// `generator`.
  std::vector<TaskEntrySpec> tasks;
  std::optional<GeneratorSpec> generator;
  /// True when the spec has a "fleet" section: the run goes through the
  /// cluster path (placement + admission control) even with one device.
  bool fleet_mode = false;
  /// Open-world sections (docs/online-fleet.md): a churn timeline and/or a
  /// fleet control policy. Either routes the run through the fleet runtime
  /// (src/fleet/); specs without them keep the closed-world paths
  /// bit-identical.
  std::optional<fleet::TimelineSpec> timeline;
  std::optional<fleet::FleetPolicySpec> fleet_policy;
  /// Fault injection (docs/faults.md): scripted crashes, a stochastic
  /// MTBF/MTTR process and the failover policy. Also routes the run
  /// through the fleet runtime.
  std::optional<fleet::FaultSpec> faults;

  bool dynamic() const {
    return timeline.has_value() || fleet_policy.has_value() ||
           faults.has_value();
  }
};

/// Parses a spec from a JSON document. Unknown keys are errors (typos must
/// not silently become defaults). `default_name` names the spec when the
/// document has no "name". A top-level "experiment" section is rejected with
/// a pointed error unless `skip_experiment_section` — the experiment loader
/// (workload/experiment.hpp) owns that key and parses the rest of the
/// document through here. Throws SpecError / common::JsonError.
ScenarioSpec parse_scenario_spec(const common::JsonValue& root,
                                 const std::string& default_name,
                                 bool skip_experiment_section = false);

/// Reads, parses and validates a .json spec file. A trace-driven timeline
/// (`"timeline": {"trace": "..."}`) has its trace file loaded here too,
/// resolved relative to the spec's directory. Passing a trace *data* file
/// (one written by --record-trace / trace_scale) is rejected with a
/// pointed error — those are replayed with --trace, not --scenario.
ScenarioSpec load_scenario_spec(const std::string& path);

/// Loads and attaches the trace a trace-driven timeline names:
/// timeline->trace_path is resolved against `spec_path`'s directory (used
/// verbatim when absolute or `spec_path` is empty), then trace::load_trace
/// validates it. No-op when the spec has no trace path or the trace is
/// already attached (specs built in memory set timeline->trace directly).
void resolve_spec_trace(ScenarioSpec& spec, const std::string& spec_path);

/// Semantic validation beyond parsing: entry counts (and kMaxSpecStreams),
/// the sim horizon, rates, separations, generator bounds, fleet shape.
/// Throws SpecError with the field path.
void validate(const ScenarioSpec& spec);

/// True when the spec lowers exactly onto ScenarioConfig's identical-task
/// fast path (one periodic entry, jittered phases, implicit deadline): such
/// specs run bit-identically to the hard-coded path.
bool is_simple_spec(const ScenarioSpec& spec);

/// The ScenarioConfig a run of this spec uses: base plus the task fields
/// (num_tasks = total replica count; fps/stages/network from the single
/// entry when the spec is simple).
ScenarioConfig lower(const ScenarioSpec& spec);

/// Task-set builder implementing the general (heterogeneous / sporadic /
/// generated) path; exposed for tests and custom harnesses. The returned
/// builder owns a copy of the spec, so it outlives the argument.
TaskSetBuilder task_builder_for(const ScenarioSpec& spec);

/// Same, with the generator seed overridden (replication runs and the
/// fleet runtime, which derives seeds without cloning the spec).
TaskSetBuilder task_builder_for(const ScenarioSpec& spec,
                                std::uint64_t generator_seed);

/// The task entry that produced initial task index `i` (entry replicas
/// expand in file order with sequential ids), or nullptr for
/// generator-built tasks. The fleet runtime reads the entry's tier and
/// name (churn retire targets match entry names exactly).
const TaskEntrySpec* task_entry_for(const ScenarioSpec& spec,
                                    int task_index);

/// Shed tier of initial task index `i` (0 for generator tasks).
int task_tier_for(const ScenarioSpec& spec, int task_index);

/// Result of running one spec: exactly one of the three run paths was
/// taken (single device, closed-world fleet, or the open-world fleet
/// runtime).
struct SpecResult {
  std::string name;
  bool fleet = false;    // closed-world cluster path
  bool dynamic = false;  // open-world fleet runtime (wins over `fleet`)
  ScenarioResult single;           // valid when !fleet && !dynamic
  ClusterScenarioResult cluster;   // valid when fleet
  fleet::FleetRunResult dyn;       // valid when dynamic

  const metrics::Snapshot& aggregate() const {
    if (dynamic) return dyn.fleet.fleet;
    return fleet ? cluster.fleet.fleet : single.aggregate;
  }
  double fps() const { return aggregate().fps; }
  double dmr() const { return aggregate().dmr; }
  std::int64_t releases() const {
    if (dynamic) return dyn.releases;
    return fleet ? cluster.releases : single.releases;
  }
  std::int64_t migrations() const {
    if (dynamic) return dyn.stage_migrations;
    return fleet ? cluster.stage_migrations : single.stage_migrations;
  }
};

/// Per-run seed overrides, replacing spec.base.seed and (when a generator
/// section exists) spec.generator->seed without touching the spec itself.
struct RunSeeds {
  std::uint64_t sim = 0;
  std::uint64_t generator = 0;
};

/// Validates and runs one spec end to end with its own seeds.
///
/// When `capture` is non-null (--record-trace) the run feeds it the
/// admit/retire stream. Dynamic specs record their churn exactly
/// (replaying the trace against the same base spec is byte-identical);
/// closed-world specs record their initial task set as t=0 admissions,
/// turning any static scenario into a replayable open-world workload
/// (approximate: the closed-world report format differs).
SpecResult run_spec(const ScenarioSpec& spec,
                    trace::TraceRecorder* capture = nullptr);

/// Runs one *already validated* spec with the given seeds. This is the
/// Monte-Carlo hot path: the experiment engine validates every grid cell
/// once up front, then fires (cells x replications) jobs through here
/// against a shared immutable per-cell spec — no ScenarioSpec copy and no
/// re-validation per job. Seeds are the only thing that varies between
/// replications of a cell.
///
/// `capture` is as above. `instruments` (--trace-spans / --profile,
/// docs/observability.md) are optional: span tracing requires the dynamic
/// fleet-runtime path, and the CLI rejects --trace-spans on static specs
/// up front; the profiler attaches to any path (the dynamic runtime
/// additionally times its internal phases). Neither instrument perturbs
/// the run: report bytes are identical with and without them.
SpecResult run_spec(const ScenarioSpec& spec, const RunSeeds& seeds,
                    trace::TraceRecorder* capture = nullptr,
                    const obs::Instruments& instruments = {});

}  // namespace sgprs::workload

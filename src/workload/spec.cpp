#include "workload/spec.hpp"

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>

#include "cluster/cluster.hpp"
#include "cluster/placement.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "dnn/builders.hpp"
#include "dnn/profiler.hpp"
#include "fleet/runtime.hpp"
#include "obs/instruments.hpp"
#include "trace/trace.hpp"
#include "workload/spec_util.hpp"
#include "workload/taskset.hpp"

namespace sgprs::workload {

namespace {

using common::JsonValue;
using namespace specdet;

rt::PriorityPolicy parse_priority_policy(const std::string& s,
                                         const std::string& path) {
  if (s == "last_stage_high") return rt::PriorityPolicy::kLastStageHigh;
  if (s == "all_low") return rt::PriorityPolicy::kAllLow;
  if (s == "all_high") return rt::PriorityPolicy::kAllHigh;
  bad(path, "unknown priority policy \"" + s +
                "\" (want last_stage_high|all_low|all_high)");
}

rt::ArrivalModel parse_arrival_model(const std::string& s,
                                     const std::string& path) {
  if (s == "periodic") return rt::ArrivalModel::kPeriodic;
  if (s == "sporadic") return rt::ArrivalModel::kSporadic;
  bad(path, "unknown arrival model \"" + s + "\" (want periodic|sporadic)");
}

void parse_pool(const JsonValue& v, ScenarioConfig& cfg,
                const std::string& path) {
  require_object(v, path);
  check_keys(v, {"contexts", "oversubscription", "context_sms"}, path);
  cfg.num_contexts = int_or(v, "contexts", cfg.num_contexts, path);
  cfg.oversubscription =
      num_or(v, "oversubscription", cfg.oversubscription, path);
  if (const JsonValue* sms = v.find("context_sms")) {
    const auto items = get_field("context_sms", path,
                                 [&] { return sms->items(); });
    for (const auto& item : items) {
      cfg.context_sms.push_back(get_field(
          "context_sms", path,
          [&] { return static_cast<int>(item.as_int()); }));
    }
  }
}

void parse_sim(const JsonValue& v, ScenarioConfig& cfg,
               const std::string& path) {
  require_object(v, path);
  check_keys(v, {"duration_s", "warmup_s", "seed", "jitter_phases", "shards"},
             path);
  cfg.duration =
      checked_seconds(num_or(v, "duration_s", cfg.duration.to_sec(), path),
                      path + ".duration_s");
  cfg.warmup =
      checked_seconds(num_or(v, "warmup_s", cfg.warmup.to_sec(), path),
                      path + ".warmup_s");
  cfg.seed = seed_or(v, "seed", cfg.seed, path);
  cfg.jitter_phases = bool_or(v, "jitter_phases", cfg.jitter_phases, path);
  cfg.shards = int_or(v, "shards", cfg.shards, path);
}

void parse_sgprs(const JsonValue& v, ScenarioConfig& cfg,
                 const std::string& path) {
  require_object(v, path);
  check_keys(v,
             {"medium_boost", "abort_hopeless", "max_in_flight",
              "high_streams_steal", "queue_order"},
             path);
  cfg.sgprs.medium_boost =
      bool_or(v, "medium_boost", cfg.sgprs.medium_boost, path);
  cfg.sgprs.abort_hopeless =
      bool_or(v, "abort_hopeless", cfg.sgprs.abort_hopeless, path);
  cfg.sgprs.max_in_flight_per_task =
      int_or(v, "max_in_flight", cfg.sgprs.max_in_flight_per_task, path);
  cfg.sgprs.high_streams_steal =
      bool_or(v, "high_streams_steal", cfg.sgprs.high_streams_steal, path);
  const std::string order = str_or(v, "queue_order", "edf", path);
  if (order == "edf") {
    cfg.sgprs.queue_order = rt::QueueOrder::kEdf;
  } else if (order == "fifo") {
    cfg.sgprs.queue_order = rt::QueueOrder::kFifo;
  } else {
    bad(path + ".queue_order",
        "unknown order \"" + order + "\" (want edf|fifo)");
  }
}

void parse_naive(const JsonValue& v, ScenarioConfig& cfg,
                 const std::string& path) {
  require_object(v, path);
  check_keys(v, {"max_in_flight", "host_sync_gap_ms"}, path);
  cfg.naive.max_in_flight_per_task =
      int_or(v, "max_in_flight", cfg.naive.max_in_flight_per_task, path);
  const double gap_ms =
      num_or(v, "host_sync_gap_ms", cfg.naive.host_sync_gap.to_ms(), path);
  checked_seconds(gap_ms * 1e-3, path + ".host_sync_gap_ms");
  cfg.naive.host_sync_gap = common::SimTime::from_ms(gap_ms);
}

void parse_fleet(const JsonValue& v, ScenarioSpec& spec,
                 const std::string& path) {
  require_object(v, path);
  check_keys(v, {"devices", "placement", "admission_margin",
                 "occupancy_threshold", "device_mem_mb"},
             path);
  spec.fleet_mode = true;
  if (const JsonValue* devices = v.find("devices")) {
    if (devices->is_number()) {
      const int n = get_field("devices", path, [&] {
        return static_cast<int>(devices->as_int());
      });
      if (n < 1) bad(path + ".devices", "device count must be >= 1");
      spec.base.num_devices = n;
    } else if (devices->is_array()) {
      for (const auto& item : devices->items()) {
        const std::string name = get_field("devices", path,
                                           [&] { return item.as_string(); });
        const auto dev = gpu::device_by_name(name);
        if (!dev) {
          bad(path + ".devices", "unknown device \"" + name + "\" (want " +
                                     gpu::device_names() + ")");
        }
        spec.base.fleet.push_back(*dev);
      }
      if (spec.base.fleet.empty()) {
        bad(path + ".devices", "device list must not be empty");
      }
      spec.base.num_devices = static_cast<int>(spec.base.fleet.size());
    } else {
      bad(path + ".devices",
          std::string("expected a count or an array of device names, got ") +
              devices->type_name());
    }
  }
  const std::string placement =
      str_or(v, "placement", cluster::to_string(spec.base.placement), path);
  if (const auto policy = cluster::parse_placement_policy(placement)) {
    spec.base.placement = *policy;
  } else {
    bad(path + ".placement", "unknown policy \"" + placement + "\" (want " +
                                 cluster::placement_policy_names() + ")");
  }
  spec.base.admission_margin =
      num_or(v, "admission_margin", spec.base.admission_margin, path);
  spec.base.occupancy_threshold =
      num_or(v, "occupancy_threshold", spec.base.occupancy_threshold, path);
  spec.base.device_mem_mb =
      num_or(v, "device_mem_mb", spec.base.device_mem_mb, path);
}

TaskEntrySpec parse_task_entry(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v,
             {"name", "count", "network", "fps", "stages", "deadline_ms",
              "phase_ms", "priority", "arrival", "min_separation_ms",
              "max_separation_ms", "tier", "mem_mb", "warps"},
             path);
  TaskEntrySpec e;
  e.name = str_or(v, "name", e.name, path);
  e.count = int_or(v, "count", e.count, path);
  e.network = str_or(v, "network", e.network, path);
  e.fps = num_or(v, "fps", e.fps, path);
  e.num_stages = int_or(v, "stages", e.num_stages, path);
  e.deadline_ms = num_or(v, "deadline_ms", e.deadline_ms, path);
  e.phase_ms = num_or(v, "phase_ms", e.phase_ms, path);
  e.priority_policy = parse_priority_policy(
      str_or(v, "priority", "last_stage_high", path), path + ".priority");
  e.arrival = parse_arrival_model(str_or(v, "arrival", "periodic", path),
                                  path + ".arrival");
  e.min_separation_ms =
      num_or(v, "min_separation_ms", e.min_separation_ms, path);
  e.max_separation_ms =
      num_or(v, "max_separation_ms", e.max_separation_ms, path);
  e.tier = int_or(v, "tier", e.tier, path);
  e.mem_mb = num_or(v, "mem_mb", e.mem_mb, path);
  if (const JsonValue* w = v.find("warps")) {
    e.warps = get_field("warps", path, [&] { return w->as_int(); });
  }
  // For sporadic tasks fps is only a shorthand for min_separation =
  // 1000/fps; stating both invites silent disagreement, so reject it.
  if (e.arrival == rt::ArrivalModel::kSporadic && v.find("fps") &&
      v.find("min_separation_ms")) {
    bad(path, "sporadic tasks take either fps or min_separation_ms, not "
              "both (min_separation defaults to 1000/fps)");
  }
  return e;
}

GeneratorSpec parse_generator(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v,
             {"count", "total_utilization", "stages", "min_fps", "max_fps",
              "networks", "seed"},
             path);
  GeneratorSpec g;
  g.count = int_or(v, "count", g.count, path);
  g.total_utilization =
      num_or(v, "total_utilization", g.total_utilization, path);
  g.num_stages = int_or(v, "stages", g.num_stages, path);
  g.min_fps = num_or(v, "min_fps", g.min_fps, path);
  g.max_fps = num_or(v, "max_fps", g.max_fps, path);
  if (const JsonValue* networks = v.find("networks")) {
    const auto items = get_field("networks", path,
                                 [&] { return networks->items(); });
    for (const auto& item : items) {
      g.networks.push_back(get_field("networks", path,
                                     [&] { return item.as_string(); }));
    }
  }
  g.seed = seed_or(v, "seed", g.seed, path);
  return g;
}

void check_network_known(const std::string& network, const std::string& path) {
  if (!dnn::network_builder_by_name(network)) {
    bad(path, "unknown network \"" + network + "\" (want " +
                  dnn::network_names() + ")");
  }
}

}  // namespace

ScenarioSpec parse_scenario_spec(const common::JsonValue& root,
                                 const std::string& default_name,
                                 bool skip_experiment_section) {
  const std::string path = "spec";
  require_object(root, path);
  check_keys(root,
             {"name", "description", "scheduler", "device", "pool", "sim",
              "sgprs", "naive", "tasks", "generator", "fleet", "experiment",
              "timeline", "fleet_policy", "faults"},
             path);
  if (!skip_experiment_section && root.find("experiment")) {
    bad(path + ".experiment",
        "this is an experiment spec — run it with --experiment (or "
        "load_experiment_spec), not --scenario");
  }

  ScenarioSpec spec;
  spec.name = str_or(root, "name", default_name, path);
  spec.description = str_or(root, "description", "", path);

  const std::string sched =
      str_or(root, "scheduler", rt::to_string(spec.base.scheduler), path);
  if (const auto kind = rt::parse_scheduler_kind(sched)) {
    spec.base.scheduler = *kind;
  } else {
    bad(path + ".scheduler", "unknown scheduler \"" + sched + "\" (want " +
                                 rt::scheduler_kind_names() + ")");
  }

  if (const JsonValue* device = root.find("device")) {
    const std::string name = get_field("device", path,
                                       [&] { return device->as_string(); });
    if (const auto dev = gpu::device_by_name(name)) {
      spec.base.device = *dev;
    } else {
      bad(path + ".device", "unknown device \"" + name + "\" (want " +
                                gpu::device_names() + ")");
    }
  }

  if (const JsonValue* pool = root.find("pool")) {
    parse_pool(*pool, spec.base, path + ".pool");
  }
  if (const JsonValue* sim = root.find("sim")) {
    parse_sim(*sim, spec.base, path + ".sim");
  }
  if (const JsonValue* sgprs = root.find("sgprs")) {
    parse_sgprs(*sgprs, spec.base, path + ".sgprs");
  }
  if (const JsonValue* naive = root.find("naive")) {
    parse_naive(*naive, spec.base, path + ".naive");
  }
  if (const JsonValue* fleet = root.find("fleet")) {
    parse_fleet(*fleet, spec, path + ".fleet");
  }

  if (const JsonValue* tasks = root.find("tasks")) {
    const auto& items = get_field("tasks", path,
                                  [&] { return tasks->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      spec.tasks.push_back(parse_task_entry(
          items[i], path + ".tasks[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* generator = root.find("generator")) {
    spec.generator = parse_generator(*generator, path + ".generator");
  }
  if (const JsonValue* timeline = root.find("timeline")) {
    spec.timeline = fleet::parse_timeline(*timeline, path + ".timeline");
  }
  if (const JsonValue* policy = root.find("fleet_policy")) {
    spec.fleet_policy =
        fleet::parse_fleet_policy(*policy, path + ".fleet_policy");
  }
  if (const JsonValue* faults = root.find("faults")) {
    spec.faults = fleet::parse_fault_spec(*faults, path + ".faults");
  }
  return spec;
}

ScenarioSpec load_scenario_spec(const std::string& path) {
  // File stem ("scenarios/foo.json" -> "foo") names anonymous specs.
  const std::string stem = std::filesystem::path(path).stem().string();
  const common::JsonValue root = common::parse_json_file(path);
  if (root.is_object() && root.find("sgprs_trace")) {
    throw SpecError(
        "spec: \"" + path + "\" is a trace data file, not a scenario — "
        "replay it with --trace, or reference it from a timeline "
        "{\"trace\": ...}");
  }
  ScenarioSpec spec = parse_scenario_spec(root, stem);
  resolve_spec_trace(spec, path);
  validate(spec);
  return spec;
}

void resolve_spec_trace(ScenarioSpec& spec, const std::string& spec_path) {
  if (!spec.timeline || spec.timeline->trace_path.empty() ||
      spec.timeline->trace) {
    return;
  }
  std::filesystem::path p(spec.timeline->trace_path);
  if (p.is_relative() && !spec_path.empty()) {
    p = std::filesystem::path(spec_path).parent_path() / p;
  }
  spec.timeline->trace =
      std::make_shared<const trace::Trace>(trace::load_trace(p.string()));
}

void validate(const ScenarioSpec& spec) {
  // Sharding parallelizes the fleet runtime's epoch loop; the closed-world
  // paths are single-calendar by construction, so a shard count on one is
  // a spec mistake, not a silent no-op.
  if (spec.base.shards > 1 && !spec.dynamic()) {
    throw SpecError("spec.sim.shards",
                    "shards > 1 requires a dynamic spec (a \"timeline\" or "
                    "\"fleet_policy\" section routes the run through the "
                    "sharded fleet runtime)");
  }
  if (spec.generator && !spec.tasks.empty()) {
    throw SpecError("spec: \"tasks\" and \"generator\" are mutually "
                    "exclusive — pick one");
  }
  // A timeline with templates — or a trace, which carries its own template
  // set — can populate the run entirely through churn, so dynamic specs may
  // start with an empty world.
  const bool churn_only =
      spec.timeline && (!spec.timeline->templates.empty() ||
                        spec.timeline->trace != nullptr);
  if (!spec.generator && spec.tasks.empty() && !churn_only) {
    throw SpecError("spec: needs a \"tasks\" array, a \"generator\", or a "
                    "\"timeline\" with templates");
  }
  // Horizons that round to nothing would otherwise surface as the base
  // config's internal check text.
  if (spec.base.duration <= common::SimTime::zero()) {
    bad("spec.sim.duration_s", "must be > 0 (at least 1 ns)");
  }
  if (spec.base.warmup >= spec.base.duration) {
    bad("spec.sim.warmup_s", "must be below duration_s");
  }
  // Stream count cap, summed without overflow before anything is built.
  long long streams = spec.generator ? spec.generator->count : 0;
  if (streams > kMaxSpecStreams) {
    bad("spec.generator.count",
        "at most " + std::to_string(kMaxSpecStreams) + " streams per spec");
  }
  for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
    streams += spec.tasks[i].count;
    if (streams > kMaxSpecStreams) {
      bad("spec.tasks[" + std::to_string(i) + "].count",
          "brings the spec to more than " + std::to_string(kMaxSpecStreams) +
              " streams");
    }
  }
  if (spec.timeline && !spec.timeline->trace_path.empty() &&
      !spec.timeline->trace) {
    throw SpecError("spec.timeline.trace",
                    "trace \"" + spec.timeline->trace_path +
                        "\" is not attached — load the spec through "
                        "load_scenario_spec, or call resolve_spec_trace");
  }

  for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
    const auto& e = spec.tasks[i];
    const std::string path = "spec.tasks[" + std::to_string(i) + "]";
    if (e.count < 1) bad(path + ".count", "must be >= 1");
    if (e.fps <= 0.0) bad(path + ".fps", "must be > 0");
    checked_period(1.0 / e.fps, path + ".fps");
    if (e.num_stages < 1) bad(path + ".stages", "must be >= 1");
    if (e.deadline_ms < 0.0) bad(path + ".deadline_ms", "must be >= 0");
    checked_seconds(e.deadline_ms * 1e-3, path + ".deadline_ms");
    checked_seconds(e.phase_ms * 1e-3, path + ".phase_ms");
    checked_seconds(e.min_separation_ms * 1e-3, path + ".min_separation_ms");
    checked_seconds(e.max_separation_ms * 1e-3, path + ".max_separation_ms");
    check_network_known(e.network, path + ".network");
    if (e.arrival == rt::ArrivalModel::kSporadic) {
      if (e.min_separation_ms < 0.0 || e.max_separation_ms < 0.0) {
        bad(path, "separations must be >= 0");
      }
      const double min_ms = e.min_separation_ms > 0.0 ? e.min_separation_ms
                                                      : 1000.0 / e.fps;
      if (e.max_separation_ms > 0.0 && e.max_separation_ms < min_ms) {
        bad(path + ".max_separation_ms",
            "must be >= the (possibly fps-derived) min separation");
      }
    } else if (e.min_separation_ms != 0.0 || e.max_separation_ms != 0.0) {
      bad(path, "separations only apply to arrival=sporadic");
    }
    if (e.tier < 0) bad(path + ".tier", "must be >= 0");
    if (e.mem_mb < 0.0 && e.mem_mb != -1.0) {
      bad(path + ".mem_mb", "must be >= 0 (or omitted to derive from the "
                            "network)");
    }
    if (e.warps < -1) {
      bad(path + ".warps", "must be >= 0 (or omitted to derive from the "
                           "network)");
    }
  }

  if (spec.timeline) {
    fleet::validate_timeline(*spec.timeline, "spec.timeline");
  }
  if (spec.fleet_policy) {
    fleet::validate_fleet_policy(*spec.fleet_policy, "spec.fleet_policy");
  }
  if (spec.faults) {
    fleet::validate_fault_spec(*spec.faults, "spec.faults");
  }

  if (spec.generator) {
    const auto& g = *spec.generator;
    const std::string path = "spec.generator";
    if (g.count < 1) bad(path + ".count", "must be >= 1");
    if (g.total_utilization <= 0.0) {
      bad(path + ".total_utilization", "must be > 0");
    }
    if (g.num_stages < 1) bad(path + ".stages", "must be >= 1");
    if (g.min_fps <= 0.0 || g.max_fps < g.min_fps) {
      bad(path, "needs 0 < min_fps <= max_fps");
    }
    checked_period(1.0 / g.min_fps, path + ".min_fps");
    checked_period(1.0 / g.max_fps, path + ".max_fps");
    for (const auto& n : g.networks) {
      check_network_known(n, path + ".networks");
    }
  }

  // Base-config invariants (pool shape, sim window, fleet, admission) are
  // centralized in workload::validate; surface them as spec errors.
  try {
    workload::validate(lower(spec));
  } catch (const common::CheckError& e) {
    throw SpecError(std::string("spec: ") + e.what());
  }
}

bool is_simple_spec(const ScenarioSpec& spec) {
  if (spec.dynamic()) return false;
  if (spec.generator || spec.tasks.size() != 1) return false;
  const auto& e = spec.tasks.front();
  return e.arrival == rt::ArrivalModel::kPeriodic && e.phase_ms < 0.0 &&
         e.deadline_ms == 0.0 && e.name == "task";
}

ScenarioConfig lower(const ScenarioSpec& spec) {
  ScenarioConfig cfg = spec.base;
  int total = 0;
  if (spec.generator) {
    total = spec.generator->count;
  } else {
    for (const auto& e : spec.tasks) total += e.count;
  }
  cfg.num_tasks = total > 0 ? total : 1;
  if (is_simple_spec(spec)) {
    const auto& e = spec.tasks.front();
    cfg.fps = e.fps;
    cfg.num_stages = e.num_stages;
    cfg.priority_policy = e.priority_policy;
    cfg.network_builder = dnn::network_builder_by_name(e.network);
  }
  return cfg;
}

namespace {

/// The general task-building path behind task_builder_for / run_spec.
/// `generator_seed` substitutes for spec.generator->seed so replication
/// runs can re-seed without cloning the spec.
std::vector<rt::Task> build_spec_tasks(const ScenarioSpec& spec,
                                       std::uint64_t generator_seed,
                                       const ScenarioConfig& cfg,
                                       const std::vector<int>& pool_sizes) {
  dnn::Profiler profiler(cfg.device, gpu::SpeedupModel::rtx2080ti(),
                         dnn::CostModel::calibrated());

  if (spec.generator) {
    const auto& g = *spec.generator;
    RandomTaskSetConfig rcfg;
    rcfg.count = g.count;
    rcfg.total_utilization = g.total_utilization;
    rcfg.num_stages = g.num_stages;
    rcfg.min_fps = g.min_fps;
    rcfg.max_fps = g.max_fps;
    rcfg.seed = generator_seed;
    for (const auto& name : g.networks) {
      rcfg.network_choices.push_back(dnn::network_builder_by_name(name));
    }
    return build_random_taskset(rcfg, profiler, pool_sizes);
  }

  // Explicit entries: build each network once, clone per replica, draw
  // phases from one seeded rng in task order (mirrors the identical-task
  // builder's consumption pattern).
  common::Rng rng(cfg.seed);
  std::map<std::string, std::shared_ptr<const dnn::Network>> networks;
  std::vector<rt::Task> tasks;
  int id = 0;
  for (const auto& e : spec.tasks) {
    auto it = networks.find(e.network);
    if (it == networks.end()) {
      it = networks
               .emplace(e.network,
                        std::make_shared<const dnn::Network>(
                            dnn::network_builder_by_name(e.network)()))
               .first;
    }
    const double min_sep_ms = e.min_separation_ms > 0.0
                                  ? e.min_separation_ms
                                  : 1000.0 / e.fps;
    rt::TaskConfig tc;
    // Sporadic tasks are built at their worst-case rate so period ==
    // min_separation and utilization/admission math stays conservative.
    tc.fps = e.arrival == rt::ArrivalModel::kSporadic ? 1000.0 / min_sep_ms
                                                      : e.fps;
    tc.num_stages = e.num_stages;
    tc.priority_policy = e.priority_policy;
    if (e.deadline_ms > 0.0) {
      tc.deadline = common::SimTime::from_ms(e.deadline_ms);
    }
    // Replicas differ only in identity, phase and overrides: profile once.
    const rt::Task prototype =
        rt::build_task(id, it->second, tc, profiler, pool_sizes);
    for (int i = 0; i < e.count; ++i) {
      rt::Task t = prototype;
      t.id = id;
      t.name = e.name + std::to_string(id);
      if (e.mem_mb >= 0.0) {
        t.mem_bytes =
            static_cast<std::int64_t>(std::llround(e.mem_mb * 1048576.0));
      }
      if (e.warps >= 0) t.warps = e.warps;
      if (e.phase_ms >= 0.0) {
        t.phase = common::SimTime::from_ms(e.phase_ms);
      } else if (cfg.jitter_phases) {
        t.phase =
            common::SimTime::from_sec(rng.next_double() * t.period.to_sec());
      }
      if (e.arrival == rt::ArrivalModel::kSporadic) {
        t.arrival = rt::ArrivalModel::kSporadic;
        t.min_separation = common::SimTime::from_ms(min_sep_ms);
        t.max_separation = common::SimTime::from_ms(
            e.max_separation_ms > 0.0 ? e.max_separation_ms
                                      : 1.5 * min_sep_ms);
      }
      tasks.push_back(std::move(t));
      ++id;
    }
  }
  return tasks;
}

/// Static-path capture (--record-trace on a closed-world spec): the run's
/// workload is its initial task set, so the trace is one template plus one
/// t=0 admission per task. Approximate by design — replaying it goes
/// through the fleet runtime, whose report format differs from the
/// closed-world one — but it turns any static scenario into an open-world
/// workload artifact (and a seed for trace_scale).
void capture_static_run(const ScenarioSpec& spec,
                        std::uint64_t generator_seed,
                        const ScenarioConfig& cfg,
                        trace::TraceRecorder& capture) {
  const std::vector<int> pool_sizes = cluster::pool_sm_sizes_for(
      cfg.device, pool_config_for(cfg), cfg.sharing);
  const std::vector<rt::Task> tasks =
      build_spec_tasks(spec, generator_seed, cfg, pool_sizes);

  std::vector<fleet::StreamTemplate> templates;
  templates.reserve(tasks.size());
  for (const auto& t : tasks) {
    const TaskEntrySpec* e = task_entry_for(spec, t.id);
    fleet::StreamTemplate st;
    st.name = t.name;
    st.network = t.network->name();
    st.num_stages = static_cast<int>(t.stages.size());
    st.deadline_ms = t.deadline.to_ms();
    st.phase_ms = t.phase.to_ms();
    st.priority_policy =
        e ? e->priority_policy : rt::PriorityPolicy::kLastStageHigh;
    st.tier = e ? e->tier : 0;
    if (e) {
      st.mem_mb = e->mem_mb;
      st.warps = e->warps;
    }
    if (t.arrival == rt::ArrivalModel::kSporadic) {
      st.arrival = rt::ArrivalModel::kSporadic;
      st.fps = 1000.0 / t.min_separation.to_ms();
      st.min_separation_ms = t.min_separation.to_ms();
      st.max_separation_ms = t.max_separation.to_ms();
    } else {
      st.fps = 1000.0 / t.period.to_ms();
    }
    templates.push_back(std::move(st));
  }
  capture.set_templates(std::move(templates));
  for (const auto& t : tasks) {
    capture.record_admit(common::SimTime::zero(), t.name, t.id, -1,
                         "initial");
  }
}

/// Shared run path. The builder captures `spec` by reference — safe
/// because it is only invoked synchronously inside the run_* call below.
SpecResult run_spec_impl(const ScenarioSpec& spec, std::uint64_t sim_seed,
                         std::uint64_t generator_seed,
                         trace::TraceRecorder* capture,
                         const obs::Instruments& instruments) {
  ScenarioConfig cfg = lower(spec);
  cfg.seed = sim_seed;

  SpecResult result;
  result.name = spec.name;
  result.fleet = spec.fleet_mode;
  // Open-world specs (timeline / fleet_policy) run in the fleet runtime;
  // everything else keeps its closed-world path untouched.
  if (spec.dynamic()) {
    result.dynamic = true;
    RunSeeds seeds;
    seeds.sim = sim_seed;
    seeds.generator = generator_seed;
    result.dyn =
        fleet::run_fleet_scenario(spec, seeds, capture, instruments);
    return result;
  }
  // Simple specs run through the default identical-task builder — the
  // exact code path of the hard-coded benches, so results are
  // bit-identical (pinned by spec_test).
  const TaskSetBuilder builder =
      is_simple_spec(spec)
          ? TaskSetBuilder{}
          : TaskSetBuilder{[&spec, generator_seed](
                               const ScenarioConfig& c,
                               const std::vector<int>& pool_sizes) {
              return build_spec_tasks(spec, generator_seed, c, pool_sizes);
            }};
  if (spec.fleet_mode) {
    result.cluster = run_cluster_scenario(cfg, builder);
  } else {
    result.single = run_scenario(cfg, builder);
  }
  if (capture) capture_static_run(spec, generator_seed, cfg, *capture);
  return result;
}

}  // namespace

TaskSetBuilder task_builder_for(const ScenarioSpec& spec) {
  return task_builder_for(spec,
                          spec.generator ? spec.generator->seed : 0);
}

TaskSetBuilder task_builder_for(const ScenarioSpec& spec,
                                std::uint64_t generator_seed) {
  return [spec, generator_seed](const ScenarioConfig& cfg,
                                const std::vector<int>& pool_sizes) {
    return build_spec_tasks(spec, generator_seed, cfg, pool_sizes);
  };
}

const TaskEntrySpec* task_entry_for(const ScenarioSpec& spec,
                                    int task_index) {
  int next = 0;
  for (const auto& e : spec.tasks) {
    if (task_index < next + e.count) return &e;
    next += e.count;
  }
  return nullptr;  // generator-built, or out of range
}

int task_tier_for(const ScenarioSpec& spec, int task_index) {
  const TaskEntrySpec* e = task_entry_for(spec, task_index);
  return e ? e->tier : 0;
}

SpecResult run_spec(const ScenarioSpec& spec) {
  return run_spec(spec, static_cast<trace::TraceRecorder*>(nullptr));
}

SpecResult run_spec(const ScenarioSpec& spec,
                    trace::TraceRecorder* capture) {
  validate(spec);
  return run_spec_impl(spec, spec.base.seed,
                       spec.generator ? spec.generator->seed : 0, capture,
                       obs::Instruments{});
}

SpecResult run_spec(const ScenarioSpec& spec, const RunSeeds& seeds) {
  return run_spec_impl(spec, seeds.sim, seeds.generator, nullptr,
                       obs::Instruments{});
}

SpecResult run_spec(const ScenarioSpec& spec, const RunSeeds& seeds,
                    trace::TraceRecorder* capture) {
  return run_spec_impl(spec, seeds.sim, seeds.generator, capture,
                       obs::Instruments{});
}

SpecResult run_spec(const ScenarioSpec& spec, const RunSeeds& seeds,
                    trace::TraceRecorder* capture,
                    const obs::Instruments& instruments) {
  return run_spec_impl(spec, seeds.sim, seeds.generator, capture,
                       instruments);
}

}  // namespace sgprs::workload

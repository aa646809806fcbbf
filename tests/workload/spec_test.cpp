#include "workload/spec.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "dnn/builders.hpp"
#include "dnn/profiler.hpp"
#include "gpu/device.hpp"
#include "rt/task.hpp"

namespace sgprs::workload {
namespace {

using common::SimTime;

ScenarioSpec parse(const std::string& json,
                   const std::string& name = "test_spec") {
  return parse_scenario_spec(common::parse_json(json), name);
}

/// A tiny heterogeneous spec that runs in well under a second.
constexpr const char* kTinyMixed = R"({
  "scheduler": "sgprs",
  "pool": { "contexts": 2, "oversubscription": 1.5 },
  "sim": { "duration_s": 0.6, "warmup_s": 0.1 },
  "tasks": [
    { "name": "cam", "count": 2, "network": "lenet5", "fps": 30, "stages": 3 },
    { "name": "tiny", "count": 1, "network": "mlp3", "fps": 60, "stages": 2 }
  ]
})";

TEST(SpecParse, FullDocumentRoundTrips) {
  const auto spec = parse(R"({
    "name": "full",
    "description": "everything set",
    "scheduler": "naive",
    "device": "3090",
    "pool": { "contexts": 3, "oversubscription": 2.0, "context_sms": [40, 20] },
    "sim": { "duration_s": 1.5, "warmup_s": 0.25, "seed": 7, "jitter_phases": false },
    "sgprs": { "medium_boost": false, "abort_hopeless": true,
               "max_in_flight": 2, "queue_order": "fifo" },
    "naive": { "max_in_flight": 3, "host_sync_gap_ms": 0.5 },
    "tasks": [
      { "name": "cam", "count": 4, "network": "resnet50", "fps": 15,
        "stages": 8, "deadline_ms": 50, "phase_ms": 3.5,
        "priority": "all_high" },
      { "count": 2, "network": "lenet5", "stages": 3,
        "arrival": "sporadic", "min_separation_ms": 16.7,
        "max_separation_ms": 40 }
    ]
  })");
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.description, "everything set");
  EXPECT_EQ(spec.base.scheduler, SchedulerKind::kNaive);
  EXPECT_EQ(spec.base.device.total_sms, 82);
  EXPECT_EQ(spec.base.num_contexts, 3);
  EXPECT_DOUBLE_EQ(spec.base.oversubscription, 2.0);
  EXPECT_EQ(spec.base.context_sms, (std::vector<int>{40, 20}));
  EXPECT_EQ(spec.base.duration, SimTime::from_sec(1.5));
  EXPECT_EQ(spec.base.warmup, SimTime::from_sec(0.25));
  EXPECT_EQ(spec.base.seed, 7u);
  EXPECT_FALSE(spec.base.jitter_phases);
  EXPECT_FALSE(spec.base.sgprs.medium_boost);
  EXPECT_TRUE(spec.base.sgprs.abort_hopeless);
  EXPECT_EQ(spec.base.sgprs.max_in_flight_per_task, 2);
  EXPECT_EQ(spec.base.sgprs.queue_order, rt::QueueOrder::kFifo);
  EXPECT_EQ(spec.base.naive.max_in_flight_per_task, 3);
  EXPECT_FALSE(spec.fleet_mode);

  ASSERT_EQ(spec.tasks.size(), 2u);
  const auto& cam = spec.tasks[0];
  EXPECT_EQ(cam.name, "cam");
  EXPECT_EQ(cam.count, 4);
  EXPECT_EQ(cam.network, "resnet50");
  EXPECT_DOUBLE_EQ(cam.fps, 15.0);
  EXPECT_EQ(cam.num_stages, 8);
  EXPECT_DOUBLE_EQ(cam.deadline_ms, 50.0);
  EXPECT_DOUBLE_EQ(cam.phase_ms, 3.5);
  EXPECT_EQ(cam.priority_policy, rt::PriorityPolicy::kAllHigh);
  EXPECT_EQ(cam.arrival, rt::ArrivalModel::kPeriodic);
  const auto& burst = spec.tasks[1];
  EXPECT_EQ(burst.arrival, rt::ArrivalModel::kSporadic);
  EXPECT_DOUBLE_EQ(burst.min_separation_ms, 16.7);
  EXPECT_DOUBLE_EQ(burst.max_separation_ms, 40.0);
}

TEST(SpecParse, FleetSection) {
  const auto spec = parse(R"({
    "fleet": { "devices": ["2080ti", "3090"], "placement": "binpack",
               "admission_margin": 0.9 },
    "tasks": [ { "count": 4 } ]
  })");
  EXPECT_TRUE(spec.fleet_mode);
  ASSERT_EQ(spec.base.fleet.size(), 2u);
  EXPECT_EQ(spec.base.fleet[1].total_sms, 82);
  EXPECT_EQ(spec.base.placement, cluster::PlacementPolicy::kBinPackUtilization);
  EXPECT_DOUBLE_EQ(spec.base.admission_margin, 0.9);

  const auto counted = parse(R"({
    "fleet": { "devices": 3 },
    "tasks": [ { "count": 4 } ]
  })");
  EXPECT_TRUE(counted.fleet_mode);
  EXPECT_EQ(counted.base.num_devices, 3);
  EXPECT_TRUE(counted.base.fleet.empty()) << "count = copies of base.device";
}

TEST(SpecParse, FootprintAndMemoryKeys) {
  const auto spec = parse(R"({
    "fleet": { "devices": 2, "placement": "binpack_memory",
               "occupancy_threshold": 0.8, "device_mem_mb": 4096 },
    "tasks": [
      { "count": 1, "mem_mb": 512.5, "warps": 96 },
      { "count": 1 }
    ]
  })");
  EXPECT_EQ(spec.base.placement, cluster::PlacementPolicy::kBinPackMemory);
  EXPECT_DOUBLE_EQ(spec.base.occupancy_threshold, 0.8);
  EXPECT_DOUBLE_EQ(spec.base.device_mem_mb, 4096.0);
  EXPECT_DOUBLE_EQ(spec.tasks[0].mem_mb, 512.5);
  EXPECT_EQ(spec.tasks[0].warps, 96);
  // Omitted overrides keep the derive-from-profile sentinel.
  EXPECT_DOUBLE_EQ(spec.tasks[1].mem_mb, -1.0);
  EXPECT_EQ(spec.tasks[1].warps, -1);

  // The worstfit alias (pre-fix binpack ordering) parses too.
  const auto wf = parse(R"({
    "fleet": { "devices": 2, "placement": "worstfit" },
    "tasks": [ { "count": 1 } ]
  })");
  EXPECT_EQ(wf.base.placement, cluster::PlacementPolicy::kWorstFit);

  // Range validation: negative overrides and out-of-range thresholds.
  auto invalid = parse(R"({
    "fleet": { "devices": 2 },
    "tasks": [ { "count": 1, "mem_mb": -5 } ]
  })");
  EXPECT_THROW(validate(invalid), SpecError);
  auto bad_occ = parse(R"({
    "fleet": { "devices": 2, "occupancy_threshold": 1.5 },
    "tasks": [ { "count": 1 } ]
  })");
  EXPECT_THROW(validate(bad_occ), SpecError);
}

TEST(SpecParse, UnknownKeysAreErrors) {
  EXPECT_THROW(parse(R"({"tasks": [{}], "shceduler": "sgprs"})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{}], "pool": {"contxts": 2}})"),
               SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{"fsp": 30}]})"), SpecError);
  try {
    parse(R"({"tasks": [{}], "pool": {"contxts": 2}})");
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.pool"), std::string::npos) << msg;
    EXPECT_NE(msg.find("contxts"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allowed"), std::string::npos) << msg;
  }
}

TEST(SpecParse, SporadicFpsAndMinSeparationConflict) {
  // fps is only the shorthand for min_separation on sporadic tasks;
  // stating both is rejected instead of silently preferring one.
  EXPECT_THROW(parse(R"({"tasks": [
    { "arrival": "sporadic", "fps": 60, "min_separation_ms": 100 }
  ]})"),
               SpecError);
  EXPECT_NO_THROW(parse(R"({"tasks": [
    { "arrival": "sporadic", "fps": 60 }
  ]})"));
  EXPECT_NO_THROW(parse(R"({"tasks": [
    { "arrival": "sporadic", "min_separation_ms": 100 }
  ]})"));
}

TEST(SpecParse, BadEnumsNameTheAlternatives) {
  try {
    parse(R"({"scheduler": "fifo", "tasks": [{}]})");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("sgprs|naive"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse(R"({"device": "titan", "tasks": [{}]})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{"arrival": "poisson"}]})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{"priority": "highest"}]})"), SpecError);
  EXPECT_THROW(
      parse(R"({"fleet": {"placement": "spread"}, "tasks": [{}]})"),
      SpecError);
}

TEST(SpecParse, TypeMismatchNamesFieldPath) {
  try {
    parse(R"({"pool": {"contexts": "two"}, "tasks": [{}]})");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.pool.contexts"), std::string::npos) << msg;
  }
  EXPECT_THROW(parse(R"({"tasks": [{"fps": "fast"}]})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{"count": 2.5}]})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": "lots"})"), SpecError);
  EXPECT_THROW(parse(R"({"fleet": {"devices": true}, "tasks": [{}]})"),
               SpecError);
}

TEST(SpecValidate, TaskEntryRules) {
  auto base = parse(kTinyMixed);
  EXPECT_NO_THROW(validate(base));

  auto bad = base;
  bad.tasks[0].fps = 0.0;
  EXPECT_THROW(validate(bad), SpecError);
  bad = base;
  bad.tasks[0].count = 0;
  EXPECT_THROW(validate(bad), SpecError);
  bad = base;
  bad.tasks[0].network = "resnet1b";
  EXPECT_THROW(validate(bad), SpecError);
  bad = base;
  bad.tasks[0].min_separation_ms = 10.0;  // separations on a periodic task
  EXPECT_THROW(validate(bad), SpecError);
  bad = base;
  bad.tasks[0].arrival = rt::ArrivalModel::kSporadic;
  bad.tasks[0].min_separation_ms = 50.0;
  bad.tasks[0].max_separation_ms = 20.0;
  EXPECT_THROW(validate(bad), SpecError);
}

TEST(SpecValidate, TasksXorGenerator) {
  EXPECT_THROW(validate(parse(R"({"sim": {"duration_s": 1}})")), SpecError);
  auto both = parse(kTinyMixed);
  both.generator = GeneratorSpec{};
  EXPECT_THROW(validate(both), SpecError);
}

TEST(SpecValidate, BaseConfigErrorsSurfaceAsSpecErrors) {
  auto spec = parse(kTinyMixed);
  spec.base.oversubscription = 0.5;
  try {
    validate(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("oversubscription"),
              std::string::npos)
        << e.what();
  }
  spec = parse(kTinyMixed);
  spec.base.warmup = spec.base.duration;
  EXPECT_THROW(validate(spec), SpecError);
  spec = parse(kTinyMixed);
  spec.base.admission_margin = 1.5;
  EXPECT_THROW(validate(spec), SpecError);
}

/// The field path of the SpecError that parsing + validating `json` throws.
std::string error_path(const std::string& json) {
  try {
    validate(parse(json));
  } catch (const SpecError& e) {
    return e.path();
  }
  return "(no error)";
}

TEST(SpecValidate, OutOfRangeDurationsNameTheirField) {
  // Beyond int64 nanoseconds: the raw double -> int64 cast would overflow
  // (it used to surface as "duration must be > 0" or an internal check).
  EXPECT_EQ(error_path(R"({"sim": {"duration_s": 1e300}, "tasks": [{}]})"),
            "spec.sim.duration_s");
  EXPECT_EQ(error_path(R"({"sim": {"warmup_s": -1e300}, "tasks": [{}]})"),
            "spec.sim.warmup_s");
  EXPECT_EQ(error_path(R"({"tasks": [{"fps": 1e-300}]})"), "spec.tasks[0].fps");
  // The other way round: a period that rounds to 0 ns.
  EXPECT_EQ(error_path(R"({"tasks": [{"fps": 1e300}]})"), "spec.tasks[0].fps");
  EXPECT_EQ(error_path(R"({"tasks": [{}, {"phase_ms": 1e300}]})"),
            "spec.tasks[1].phase_ms");
  EXPECT_EQ(error_path(R"({"tasks": [{"deadline_ms": 1e300}]})"),
            "spec.tasks[0].deadline_ms");
  EXPECT_EQ(error_path(R"({"naive": {"host_sync_gap_ms": 1e300},
                           "tasks": [{}]})"),
            "spec.naive.host_sync_gap_ms");
  EXPECT_EQ(error_path(R"({"generator": {"min_fps": 1e-300}})"),
            "spec.generator.min_fps");
  // In range, the checked conversion is exactly SimTime::from_sec.
  const auto ok = parse(R"({"sim": {"duration_s": 2.5e-9}, "tasks": [{}]})");
  EXPECT_EQ(ok.base.duration, SimTime::from_sec(2.5e-9));
}

TEST(SpecValidate, DegenerateHorizonsNameTheirField) {
  // 1e-10 s rounds to 0 ns: a field-path error, not the base config's
  // internal check text.
  EXPECT_EQ(error_path(R"({"sim": {"duration_s": 1e-10}, "tasks": [{}]})"),
            "spec.sim.duration_s");
  EXPECT_EQ(error_path(R"({"sim": {"duration_s": -1}, "tasks": [{}]})"),
            "spec.sim.duration_s");
  EXPECT_EQ(error_path(R"({"sim": {"duration_s": 1, "warmup_s": 1},
                           "tasks": [{}]})"),
            "spec.sim.warmup_s");
  EXPECT_EQ(error_path(R"({"sim": {"duration_s": 1, "warmup_s": 2},
                           "tasks": [{}]})"),
            "spec.sim.warmup_s");
  EXPECT_EQ(error_path(R"({"sim": {"duration_s": 1, "warmup_s": 0.999},
                           "tasks": [{}]})"),
            "(no error)");
}

TEST(SpecValidate, StreamCountIsCapped) {
  // Validation only: nothing is built, so these return at once.
  EXPECT_EQ(error_path(R"({"tasks": [{"count": 100000000}]})"),
            "spec.tasks[0].count");
  EXPECT_EQ(error_path(R"({"tasks": [{"count": 600000},
                                     {"count": 400000},
                                     {"count": 1}]})"),
            "spec.tasks[2].count");
  // Summed in 64 bits: two counts near INT_MAX do not wrap below the cap.
  EXPECT_EQ(error_path(R"({"tasks": [{"count": 2147483647},
                                     {"count": 2147483647}]})"),
            "spec.tasks[0].count");
  EXPECT_EQ(error_path(R"({"generator": {"count": 1000001}})"),
            "spec.generator.count");
  // Exactly at the cap is accepted.
  EXPECT_EQ(error_path(R"({"tasks": [{"count": 600000},
                                     {"count": 400000}]})"),
            "(no error)");
  EXPECT_EQ(error_path(R"({"generator": {"count": 1000000}})"),
            "(no error)");
}

TEST(SpecLower, SumsReplicaCounts) {
  const auto spec = parse(kTinyMixed);
  EXPECT_FALSE(is_simple_spec(spec)) << "two entries";
  EXPECT_EQ(lower(spec).num_tasks, 3);

  const auto gen = parse(R"({
    "generator": { "count": 5, "total_utilization": 1.0 }
  })");
  EXPECT_EQ(lower(gen).num_tasks, 5);
}

TEST(SpecLower, SimpleSpecFillsTaskFields) {
  const auto spec = parse(R"({
    "tasks": [ { "count": 7, "network": "mobilenet", "fps": 15, "stages": 4,
                 "priority": "all_low" } ]
  })");
  EXPECT_TRUE(is_simple_spec(spec));
  const auto cfg = lower(spec);
  EXPECT_EQ(cfg.num_tasks, 7);
  EXPECT_DOUBLE_EQ(cfg.fps, 15.0);
  EXPECT_EQ(cfg.num_stages, 4);
  EXPECT_EQ(cfg.priority_policy, rt::PriorityPolicy::kAllLow);
  ASSERT_TRUE(cfg.network_builder);
}

TEST(SpecLower, ExplicitPhaseOrDeadlineLeavesFastPath) {
  auto spec = parse(R"({"tasks": [ { "count": 2, "phase_ms": 0 } ]})");
  EXPECT_FALSE(is_simple_spec(spec));
  spec = parse(R"({"tasks": [ { "count": 2, "deadline_ms": 20 } ]})");
  EXPECT_FALSE(is_simple_spec(spec));
  spec = parse(R"({"tasks": [ { "count": 2, "arrival": "sporadic" } ]})");
  EXPECT_FALSE(is_simple_spec(spec));
}

TEST(SpecBuilder, HeterogeneousTaskSet) {
  const auto spec = parse(kTinyMixed);
  const auto cfg = lower(spec);
  const auto tasks = task_builder_for(spec)(cfg, {51});
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].name, "cam0");
  EXPECT_EQ(tasks[1].name, "cam1");
  EXPECT_EQ(tasks[2].name, "tiny2");
  EXPECT_EQ(tasks[0].id, 0);
  EXPECT_EQ(tasks[2].id, 2);
  EXPECT_EQ(tasks[0].period, SimTime::from_sec(1.0 / 30.0));
  EXPECT_EQ(tasks[2].period, SimTime::from_sec(1.0 / 60.0));
  EXPECT_EQ(tasks[0].stage_count(), 3);
  EXPECT_EQ(tasks[2].stage_count(), 2);
}

TEST(SpecBuilder, SporadicFieldsAndWorstCasePeriod) {
  const auto spec = parse(R"({
    "tasks": [ { "count": 1, "network": "lenet5", "stages": 2,
                 "arrival": "sporadic", "min_separation_ms": 20,
                 "max_separation_ms": 50 } ]
  })");
  const auto tasks = task_builder_for(spec)(lower(spec), {51});
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].arrival, rt::ArrivalModel::kSporadic);
  EXPECT_EQ(tasks[0].min_separation, SimTime::from_ms(20));
  EXPECT_EQ(tasks[0].max_separation, SimTime::from_ms(50));
  // Built at the worst-case rate: period == min_separation, so admission
  // and utilization math stay conservative.
  EXPECT_EQ(tasks[0].period, SimTime::from_ms(20));
}

TEST(SpecBuilder, ReplicasEqualAnIndependentBuild) {
  // Replicas are copies of one profiled prototype per entry; each must be
  // what its own rt::build_task would give, overrides and identity aside.
  const auto spec = parse(R"({
    "tasks": [
      { "name": "cam", "count": 3, "network": "resnet18", "fps": 30,
        "stages": 4, "deadline_ms": 25 },
      { "name": "pin", "count": 2, "network": "lenet5", "fps": 60,
        "stages": 2, "mem_mb": 12, "warps": 96 },
      { "name": "spo", "count": 2, "network": "mobilenet", "stages": 3,
        "arrival": "sporadic", "min_separation_ms": 40 }
    ]
  })");
  const auto cfg = lower(spec);
  const std::vector<int> pool_sizes = {51, 34};
  const auto tasks = task_builder_for(spec)(cfg, pool_sizes);
  ASSERT_EQ(tasks.size(), 7u);

  const dnn::Profiler profiler(cfg.device, gpu::SpeedupModel::rtx2080ti(),
                               dnn::CostModel::calibrated());
  for (const auto& t : tasks) {
    SCOPED_TRACE(t.name);
    const TaskEntrySpec& e = *task_entry_for(spec, t.id);
    rt::TaskConfig tc;
    tc.fps = e.arrival == rt::ArrivalModel::kSporadic
                 ? 1000.0 / e.min_separation_ms
                 : e.fps;
    tc.num_stages = e.num_stages;
    tc.priority_policy = e.priority_policy;
    if (e.deadline_ms > 0.0) tc.deadline = SimTime::from_ms(e.deadline_ms);
    const auto network = std::make_shared<const dnn::Network>(
        dnn::network_builder_by_name(e.network)());
    const rt::Task ref =
        rt::build_task(t.id, network, tc, profiler, pool_sizes);

    EXPECT_EQ(t.name, e.name + std::to_string(t.id));
    EXPECT_EQ(t.period, ref.period);
    EXPECT_EQ(t.deadline, ref.deadline);
    ASSERT_EQ(t.stage_count(), ref.stage_count());
    for (int s = 0; s < t.stage_count(); ++s) {
      EXPECT_EQ(t.stages[s].index, ref.stages[s].index);
      EXPECT_EQ(t.stages[s].nodes, ref.stages[s].nodes);
      EXPECT_EQ(t.stages[s].base_priority, ref.stages[s].base_priority);
      EXPECT_EQ(t.stages[s].virtual_deadline_offset,
                ref.stages[s].virtual_deadline_offset);
    }
    EXPECT_EQ(t.wcet.per_stage, ref.wcet.per_stage);
    EXPECT_EQ(t.wcet.total, ref.wcet.total);
    if (e.mem_mb >= 0.0) {
      EXPECT_EQ(t.mem_bytes, 12 * 1048576);
      EXPECT_EQ(t.warps, 96);
    } else {
      EXPECT_EQ(t.mem_bytes, ref.mem_bytes);
      EXPECT_EQ(t.warps, ref.warps);
    }
  }
  // Replicas of one entry share the network but keep their own identity.
  EXPECT_EQ(tasks[0].network, tasks[2].network);
  EXPECT_EQ(tasks[1].id, 1);
  EXPECT_EQ(tasks[6].id, 6);
  EXPECT_EQ(tasks[5].arrival, rt::ArrivalModel::kSporadic);
  EXPECT_EQ(tasks[5].min_separation, SimTime::from_ms(40));
  EXPECT_EQ(tasks[5].max_separation, SimTime::from_ms(60));
  EXPECT_EQ(tasks[0].arrival, rt::ArrivalModel::kPeriodic);
}

TEST(SpecRun, HeterogeneousSpecRuns) {
  const auto r = run_spec(parse(kTinyMixed));
  EXPECT_FALSE(r.fleet);
  EXPECT_EQ(r.single.per_task.size(), 3u);
  EXPECT_GT(r.fps(), 0.0);
  EXPECT_DOUBLE_EQ(r.dmr(), 0.0) << "tiny networks at low load";
}

TEST(SpecRun, SporadicSpecRunsAndIsDeterministic) {
  const char* kSporadic = R"({
    "pool": { "contexts": 2 },
    "sim": { "duration_s": 0.8, "warmup_s": 0.1 },
    "tasks": [
      { "name": "burst", "count": 3, "network": "lenet5",
        "stages": 2, "arrival": "sporadic", "min_separation_ms": 16.7,
        "max_separation_ms": 60 }
    ]
  })";
  const auto a = run_spec(parse(kSporadic));
  const auto b = run_spec(parse(kSporadic));
  EXPECT_GT(a.releases(), 0);
  EXPECT_EQ(a.releases(), b.releases());
  EXPECT_DOUBLE_EQ(a.fps(), b.fps());
  // The scenario seed must reach the sporadic arrival rngs: a different
  // seed samples a different arrival realization.
  auto reseeded = parse(kSporadic);
  reseeded.base.seed = 12345;
  const auto c = run_spec(reseeded);
  EXPECT_NE(std::make_pair(c.releases(), c.fps()),
            std::make_pair(a.releases(), a.fps()));
  // Sporadic spacing only stretches inter-arrivals, so the release count
  // stays below the periodic ceiling at the same min separation.
  EXPECT_LT(a.releases(), static_cast<std::int64_t>(3 * 0.8 / 0.0167) + 3);
}

TEST(SpecRun, GeneratorSpecRuns) {
  const auto r = run_spec(parse(R"({
    "pool": { "contexts": 2, "oversubscription": 1.5 },
    "sim": { "duration_s": 0.6, "warmup_s": 0.1 },
    "generator": { "count": 4, "total_utilization": 0.8,
                   "networks": ["lenet5", "mlp3"], "stages": 2, "seed": 3 }
  })"));
  EXPECT_EQ(r.single.per_task.size(), 4u);
  EXPECT_GT(r.fps(), 0.0);
}

TEST(SpecRun, FleetSpecRuns) {
  const auto r = run_spec(parse(R"({
    "pool": { "contexts": 2 },
    "sim": { "duration_s": 0.6, "warmup_s": 0.1 },
    "fleet": { "devices": 2, "placement": "roundrobin" },
    "tasks": [ { "count": 4, "network": "lenet5", "fps": 30, "stages": 3 } ]
  })"));
  EXPECT_TRUE(r.fleet);
  EXPECT_EQ(r.cluster.fleet.devices.size(), 2u);
  EXPECT_EQ(r.cluster.fleet.tasks_assigned, 4);
  EXPECT_GT(r.fps(), 0.0);
}

// --- The acceptance pin: the curated Scenario 1 spec reproduces the
// hard-coded path exactly, metric for metric. ---

TEST(SpecPin, PaperScenario1BitIdenticalToHardCodedPath) {
  const auto spec = load_scenario_spec(std::string(SGPRS_SOURCE_DIR) +
                                       "/scenarios/paper_scenario1.json");
  EXPECT_EQ(spec.name, "paper_scenario1");
  ASSERT_TRUE(is_simple_spec(spec))
      << "the pin scenario must lower onto the identical-task fast path";
  const auto via_spec = run_spec(spec);

  // The hard-coded Scenario 1 operating point (bench figure_base(2) at
  // os=1.5 with 16 tasks).
  ScenarioConfig cfg;
  cfg.scheduler = SchedulerKind::kSgprs;
  cfg.num_contexts = 2;
  cfg.oversubscription = 1.5;
  cfg.num_tasks = 16;
  cfg.fps = 30.0;
  cfg.num_stages = 6;
  cfg.duration = SimTime::from_sec(2.0);
  cfg.warmup = SimTime::from_sec(0.4);
  cfg.seed = 42;
  const auto hard = run_scenario(cfg);

  const auto& a = via_spec.single;
  EXPECT_EQ(a.releases, hard.releases);
  EXPECT_EQ(a.stage_migrations, hard.stage_migrations);
  EXPECT_EQ(a.medium_promotions, hard.medium_promotions);
  EXPECT_DOUBLE_EQ(a.sim_events, hard.sim_events);
  EXPECT_DOUBLE_EQ(a.gpu_busy_sm_seconds, hard.gpu_busy_sm_seconds);
  EXPECT_EQ(a.aggregate.counts.released, hard.aggregate.counts.released);
  EXPECT_EQ(a.aggregate.counts.on_time, hard.aggregate.counts.on_time);
  EXPECT_EQ(a.aggregate.counts.late, hard.aggregate.counts.late);
  EXPECT_EQ(a.aggregate.counts.dropped, hard.aggregate.counts.dropped);
  EXPECT_DOUBLE_EQ(a.aggregate.fps, hard.aggregate.fps);
  EXPECT_DOUBLE_EQ(a.aggregate.fps_on_time, hard.aggregate.fps_on_time);
  EXPECT_DOUBLE_EQ(a.aggregate.dmr, hard.aggregate.dmr);
  EXPECT_DOUBLE_EQ(a.aggregate.mean_latency_ms,
                   hard.aggregate.mean_latency_ms);
  EXPECT_DOUBLE_EQ(a.aggregate.p50_latency_ms, hard.aggregate.p50_latency_ms);
  EXPECT_DOUBLE_EQ(a.aggregate.p99_latency_ms, hard.aggregate.p99_latency_ms);
  EXPECT_DOUBLE_EQ(a.aggregate.max_latency_ms, hard.aggregate.max_latency_ms);
  ASSERT_EQ(a.per_task.size(), hard.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.per_task[i].fps, hard.per_task[i].fps) << "task " << i;
    EXPECT_DOUBLE_EQ(a.per_task[i].p99_latency_ms,
                     hard.per_task[i].p99_latency_ms)
        << "task " << i;
  }
}

TEST(SpecPin, CuratedLibraryParsesAndValidates) {
  const std::string dir = std::string(SGPRS_SOURCE_DIR) + "/scenarios";
  for (const char* name :
       {"paper_scenario1", "paper_scenario2", "naive_baseline",
        "multi_tenant_mixed", "sporadic_bursts", "heterogeneous_fleet",
        "overload_admission", "uunifast_capacity",
        "constrained_deadlines"}) {
    EXPECT_NO_THROW(load_scenario_spec(dir + "/" + name + ".json")) << name;
  }
}

TEST(SpecLoad, MalformedFileErrors) {
  const std::string path = testing::TempDir() + "sgprs_bad_spec.json";
  {
    std::ofstream out(path);
    out << "{ \"tasks\": [ { \"fps\": 30 }, ] }";  // trailing comma
  }
  EXPECT_THROW(load_scenario_spec(path), common::JsonError);
  {
    std::ofstream out(path);
    out << "{ \"tasks\": [ { \"fps\": -1 } ] }";
  }
  EXPECT_THROW(load_scenario_spec(path), SpecError);
  EXPECT_THROW(load_scenario_spec("/nonexistent/nope.json"),
               common::JsonError);
  {
    std::ofstream out(path);
    out << "{ \"tasks\":\n" << std::string(200000, '[');
  }
  try {
    load_scenario_spec(path);
    FAIL() << "expected JsonError";
  } catch (const common::JsonError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), common::kMaxJsonDepth);
  }
}

}  // namespace
}  // namespace sgprs::workload

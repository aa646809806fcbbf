// Parsing and validation of the "timeline" and "fleet_policy" spec
// sections, plus the pure autoscaler policy decisions.
#include <gtest/gtest.h>

#include "common/json.hpp"
#include "fleet/policy.hpp"
#include "fleet/timeline.hpp"
#include "workload/spec_error.hpp"

namespace sgprs::fleet {
namespace {

TimelineSpec parse_tl(const std::string& json) {
  return parse_timeline(common::parse_json(json), "spec.timeline");
}

FleetPolicySpec parse_fp(const std::string& json) {
  return parse_fleet_policy(common::parse_json(json), "spec.fleet_policy");
}

TEST(TimelineParseTest, FullSection) {
  const auto spec = parse_tl(R"({
    "seed": 9,
    "templates": [
      { "name": "cam", "network": "resnet18", "fps": 25, "stages": 4,
        "tier": 2, "deadline_ms": 50, "phase_ms": 3 },
      { "name": "burst", "arrival": "sporadic", "fps": 30,
        "max_separation_ms": 60 }
    ],
    "events": [
      { "at_s": 0.5, "admit": "cam", "count": 3 },
      { "every_s": 0.2, "from_s": 1.0, "until_s": 2.0, "retire": "cam" }
    ],
    "arrivals": [
      { "template": "burst", "rate_per_s": 12, "lifetime_s": [0.2, 0.9],
        "from_s": 0.1, "until_s": 1.5 }
    ]
  })");
  validate_timeline(spec, "spec.timeline");

  EXPECT_EQ(spec.seed, 9u);
  ASSERT_EQ(spec.templates.size(), 2u);
  EXPECT_EQ(spec.templates[0].name, "cam");
  EXPECT_EQ(spec.templates[0].fps, 25.0);
  EXPECT_EQ(spec.templates[0].num_stages, 4);
  EXPECT_EQ(spec.templates[0].tier, 2);
  EXPECT_EQ(spec.templates[0].deadline_ms, 50.0);
  EXPECT_EQ(spec.templates[1].arrival, rt::ArrivalModel::kSporadic);
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.events[0].kind, TimelineEvent::Kind::kAdmit);
  EXPECT_EQ(spec.events[0].count, 3);
  EXPECT_EQ(spec.events[1].kind, TimelineEvent::Kind::kRetire);
  EXPECT_EQ(spec.events[1].every_s, 0.2);
  ASSERT_EQ(spec.arrivals.size(), 1u);
  EXPECT_EQ(spec.arrivals[0].rate_per_s, 12.0);
  EXPECT_EQ(spec.arrivals[0].lifetime_max_s, 0.9);
  EXPECT_NE(find_template(spec, "burst"), nullptr);
  EXPECT_EQ(find_template(spec, "nope"), nullptr);
}

TEST(TimelineParseTest, RejectsUnknownKeysAndBadEvents) {
  EXPECT_THROW(parse_tl(R"({ "typo": 1 })"), workload::SpecError);
  // An event needs exactly one of admit/retire.
  EXPECT_THROW(parse_tl(R"({ "events": [ { "at_s": 1 } ] })"),
               workload::SpecError);
  EXPECT_THROW(
      parse_tl(R"({ "events": [ { "admit": "a", "retire": "b" } ] })"),
      workload::SpecError);
  // Repeating events use from_s, not at_s.
  EXPECT_THROW(
      parse_tl(R"({ "events": [ { "every_s": 1, "at_s": 1, "admit": "a" } ] })"),
      workload::SpecError);
}

TEST(TimelineValidateTest, CatchesSemanticErrors) {
  // Unknown admit target.
  auto spec = parse_tl(R"({ "events": [ { "at_s": 1, "admit": "ghost" } ] })");
  EXPECT_THROW(validate_timeline(spec, "spec.timeline"), workload::SpecError);
  // Duplicate template names.
  spec = parse_tl(R"({ "templates": [ { "name": "a" }, { "name": "a" } ] })");
  EXPECT_THROW(validate_timeline(spec, "spec.timeline"), workload::SpecError);
  // Unknown network.
  spec = parse_tl(R"({ "templates": [ { "name": "a", "network": "gpt5" } ] })");
  EXPECT_THROW(validate_timeline(spec, "spec.timeline"), workload::SpecError);
  // Arrival referencing an unknown template.
  spec = parse_tl(
      R"({ "arrivals": [ { "template": "ghost", "rate_per_s": 1 } ] })");
  EXPECT_THROW(validate_timeline(spec, "spec.timeline"), workload::SpecError);
  // Field paths survive into the error.
  try {
    spec = parse_tl(R"({ "templates": [ { "name": "a", "fps": -1 } ] })");
    validate_timeline(spec, "spec.timeline");
    FAIL() << "expected SpecError";
  } catch (const workload::SpecError& e) {
    EXPECT_EQ(e.path(), "spec.timeline.templates[0].fps");
  }
}

TEST(TimelineValidateTest, OutOfRangeTimesNameTheirField) {
  auto path_of = [](const std::string& json) -> std::string {
    try {
      validate_timeline(parse_tl(json), "spec.timeline");
    } catch (const workload::SpecError& e) {
      return e.path();
    }
    return "(no error)";
  };
  EXPECT_EQ(path_of(R"({ "templates": [ { "name": "a", "fps": 1e-300 } ] })"),
            "spec.timeline.templates[0].fps");
  EXPECT_EQ(path_of(R"({ "templates": [ { "name": "a", "phase_ms": 1e300 } ],
                         "events": [ { "at_s": 1, "admit": "a" } ] })"),
            "spec.timeline.templates[0].phase_ms");
  EXPECT_EQ(path_of(R"({ "templates": [ { "name": "a" } ],
                         "events": [ { "at_s": 1e300, "admit": "a" } ] })"),
            "spec.timeline.events[0].at_s");
  EXPECT_EQ(path_of(R"({ "templates": [ { "name": "a" } ],
                         "events": [ { "every_s": 1e-12, "admit": "a" } ] })"),
            "spec.timeline.events[0].every_s");
  EXPECT_EQ(path_of(R"({ "templates": [ { "name": "a" } ],
                         "arrivals": [ { "template": "a",
                                         "rate_per_s": 1e-300 } ] })"),
            "spec.timeline.arrivals[0].rate_per_s");
}

TEST(FleetPolicyParseTest, FullSectionAndDefaults) {
  const auto spec = parse_fp(R"({
    "series_window_ms": 50,
    "autoscaler": {
      "policy": "headroom", "min_devices": 2, "max_devices": 5,
      "headroom": 0.3, "tick_ms": 25, "warmup_ms": 80, "cooldown_ms": 160,
      "device": "3090"
    },
    "overload": {
      "admission_test": false, "shed": "priority", "queue_limit": 4,
      "fps_scale": 0.5
    }
  })");
  validate_fleet_policy(spec, "spec.fleet_policy");
  EXPECT_EQ(spec.autoscaler.kind, AutoscalePolicyKind::kHeadroom);
  EXPECT_EQ(spec.autoscaler.min_devices, 2);
  EXPECT_EQ(spec.autoscaler.device, "3090");
  EXPECT_FALSE(spec.overload.admission_test);
  EXPECT_EQ(spec.overload.shed, ShedMode::kPriority);
  EXPECT_EQ(spec.overload.queue_limit, 4);
  EXPECT_EQ(spec.overload.fps_scale, 0.5);
  EXPECT_EQ(spec.series_window_ms, 50.0);

  const auto defaults = parse_fp(R"({})");
  validate_fleet_policy(defaults, "spec.fleet_policy");
  EXPECT_EQ(defaults.autoscaler.kind, AutoscalePolicyKind::kNone);
  EXPECT_EQ(defaults.overload.shed, ShedMode::kNone);
  EXPECT_TRUE(defaults.overload.admission_test);
}

TEST(FleetPolicyParseTest, RejectsBadValues) {
  EXPECT_THROW(parse_fp(R"({ "autoscaler": { "policy": "magic" } })"),
               workload::SpecError);
  auto bad_range = parse_fp(
      R"({ "autoscaler": { "policy": "utilization", "min_devices": 3,
           "max_devices": 2 } })");
  EXPECT_THROW(validate_fleet_policy(bad_range, "spec.fleet_policy"),
               workload::SpecError);
  auto bad_tick = parse_fp(
      R"({ "autoscaler": { "policy": "utilization", "tick_ms": 1e-9 } })");
  try {
    validate_fleet_policy(bad_tick, "spec.fleet_policy");
    FAIL() << "expected SpecError";
  } catch (const workload::SpecError& e) {
    EXPECT_EQ(e.path(), "spec.fleet_policy.autoscaler.tick_ms");
  }
  auto bad_scale = parse_fp(R"({ "overload": { "fps_scale": 1.5 } })");
  EXPECT_THROW(validate_fleet_policy(bad_scale, "spec.fleet_policy"),
               workload::SpecError);
  auto bad_device = parse_fp(
      R"({ "autoscaler": { "policy": "utilization", "device": "tpu" } })");
  EXPECT_THROW(validate_fleet_policy(bad_device, "spec.fleet_policy"),
               workload::SpecError);
}

TEST(AutoscalerPolicyTest, UtilizationThresholds) {
  const auto policy = make_autoscaler(AutoscalePolicyKind::kUtilization);
  ASSERT_NE(policy, nullptr);
  AutoscalerConfig cfg;
  cfg.scale_up_threshold = 0.8;
  cfg.scale_down_threshold = 0.3;

  FleetLoad load;
  load.active_devices = 2;
  load.mean_utilization = 0.9;
  EXPECT_EQ(policy->desired_devices(load, cfg), 3);  // above: grow
  load.mean_utilization = 0.5;
  EXPECT_EQ(policy->desired_devices(load, cfg), 2);  // inside band: hold
  load.mean_utilization = 0.2;
  EXPECT_EQ(policy->desired_devices(load, cfg), 1);  // below: shrink
  // A warming device absorbs the overload signal — no double-provision.
  load.mean_utilization = 0.9;
  load.warming_devices = 1;
  EXPECT_EQ(policy->desired_devices(load, cfg), 3);
}

TEST(AutoscalerPolicyTest, HeadroomKeepsSpareCapacity) {
  const auto policy = make_autoscaler(AutoscalePolicyKind::kHeadroom);
  ASSERT_NE(policy, nullptr);
  AutoscalerConfig cfg;
  cfg.headroom = 0.25;

  FleetLoad load;
  load.active_devices = 2;
  load.mean_utilization = 0.85;  // spare 0.15 < 0.25: grow
  EXPECT_EQ(policy->desired_devices(load, cfg), 3);
  // Shrinking from 2 devices at util 0.3 gives util 0.6, spare 0.4 >= 0.25.
  load.mean_utilization = 0.3;
  EXPECT_EQ(policy->desired_devices(load, cfg), 1);
  // util 0.5 would become 1.0 on one device: hold.
  load.mean_utilization = 0.5;
  EXPECT_EQ(policy->desired_devices(load, cfg), 2);
  EXPECT_EQ(make_autoscaler(AutoscalePolicyKind::kNone), nullptr);
}

}  // namespace
}  // namespace sgprs::fleet

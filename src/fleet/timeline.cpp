#include "fleet/timeline.hpp"

#include "dnn/builders.hpp"
#include "workload/spec_util.hpp"

namespace sgprs::fleet {

namespace {

using common::JsonValue;
using namespace workload::specdet;

rt::PriorityPolicy parse_priority(const std::string& s,
                                  const std::string& path) {
  if (s == "last_stage_high") return rt::PriorityPolicy::kLastStageHigh;
  if (s == "all_low") return rt::PriorityPolicy::kAllLow;
  if (s == "all_high") return rt::PriorityPolicy::kAllHigh;
  bad(path, "unknown priority policy \"" + s +
                "\" (want last_stage_high|all_low|all_high)");
}

}  // namespace

StreamTemplate parse_stream_template(const common::JsonValue& v,
                                     const std::string& path) {
  require_object(v, path);
  check_keys(v,
             {"name", "network", "fps", "stages", "deadline_ms", "phase_ms",
              "priority", "arrival", "min_separation_ms",
              "max_separation_ms", "tier", "mem_mb", "warps"},
             path);
  StreamTemplate t;
  t.name = str_or(v, "name", "", path);
  if (t.name.empty()) bad(path + ".name", "template needs a non-empty name");
  t.network = str_or(v, "network", t.network, path);
  t.fps = num_or(v, "fps", t.fps, path);
  t.num_stages = int_or(v, "stages", t.num_stages, path);
  t.deadline_ms = num_or(v, "deadline_ms", t.deadline_ms, path);
  t.phase_ms = num_or(v, "phase_ms", t.phase_ms, path);
  t.priority_policy = parse_priority(
      str_or(v, "priority", "last_stage_high", path), path + ".priority");
  const std::string arrival = str_or(v, "arrival", "periodic", path);
  if (arrival == "periodic") {
    t.arrival = rt::ArrivalModel::kPeriodic;
  } else if (arrival == "sporadic") {
    t.arrival = rt::ArrivalModel::kSporadic;
  } else {
    bad(path + ".arrival",
        "unknown arrival model \"" + arrival + "\" (want periodic|sporadic)");
  }
  t.min_separation_ms = num_or(v, "min_separation_ms", 0.0, path);
  t.max_separation_ms = num_or(v, "max_separation_ms", 0.0, path);
  t.tier = int_or(v, "tier", t.tier, path);
  t.mem_mb = num_or(v, "mem_mb", t.mem_mb, path);
  if (const common::JsonValue* w = v.find("warps")) {
    t.warps = get_field("warps", path, [&] { return w->as_int(); });
  }
  return t;
}

void validate_stream_template(const StreamTemplate& t,
                              const std::string& path) {
  if (t.fps <= 0.0) bad(path + ".fps", "must be > 0");
  checked_period(1.0 / t.fps, path + ".fps");
  if (t.num_stages < 1) bad(path + ".stages", "must be >= 1");
  if (t.deadline_ms < 0.0) bad(path + ".deadline_ms", "must be >= 0");
  if (t.phase_ms < 0.0) bad(path + ".phase_ms", "must be >= 0");
  checked_seconds(t.deadline_ms * 1e-3, path + ".deadline_ms");
  checked_seconds(t.phase_ms * 1e-3, path + ".phase_ms");
  checked_seconds(t.min_separation_ms * 1e-3, path + ".min_separation_ms");
  checked_seconds(t.max_separation_ms * 1e-3, path + ".max_separation_ms");
  if (t.tier < 0) bad(path + ".tier", "must be >= 0");
  if (t.mem_mb < 0.0 && t.mem_mb != -1.0) {
    bad(path + ".mem_mb", "must be >= 0 (or omitted to derive from the "
                          "network)");
  }
  if (t.warps < -1) {
    bad(path + ".warps", "must be >= 0 (or omitted to derive from the "
                         "network)");
  }
  if (!dnn::network_builder_by_name(t.network)) {
    bad(path + ".network", "unknown network \"" + t.network + "\" (want " +
                               dnn::network_names() + ")");
  }
  if (t.arrival == rt::ArrivalModel::kSporadic) {
    if (t.min_separation_ms < 0.0 || t.max_separation_ms < 0.0) {
      bad(path, "separations must be >= 0");
    }
    const double min_ms =
        t.min_separation_ms > 0.0 ? t.min_separation_ms : 1000.0 / t.fps;
    if (t.max_separation_ms > 0.0 && t.max_separation_ms < min_ms) {
      bad(path + ".max_separation_ms",
          "must be >= the (possibly fps-derived) min separation");
    }
  } else if (t.min_separation_ms != 0.0 || t.max_separation_ms != 0.0) {
    bad(path, "separations only apply to arrival=sporadic");
  }
}

namespace {

TimelineEvent parse_event(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, {"at_s", "every_s", "from_s", "until_s", "admit", "retire",
                 "count"},
             path);
  TimelineEvent e;
  const JsonValue* admit = v.find("admit");
  const JsonValue* retire = v.find("retire");
  if ((admit != nullptr) == (retire != nullptr)) {
    bad(path, "an event takes exactly one of \"admit\" or \"retire\"");
  }
  e.kind = admit ? TimelineEvent::Kind::kAdmit : TimelineEvent::Kind::kRetire;
  e.target = get_field(admit ? "admit" : "retire", path, [&] {
    return (admit ? admit : retire)->as_string();
  });
  e.count = int_or(v, "count", e.count, path);
  e.at_s = num_or(v, "at_s", 0.0, path);
  e.every_s = num_or(v, "every_s", 0.0, path);
  e.from_s = num_or(v, "from_s", 0.0, path);
  e.until_s = num_or(v, "until_s", 0.0, path);
  if (e.every_s > 0.0 && v.find("at_s")) {
    bad(path, "a repeating event uses from_s/until_s, not at_s");
  }
  return e;
}

ArrivalProcess parse_arrival(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, {"template", "rate_per_s", "lifetime_s", "from_s", "until_s"},
             path);
  ArrivalProcess a;
  a.tmpl = str_or(v, "template", "", path);
  a.rate_per_s = num_or(v, "rate_per_s", a.rate_per_s, path);
  if (const JsonValue* life = v.find("lifetime_s")) {
    const auto items = get_field("lifetime_s", path,
                                 [&] { return life->items(); });
    if (items.size() != 2) {
      bad(path + ".lifetime_s", "expected [min_s, max_s]");
    }
    a.lifetime_min_s = get_field("lifetime_s", path,
                                 [&] { return items[0].as_number(); });
    a.lifetime_max_s = get_field("lifetime_s", path,
                                 [&] { return items[1].as_number(); });
  }
  a.from_s = num_or(v, "from_s", 0.0, path);
  a.until_s = num_or(v, "until_s", 0.0, path);
  return a;
}

}  // namespace

TimelineSpec parse_timeline(const common::JsonValue& v,
                            const std::string& path) {
  require_object(v, path);
  check_keys(v, {"seed", "templates", "events", "arrivals", "trace"}, path);
  TimelineSpec spec;
  spec.seed = seed_or(v, "seed", spec.seed, path);
  spec.trace_path = str_or(v, "trace", "", path);
  if (v.find("trace") && spec.trace_path.empty()) {
    bad(path + ".trace", "trace path must be non-empty");
  }
  if (const JsonValue* templates = v.find("templates")) {
    const auto& items = get_field("templates", path,
                                  [&] { return templates->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      spec.templates.push_back(parse_stream_template(
          items[i], path + ".templates[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* events = v.find("events")) {
    const auto& items = get_field("events", path,
                                  [&] { return events->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      spec.events.push_back(parse_event(
          items[i], path + ".events[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* arrivals = v.find("arrivals")) {
    const auto& items = get_field("arrivals", path,
                                  [&] { return arrivals->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      spec.arrivals.push_back(parse_arrival(
          items[i], path + ".arrivals[" + std::to_string(i) + "]"));
    }
  }
  return spec;
}

const StreamTemplate* find_template(const TimelineSpec& spec,
                                    const std::string& name) {
  for (const auto& t : spec.templates) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

void validate_timeline(const TimelineSpec& spec, const std::string& path) {
  if ((!spec.trace_path.empty() || spec.trace != nullptr) &&
      (!spec.templates.empty() || !spec.events.empty() ||
       !spec.arrivals.empty())) {
    bad(path + ".trace",
        "a trace-driven timeline replaces templates/events/arrivals; "
        "remove the other sections");
  }
  for (std::size_t i = 0; i < spec.templates.size(); ++i) {
    const auto& t = spec.templates[i];
    const std::string p = path + ".templates[" + std::to_string(i) + "]";
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.templates[j].name == t.name) {
        bad(p + ".name", "duplicate template \"" + t.name + "\"");
      }
    }
    validate_stream_template(t, p);
  }

  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const auto& e = spec.events[i];
    const std::string p = path + ".events[" + std::to_string(i) + "]";
    if (e.count < 1) bad(p + ".count", "must be >= 1");
    if (e.at_s < 0.0 || e.from_s < 0.0 || e.until_s < 0.0 || e.every_s < 0.0) {
      bad(p, "times must be >= 0");
    }
    checked_seconds(e.at_s, p + ".at_s");
    checked_seconds(e.from_s, p + ".from_s");
    checked_seconds(e.until_s, p + ".until_s");
    if (e.every_s > 0.0) checked_period(e.every_s, p + ".every_s");
    if (e.every_s > 0.0 && e.until_s > 0.0 && e.until_s < e.from_s) {
      bad(p + ".until_s", "must be >= from_s");
    }
    // Admissions must name a template; retirements may also name a stream
    // prefix, but an exact template match is checked when one exists.
    if (e.kind == TimelineEvent::Kind::kAdmit &&
        !find_template(spec, e.target)) {
      bad(p + ".admit", "unknown template \"" + e.target + "\"");
    }
  }

  for (std::size_t i = 0; i < spec.arrivals.size(); ++i) {
    const auto& a = spec.arrivals[i];
    const std::string p = path + ".arrivals[" + std::to_string(i) + "]";
    if (!find_template(spec, a.tmpl)) {
      bad(p + ".template", "unknown template \"" + a.tmpl + "\"");
    }
    if (a.rate_per_s <= 0.0) bad(p + ".rate_per_s", "must be > 0");
    checked_period(1.0 / a.rate_per_s, p + ".rate_per_s");
    if (a.lifetime_min_s < 0.0 || a.lifetime_max_s < a.lifetime_min_s) {
      bad(p + ".lifetime_s", "needs 0 <= min_s <= max_s");
    }
    checked_seconds(a.lifetime_max_s, p + ".lifetime_s");
    if (a.from_s < 0.0 || a.until_s < 0.0) bad(p, "times must be >= 0");
    checked_seconds(a.from_s, p + ".from_s");
    checked_seconds(a.until_s, p + ".until_s");
    if (a.until_s > 0.0 && a.until_s < a.from_s) {
      bad(p + ".until_s", "must be >= from_s");
    }
  }
}

}  // namespace sgprs::fleet

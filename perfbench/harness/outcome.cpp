#include "outcome.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

class Fnv1a {
 public:
  void add(std::int64_t v) { bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  /// `v` as the reports print it: 9 significant digits.
  void add_rounded(double v) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.9g", v);
    bytes(buf, static_cast<std::size_t>(n));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

double Outcome::deadline_met_ratio() const {
  return closed() == 0 ? 0.0
                       : static_cast<double>(on_time) /
                             static_cast<double>(closed());
}

double Outcome::on_time_fps() const {
  return horizon_s > 0.0 ? static_cast<double>(on_time) / horizon_s : 0.0;
}

double Outcome::stream_admit_ratio() const {
  const std::int64_t offered = streams_admitted + streams_rejected;
  return offered == 0 ? 0.0
                      : static_cast<double>(streams_admitted) /
                            static_cast<double>(offered);
}

Outcome summarize(const sgprs::workload::ScenarioSpec& spec,
                  const sgprs::workload::SpecResult& result) {
  const sgprs::metrics::Snapshot& agg = result.aggregate();
  Outcome o;
  o.released = result.releases();
  o.on_time = agg.counts.on_time;
  o.late = agg.counts.late;
  o.dropped = agg.counts.dropped;
  o.stage_migrations = result.migrations();
  o.horizon_s = (spec.base.duration - spec.base.warmup).to_sec();
  o.mean_ms = agg.mean_latency_ms;
  o.p50_ms = agg.p50_latency_ms;
  o.p99_ms = agg.p99_latency_ms;
  o.latency_samples = agg.latency_hist_ms.count();
  if (result.dynamic) {
    const auto& d = result.dyn;
    o.shed = d.jobs_shed;
    o.faulted = d.jobs_faulted;
    o.streams_admitted = d.streams_admitted;
    o.streams_rejected = d.streams_rejected;
    o.sim_events = d.sim_events;
  } else {
    o.streams_admitted = sgprs::workload::lower(spec).num_tasks;
    o.sim_events = result.single.sim_events;
  }
  o.in_flight = o.released - o.closed();

  Fnv1a h, rounded;
  for (std::int64_t v :
       {o.released, o.on_time, o.late, o.dropped, o.shed, o.faulted,
        o.streams_admitted, o.streams_rejected, o.stage_migrations,
        o.latency_samples}) {
    h.add(v);
    rounded.add(v);
  }
  for (double v : {o.sim_events, o.mean_ms, o.p50_ms, o.p99_ms,
                   agg.max_latency_ms}) {
    h.add(v);
    rounded.add_rounded(v);
  }
  o.digest = h.hex();
  o.report_digest = rounded.hex();

  auto fail = [&o](const std::string& what) { o.problems.push_back(what); };
  if (spec.base.warmup.ns != 0) fail("spec has a warm-up window");
  // The collector counts every release it saw; with no warm-up that must
  // be exactly the runner's release count.
  if (agg.counts.released != o.released) {
    fail("collector saw " + std::to_string(agg.counts.released) +
         " releases, runner issued " + std::to_string(o.released));
  }
  // Each stream holds at most max_in_flight jobs, plus one draining on a
  // device it just left (failover, drain, retire).
  const std::int64_t in_flight_cap =
      o.streams_admitted * (spec.base.sgprs.max_in_flight_per_task + 1);
  if (o.in_flight < 0 || o.in_flight > in_flight_cap) {
    fail("frame accounting open: released " + std::to_string(o.released) +
         " != on_time + late + dropped + faulted (" +
         std::to_string(o.closed()) + ") + in-flight within [0, " +
         std::to_string(in_flight_cap) + "]");
  }
  if (o.shed > o.dropped) fail("more sheds than drops");
  if (o.latency_samples != o.on_time + o.late) {
    fail("latency samples != completed frames");
  }
  // p99 needs at least 100 samples beyond it.
  if (o.latency_samples < 10000) fail("fewer than 10k frames completed");
  return o;
}

}  // namespace perfbench

#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/instruments.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "probes.hpp"
#include "timing.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace wl = sgprs::workload;
using sgprs::obs::PhaseProfiler;

namespace {

/// Frames the rig simulates: enough for steady per-frame costs, few
/// enough that its captured kernel stream stays small.
constexpr int kRigFrames = 2000;
/// Caps on the standalone replays, in frames / events.
constexpr std::int64_t kCollectorFrames = 500000;
constexpr std::int64_t kEngineEvents = 3000000;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean streams live over an open-world run (its windowed series).
double mean_live_streams(const sgprs::fleet::FleetRunResult& r) {
  double sum = 0.0;
  for (const auto& s : r.series.samples) sum += s.streams_live;
  return r.series.samples.empty() ? 0.0 : sum / r.series.samples.size();
}

double stat_ms(const PhaseProfiler& p, PhaseProfiler::Phase phase) {
  return 1e3 * p.stat(phase).total_s;
}

}  // namespace

Result trace_layers(const std::string& spec_path) {
  std::vector<Metric> m;
  auto add = [&m](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };

  // workload: spec load + validate, median of several.
  std::vector<double> loads;
  wl::ScenarioSpec spec;
  for (int i = 0; i < 7; ++i) {
    double s = 0.0;
    spec = load_spec(spec_path, &s);
    loads.push_back(1e3 * s);
  }

  // Tracing overhead: three untraced and three traced runs, ABBAAB.
  // A traced run attaches the admission capture, spans and the phase
  // profiler wherever the run path takes them; it must not change a
  // result.
  std::vector<double> plain_fps, traced_fps;
  Outcome outcome;
  sgprs::trace::TraceRecorder capture;
  wl::SpecResult traced;
  double plain_setup_s = 0.0;
  for (int i = 0; i < 6; ++i) {
    if ((i + 1) / 2 % 2 == 0) {  // order: plain, traced, traced, plain, ...
      const Rep plain = run_rep(spec_path);
      if (plain_fps.empty()) {
        outcome = plain.outcome;
      } else if (plain.outcome.digest != outcome.digest) {
        outcome.problems.push_back("repetitions disagree");
      }
      plain_setup_s = plain.setup_in_run_s;
      plain_fps.push_back(plain.outcome.released / plain.run_phase_s);
      continue;
    }
    capture = sgprs::trace::TraceRecorder();
    sgprs::obs::SpanSink spans;
    PhaseProfiler prof;
    sgprs::obs::Instruments inst;
    inst.profiler = &prof;
    if (spec.dynamic()) inst.spans = &spans;
    const auto t0 = Clock::now();
    traced = wl::run_spec(spec, wl::RunSeeds{spec.base.seed, 0}, &capture,
                          inst);
    // Closed-world runs have no set-up phase timer: reuse the untraced
    // run's set-up.
    const double run_s =
        seconds_since(t0) -
        (spec.dynamic() ? prof.stat(PhaseProfiler::Phase::kSetup).total_s
                        : plain_setup_s);
    traced_fps.push_back(traced.releases() / run_s);
  }
  if (summarize(spec, traced).digest != outcome.digest) {
    outcome.problems.push_back("tracing changed the run's statistics");
  }
  std::fprintf(stderr,
               "trace overhead: %lld frames per run; untraced median %.1f "
               "frames/s, traced median %.1f frames/s over 3 runs each "
               "(%+.2f%%)\n",
               static_cast<long long>(outcome.released), median(plain_fps),
               median(traced_fps),
               100.0 * (median(plain_fps) / median(traced_fps) - 1.0));

  // dnn: the run's build_task calls, replayed.
  const BuildCosts build = measure_build_task(spec);

  // sim / gpu / rt: the one-device rig and its replay.
  const RigCosts rig = measure_rig(spec, kRigFrames);
  const double streams =
      spec.dynamic() ? mean_live_streams(traced.dyn)
                     : static_cast<double>(wl::lower(spec).num_tasks);
  const std::int64_t workload_pending = std::llround(
      std::max(1.0, rig.mean_pending / rig.streams * streams));
  const double engine_ns = engine_ns_per_event(
      std::min<std::int64_t>(kEngineEvents,
                             std::llround(outcome.sim_events)),
      workload_pending);

  // metrics: collector replays at the workload's task and device counts.
  const int tasks = static_cast<int>(outcome.streams_admitted);
  const int devices = spec.dynamic() ? traced.dyn.peak_devices : 1;
  const std::int64_t frames =
      std::min<std::int64_t>(kCollectorFrames, outcome.released);
  const double lo_ms = 0.5 * outcome.p50_ms;
  const double hi_ms = outcome.p99_ms;

  add("workload.load_spec_ms", median(loads), "ms");
  add("dnn.build_task_us", build.mean_us, "us");
  add("dnn.build_task_calls", static_cast<double>(build.calls), "count");
  add("sim.events_per_frame", ratio(outcome.sim_events, outcome.released),
      "count/frame");
  add("sim.engine_ns_per_event", engine_ns, "ns");
  add("gpu.kernels_per_frame",
      ratio(static_cast<double>(rig.kernels), rig.frames), "count/frame");
  add("gpu.executor_ns_per_kernel", rig.executor_ns_per_kernel, "ns");
  add("rt.release_job_ns", rig.release_job_ns, "ns");
  add("rt.self_ns_per_frame", rig.rt_self_ns_per_frame, "ns");
  add("rt.stage_migrations_per_frame",
      ratio(static_cast<double>(outcome.stage_migrations), outcome.released),
      "count/frame");
  add("metrics.collector_ns_per_frame",
      collector_ns_per_frame(tasks, frames, lo_ms, hi_ms), "ns");
  add("metrics.reduce_ms",
      collector_reduce_ms(devices, tasks, frames, lo_ms, hi_ms), "ms");

  // cluster and fleet exist only on the open-world path; a closed-world
  // workload reports 0 for them (the layer does no work there).
  PlacerCosts placer;
  PhaseProfiler sharded_prof;
  double report_ms = 0.0;
  std::int64_t decisions = 0;
  if (spec.dynamic()) {
    placer = replay_placer(spec, capture.trace(), traced.dyn);
    const std::int64_t run_attempts =
        traced.dyn.streams_admitted + traced.dyn.streams_rejected;
    if (placer.attempts != run_attempts ||
        placer.rejected != traced.dyn.streams_rejected) {
      outcome.problems.push_back(
          "placer replay rejected " + std::to_string(placer.rejected) +
          " of " + std::to_string(placer.attempts) + " streams, the run " +
          std::to_string(traced.dyn.streams_rejected) + " of " +
          std::to_string(run_attempts));
    }
    std::ostringstream report;
    const auto t1 = Clock::now();
    sgprs::fleet::write_fleet_run_json(traced.dyn, report);
    report_ms = 1e3 * seconds_since(t1);
    // Two shards separate control-plane time from device time. The run
    // must give the one-shard statistics at report precision (see
    // Outcome::report_digest).
    wl::ScenarioSpec sharded = spec;
    sharded.base.shards = 2;
    sgprs::obs::Instruments sinst;
    sinst.profiler = &sharded_prof;
    const wl::SpecResult r = wl::run_spec(
        sharded, wl::RunSeeds{spec.base.seed, 0}, nullptr, sinst);
    if (summarize(sharded, r).report_digest != outcome.report_digest) {
      outcome.problems.push_back("2 shards changed the run's statistics");
    }
    decisions = static_cast<std::int64_t>(r.dyn.decisions.size()) +
                r.dyn.truncated_decisions;
  }
  add("cluster.place_us", placer.place_us, "us");
  add("cluster.place_batch_us", placer.place_batch_us, "us");
  add("cluster.reject_ratio",
      spec.dynamic()
          ? ratio(static_cast<double>(traced.dyn.streams_rejected),
                  static_cast<double>(traced.dyn.streams_admitted +
                                      traced.dyn.streams_rejected))
          : 0.0,
      "ratio");
  add("fleet.setup_ms", stat_ms(sharded_prof, PhaseProfiler::Phase::kSetup),
      "ms");
  add("fleet.control_ms",
      stat_ms(sharded_prof, PhaseProfiler::Phase::kControlPhase), "ms");
  add("fleet.placer_batch_ms",
      stat_ms(sharded_prof, PhaseProfiler::Phase::kPlacerBatch), "ms");
  add("fleet.decisions", static_cast<double>(decisions), "count");
  add("fleet.collector_reduce_ms",
      stat_ms(sharded_prof, PhaseProfiler::Phase::kCollectorReduce), "ms");
  add("fleet.report_write_ms", report_ms, "ms");
  add("trace.untraced_frames_per_s", median(plain_fps), "1/s");
  add("trace.traced_frames_per_s", median(traced_fps), "1/s");

  std::fprintf(stderr,
               "bases: %lld frames released; rig %lld frames, %lld "
               "kernels, %lld release_job calls in %.4f s, replay %lld "
               "events in %.4f s; "
               "engine hold at %lld pending; build_task %lld calls; "
               "placer %lld place_ex calls (%lld admissions, %lld "
               "rejected), %lld batches\n",
               static_cast<long long>(outcome.released),
               static_cast<long long>(rig.frames),
               static_cast<long long>(rig.kernels),
               static_cast<long long>(rig.release_calls), rig.rig_s,
               static_cast<long long>(rig.replay_events), rig.replay_s,
               static_cast<long long>(workload_pending),
               static_cast<long long>(build.calls),
               static_cast<long long>(placer.place_calls),
               static_cast<long long>(placer.attempts),
               static_cast<long long>(placer.rejected),
               static_cast<long long>(placer.batches));

  Result res;
  res.attempted = outcome.released;
  res.outcome = std::move(outcome);
  res.metrics = std::move(m);
  return res;
}

}  // namespace perfbench

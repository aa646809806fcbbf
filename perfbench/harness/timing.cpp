#include "timing.hpp"

#include <fstream>
#include <stdexcept>

#include "common/time.hpp"
#include "obs/instruments.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

namespace wl = sgprs::workload;
using sgprs::obs::PhaseProfiler;

wl::ScenarioSpec load_spec(const std::string& path, double* load_s) {
  const auto t0 = Clock::now();
  wl::ScenarioSpec spec = wl::load_scenario_spec(path);
  wl::validate(spec);
  *load_s = seconds_since(t0);
  return spec;
}

namespace {

/// Set-up probes per closed-world repetition.
constexpr int kSetupProbes = 3;

/// Set-up seconds of a closed-world spec: one run_spec call cut to its
/// first simulated instant (horizon 1 ns), timed whole, since the
/// closed-world path has no phase timer. Every task's first release
/// moves to t = 0 because the closed-world collector reports per task and
/// each must release once; task building does not depend on phases.
double setup_probe_s(const wl::ScenarioSpec& spec) {
  wl::ScenarioSpec cut = spec;
  cut.base.duration = sgprs::common::SimTime{1};
  for (auto& e : cut.tasks) e.phase_ms = 0.0;
  const auto t0 = Clock::now();
  const wl::SpecResult r = wl::run_spec(cut, wl::RunSeeds{cut.base.seed, 0});
  const double wall = seconds_since(t0);
  if (r.releases() != wl::lower(cut).num_tasks) {
    throw std::runtime_error("set-up probe released " +
                             std::to_string(r.releases()) + " frames");
  }
  return wall;
}

/// Peak resident set of this process in MiB. VmHWM, not getrusage's
/// ru_maxrss: the latter survives exec, so it can report the parent
/// process's size instead of this one's.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 20, '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace

Rep run_rep(const std::string& spec_path) {
  Rep rep;
  double load_s = 0.0;
  const wl::ScenarioSpec spec = load_spec(spec_path, &load_s);
  std::vector<double> probes;
  if (!spec.dynamic()) {
    for (int i = 0; i < kSetupProbes; ++i) {
      probes.push_back(setup_probe_s(spec));
    }
  }

  PhaseProfiler prof;
  sgprs::obs::Instruments inst;
  if (spec.dynamic()) inst.profiler = &prof;
  const auto t0 = Clock::now();
  const wl::SpecResult r =
      wl::run_spec(spec, wl::RunSeeds{spec.base.seed, 0}, nullptr, inst);
  const double wall = seconds_since(t0);
  rep.setup_in_run_s =
      spec.dynamic() ? prof.stat(PhaseProfiler::Phase::kSetup).total_s
                     : median(probes);
  if (spec.dynamic()) probes.push_back(rep.setup_in_run_s);
  for (double p : probes) rep.setup_s.push_back(load_s + p);
  rep.run_phase_s = wall - rep.setup_in_run_s;
  rep.outcome = summarize(spec, r);
  return rep;
}

Result end_to_end(const std::vector<Rep>& reps) {
  Result res;
  std::vector<double> fps, setup;
  for (const Rep& r : reps) {
    fps.push_back(static_cast<double>(r.outcome.released) / r.run_phase_s);
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    res.attempted += r.outcome.released;
  }
  const Outcome& o = reps.front().outcome;
  res.outcome = o;
  res.metrics = {
      {"frames_per_s", median(fps), "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"deadline_met_ratio", o.deadline_met_ratio(), "ratio"},
      {"on_time_fps", o.on_time_fps(), "1/s"},
      {"latency_mean_ms", o.mean_ms, "ms"},
      {"latency_p99_ms", o.p99_ms, "ms"},
      {"stream_admit_ratio", o.stream_admit_ratio(), "ratio"},
  };
  return res;
}

}  // namespace perfbench

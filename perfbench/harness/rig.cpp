// sim, gpu and rt probes: the closed-world rig, its kernel-stream replay
// and the standalone engine hold run.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "gpu/context_pool.hpp"
#include "gpu/executor.hpp"
#include "gpu/trace.hpp"
#include "metrics/collector.hpp"
#include "probes.hpp"
#include "rt/runner.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "sim/engine.hpp"
#include "report.hpp"
#include "timing.hpp"

namespace perfbench {

namespace wl = sgprs::workload;
using sgprs::common::SimTime;

namespace {

/// Counts kernels; capture passes also record the kernel stream as
/// chains: kernels a stream ran back to back (each starting the instant
/// its predecessor ended) were queued together, so the replay enqueues
/// each chain as one batch at its first start.
class KernelSink final : public sgprs::gpu::TraceSink {
 public:
  struct Chain {
    SimTime t;
    int stream;
    std::vector<sgprs::gpu::KernelDesc> kernels;
  };

  KernelSink(const sgprs::sim::Engine& engine, bool capture)
      : engine_(engine), capture_(capture) {}

  void on_kernel_start(SimTime t, int, int stream,
                       const sgprs::gpu::KernelDesc& k) override {
    ++kernels;
    if (!capture_) return;
    pending_sum += static_cast<double>(engine_.pending_count());
    if (stream >= static_cast<int>(open_.size())) {
      open_.resize(stream + 1, Open{});
    }
    Open& o = open_[stream];
    if (o.chain < 0 || o.last_end != t) {
      o.chain = static_cast<std::int64_t>(chains.size());
      chains.push_back(Chain{t, stream, {}});
    }
    chains[o.chain].kernels.push_back(k);
  }
  void on_kernel_end(SimTime t, int, int stream,
                     const sgprs::gpu::KernelDesc&) override {
    if (capture_) open_[stream].last_end = t;
  }

  std::int64_t kernels = 0;
  std::vector<Chain> chains;
  double pending_sum = 0.0;

 private:
  struct Open {
    std::int64_t chain = -1;
    SimTime last_end;
  };
  const sgprs::sim::Engine& engine_;
  bool capture_;
  std::vector<Open> open_;
};

/// Times every release_job call of the scheduler it wraps.
class TimedScheduler final : public sgprs::rt::Scheduler {
 public:
  explicit TimedScheduler(sgprs::rt::Scheduler& inner) : inner_(inner) {}

  void admit(const sgprs::rt::Task& task) override { inner_.admit(task); }
  void release_job(const sgprs::rt::Task& task, SimTime now) override {
    const auto t0 = Clock::now();
    inner_.release_job(task, now);
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ++calls;
  }
  int jobs_in_flight() const override { return inner_.jobs_in_flight(); }
  int abort_in_flight() override { return inner_.abort_in_flight(); }
  std::string name() const override { return inner_.name(); }
  const Scheduler* unwrap() const override { return inner_.unwrap(); }

  double ns = 0.0;
  std::int64_t calls = 0;

 private:
  sgprs::rt::Scheduler& inner_;
};

/// The closed-world spec one rig device runs. Closed-world specs run as
/// they are; open-world ones contribute one device's share of their
/// initial entries plus one stream per timeline template.
wl::ScenarioSpec rig_spec_for(const wl::ScenarioSpec& spec) {
  if (!spec.dynamic()) return spec;
  wl::ScenarioSpec rig;
  rig.name = spec.name + "_rig";
  rig.base = spec.base;
  rig.base.num_devices = 1;
  rig.base.fleet.clear();
  const int devices = std::max(1, spec.base.num_devices);
  for (auto e : spec.tasks) {
    e.count = (e.count + devices - 1) / devices;
    rig.tasks.push_back(e);
  }
  if (spec.timeline) {
    for (const auto& t : spec.timeline->templates) {
      wl::TaskEntrySpec e;
      e.name = t.name;
      e.network = t.network;
      e.fps = t.fps;
      e.num_stages = t.num_stages;
      e.deadline_ms = t.deadline_ms;
      e.priority_policy = t.priority_policy;
      rig.tasks.push_back(e);
    }
  }
  wl::validate(rig);
  return rig;
}

/// What one pass of the rig observed.
struct RigPass {
  std::int64_t frames = 0;
  double wall_s = 0.0;  // Runner::run
  std::int64_t kernels = 0;
  std::int64_t release_calls = 0;
  double release_ns = 0.0;  // summed over release_calls
  std::vector<KernelSink::Chain> chains;  // capture passes only
  double pending_sum = 0.0;
};

RigPass run_rig_once(const wl::ScenarioSpec& rig, double horizon_s,
                     bool capture) {
  const wl::ScenarioConfig cfg = wl::lower(rig);
  if (cfg.scheduler != sgprs::rt::SchedulerKind::kSgprs) {
    throw std::runtime_error("the rig models the sgprs scheduler only");
  }
  sgprs::sim::Engine engine;
  sgprs::gpu::Executor exec(engine, cfg.device,
                            sgprs::gpu::SpeedupModel::rtx2080ti(),
                            cfg.sharing);
  sgprs::gpu::ContextPool pool(exec, wl::pool_config_for(cfg));
  std::vector<int> pool_sizes;
  for (const auto& pc : pool.contexts()) {
    if (std::find(pool_sizes.begin(), pool_sizes.end(), pc.sm_limit) ==
        pool_sizes.end()) {
      pool_sizes.push_back(pc.sm_limit);
    }
  }
  const std::vector<sgprs::rt::Task> tasks =
      wl::task_builder_for(rig)(cfg, pool_sizes);
  sgprs::metrics::Collector collector(SimTime::zero());
  sgprs::rt::SgprsScheduler inner(exec, pool, collector, cfg.sgprs);
  TimedScheduler timed(inner);
  KernelSink sink(engine, capture);
  exec.set_trace_sink(&sink);
  sgprs::rt::RunnerConfig rcfg;
  rcfg.duration = SimTime::from_sec(horizon_s);
  rcfg.jitter_seed = cfg.seed;
  sgprs::rt::Runner runner(engine, timed, tasks, rcfg);
  const auto t0 = Clock::now();
  runner.run();
  RigPass pass;
  pass.wall_s = seconds_since(t0);
  exec.set_trace_sink(nullptr);
  pass.frames = runner.releases_issued();
  pass.kernels = sink.kernels;
  pass.release_calls = timed.calls;
  pass.release_ns = timed.ns;
  pass.chains = std::move(sink.chains);
  pass.pending_sum = sink.pending_sum;
  return pass;
}

/// Re-issues captured kernel chains on a fresh engine + executor with
/// the same pool: one feeder event per distinct chain start moves that
/// instant's chains into the executor as batches with no-op completions.
struct Replay {
  std::vector<KernelSink::Chain>* chains;
  sgprs::sim::Engine* engine;
  sgprs::gpu::Executor* exec;
  std::size_t next = 0;

  void feed() {
    const SimTime t = (*chains)[next].t;
    while (next < chains->size() && (*chains)[next].t == t) {
      auto& c = (*chains)[next++];
      exec->enqueue_batch(c.stream, std::move(c.kernels), [](SimTime) {});
    }
    if (next < chains->size()) {
      engine->schedule_at((*chains)[next].t, [this] { feed(); });
    }
  }
};

struct ReplayRun {
  double wall_s = 0.0;
  std::int64_t events = 0;
};

/// `chains` is taken by value: the copy is made before the clock starts.
ReplayRun replay_once(const wl::ScenarioSpec& rig,
                      std::vector<KernelSink::Chain> chains) {
  const wl::ScenarioConfig cfg = wl::lower(rig);
  sgprs::sim::Engine engine;
  sgprs::gpu::Executor exec(engine, cfg.device,
                            sgprs::gpu::SpeedupModel::rtx2080ti(),
                            cfg.sharing);
  sgprs::gpu::ContextPool pool(exec, wl::pool_config_for(cfg));
  Replay replay{&chains, &engine, &exec};
  engine.schedule_at(chains.front().t, [&replay] { replay.feed(); });
  const auto t0 = Clock::now();
  engine.run();
  return ReplayRun{seconds_since(t0),
                   static_cast<std::int64_t>(engine.processed_count())};
}

/// Timed rig passes, each paired with a replay, per measurement.
constexpr int kRigRounds = 9;

}  // namespace

RigCosts measure_rig(const wl::ScenarioSpec& spec, int frames) {
  const wl::ScenarioSpec rig = rig_spec_for(spec);
  RigCosts c;
  double fps = 0.0;
  for (const auto& e : rig.tasks) {
    fps += e.count * e.fps;
    c.streams += e.count;
  }
  const double horizon_s = frames / fps;

  // An untimed capture pass records the kernel stream; then rounds of a
  // timed rig pass (counting sink) next to a replay. Each round gives one
  // sample of every cost, so host drift between rounds cancels out of the
  // differences; medians over the rounds.
  const RigPass cap = run_rig_once(rig, horizon_s, true);
  if (cap.chains.empty()) throw std::runtime_error("the rig ran no kernels");
  c.frames = cap.frames;
  c.kernels = cap.kernels;
  c.release_calls = cap.release_calls;
  c.mean_pending = cap.pending_sum / static_cast<double>(cap.kernels);
  std::vector<double> rig_s, replay_s, release_ns, executor_ns, self_ns;
  for (int i = 0; i < kRigRounds; ++i) {
    const RigPass timed = run_rig_once(rig, horizon_s, false);
    if (timed.kernels != c.kernels || timed.frames != c.frames) {
      throw std::runtime_error("rig passes disagree");
    }
    const ReplayRun replay = replay_once(rig, cap.chains);
    c.replay_events = replay.events;
    // The replay calendar holds the feeder and the executor's completion
    // event: price its engine share with a hold run of that size.
    const double engine_s =
        1e-9 * engine_ns_per_event(replay.events, 2) * replay.events;
    rig_s.push_back(timed.wall_s);
    replay_s.push_back(replay.wall_s);
    release_ns.push_back(timed.release_ns / timed.release_calls);
    executor_ns.push_back(1e9 * (replay.wall_s - engine_s) / c.kernels);
    self_ns.push_back(1e9 * (timed.wall_s - replay.wall_s) / c.frames);
  }
  c.rig_s = median(rig_s);
  c.replay_s = median(replay_s);
  c.release_job_ns = median(release_ns);
  c.executor_ns_per_kernel = median(executor_ns);
  c.rt_self_ns_per_frame = median(self_ns);
  return c;
}

namespace {

struct Hold {
  sgprs::sim::Engine engine;
  sgprs::common::Rng rng{0x5eed};
  std::int64_t left = 0;
  std::int64_t span_ns = 0;

  void fire() {
    if (left <= 0) return;
    --left;
    const SimTime dt{static_cast<std::int64_t>(
        rng.uniform_int(1, span_ns))};
    engine.schedule_after(dt, [this] { fire(); });
  }
};

}  // namespace

double engine_ns_per_event(std::int64_t events, std::int64_t pending) {
  pending = std::max<std::int64_t>(1, pending);
  auto hold = std::make_unique<Hold>();
  hold->left = events;
  hold->span_ns = 2 * 1000 * pending;  // mean gap 1 us per pending event
  for (std::int64_t i = 0; i < pending; ++i) {
    hold->engine.schedule_at(
        SimTime{hold->rng.uniform_int(0, hold->span_ns)},
        [h = hold.get()] { h->fire(); });
  }
  const auto t0 = Clock::now();
  hold->engine.run();
  const double s = seconds_since(t0);
  return 1e9 * s / static_cast<double>(hold->engine.processed_count());
}

}  // namespace perfbench

// metrics, dnn and cluster probes: collector replays, the build_task
// replay and the placer replay of a captured admission stream.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "dnn/builders.hpp"
#include "dnn/profiler.hpp"
#include "metrics/collector.hpp"
#include "probes.hpp"
#include "sim/engine.hpp"
#include "report.hpp"
#include "timing.hpp"

namespace perfbench {

namespace wl = sgprs::workload;
using sgprs::common::SimTime;

namespace {

/// Frame f of a replay: task f % tasks, released every 100 us, with a
/// latency drawn once into a table.
struct FrameFeed {
  FrameFeed(double lo_ms, double hi_ms) {
    sgprs::common::Rng rng(0xfeed);
    for (auto& l : latency) {
      l = SimTime::from_ms(rng.uniform(lo_ms, hi_ms));
    }
  }
  void feed(sgprs::metrics::Collector& c, int task, std::int64_t f) const {
    const SimTime release{f * 100000};
    c.on_release(task, release);
    c.on_complete(task, release, release + deadline,
                  release + latency[f % latency.size()]);
  }
  std::array<SimTime, 4096> latency;
  SimTime deadline = SimTime::from_ms(33.3);
};

}  // namespace

double collector_ns_per_frame(int tasks, std::int64_t frames, double lo_ms,
                              double hi_ms) {
  const FrameFeed feed(lo_ms, hi_ms);
  sgprs::metrics::Collector c(SimTime::zero());
  const auto t0 = Clock::now();
  for (std::int64_t f = 0; f < frames; ++f) {
    feed.feed(c, static_cast<int>(f % tasks), f);
  }
  return 1e9 * seconds_since(t0) / static_cast<double>(frames);
}

double collector_reduce_ms(int devices, int tasks, std::int64_t frames,
                           double lo_ms, double hi_ms) {
  const FrameFeed feed(lo_ms, hi_ms);
  std::vector<sgprs::metrics::Collector> per_device(
      devices, sgprs::metrics::Collector(SimTime::zero()));
  for (std::int64_t f = 0; f < frames; ++f) {
    const int task = static_cast<int>(f % tasks);
    feed.feed(per_device[task % devices], task, f);
  }
  const SimTime end{frames * 100000 + 1};
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    sgprs::metrics::Collector all(SimTime::zero());
    for (const auto& c : per_device) all.merge_from(c);
    const sgprs::metrics::Snapshot s = all.aggregate(end);
    ms.push_back(1e3 * seconds_since(t0));
    if (s.counts.released != frames) {
      throw std::runtime_error("collector reduction lost frames");
    }
  }
  return median(ms);
}

namespace {

std::vector<int> pool_sizes_for(const wl::ScenarioConfig& cfg) {
  return sgprs::cluster::pool_sm_sizes_for(cfg.device,
                                           wl::pool_config_for(cfg),
                                           cfg.sharing);
}

/// A template's prototype task, built the way the fleet runtime builds it
/// (periodic templates only: the benchmark's workloads use no others).
sgprs::rt::Task build_prototype(
    const sgprs::fleet::StreamTemplate& t, double fps_scale,
    const sgprs::dnn::Profiler& profiler, const std::vector<int>& pool_sizes,
    std::map<std::string, std::shared_ptr<const sgprs::dnn::Network>>&
        networks) {
  auto it = networks.find(t.network);
  if (it == networks.end()) {
    it = networks
             .emplace(t.network,
                      std::make_shared<const sgprs::dnn::Network>(
                          sgprs::dnn::network_builder_by_name(t.network)()))
             .first;
  }
  sgprs::rt::TaskConfig tc;
  tc.fps = t.fps * fps_scale;
  tc.num_stages = t.num_stages;
  tc.priority_policy = t.priority_policy;
  if (t.deadline_ms > 0.0) tc.deadline = SimTime::from_ms(t.deadline_ms);
  return sgprs::rt::build_task(0, it->second, tc, profiler, pool_sizes);
}

double fps_scale_of(const wl::ScenarioSpec& spec) {
  return spec.fleet_policy ? spec.fleet_policy->overload.fps_scale : 1.0;
}

}  // namespace

BuildCosts measure_build_task(const wl::ScenarioSpec& spec) {
  wl::ScenarioConfig cfg = wl::lower(spec);
  const std::vector<int> pool_sizes = pool_sizes_for(cfg);
  // Initial tasks: the spec's own task builder, one build_task per task.
  BuildCosts b;
  const auto t0 = Clock::now();
  const std::vector<sgprs::rt::Task> initial =
      wl::task_builder_for(spec)(cfg, pool_sizes);
  double total_s = seconds_since(t0);
  b.calls = static_cast<std::int64_t>(initial.size());
  // Prototypes: one per template, plus a downgraded one under QoS.
  if (spec.timeline) {
    const sgprs::dnn::Profiler profiler(
        cfg.device, sgprs::gpu::SpeedupModel::rtx2080ti(),
        sgprs::dnn::CostModel::calibrated());
    std::map<std::string, std::shared_ptr<const sgprs::dnn::Network>> nets;
    const double scale = fps_scale_of(spec);
    for (const auto& t : spec.timeline->templates) {
      for (double s : scale < 1.0 ? std::vector<double>{1.0, scale}
                                  : std::vector<double>{1.0}) {
        const auto t1 = Clock::now();
        build_prototype(t, s, profiler, pool_sizes, nets);
        total_s += seconds_since(t1);
        ++b.calls;
      }
    }
  }
  b.mean_us = b.calls ? 1e6 * total_s / static_cast<double>(b.calls) : 0.0;
  return b;
}

PlacerCosts replay_placer(const wl::ScenarioSpec& spec,
                          const sgprs::trace::Trace& trace,
                          const sgprs::fleet::FleetRunResult& run) {
  const wl::ScenarioConfig cfg = wl::lower(spec);
  sgprs::sim::Engine engine;
  sgprs::metrics::Collector collector(SimTime::zero());
  sgprs::cluster::ClusterConfig ccfg;
  ccfg.devices = std::vector<sgprs::gpu::DeviceSpec>(cfg.num_devices,
                                                     cfg.device);
  ccfg.placement = cfg.placement;
  ccfg.admission_margin = cfg.admission_margin;
  ccfg.occupancy_threshold = cfg.occupancy_threshold;
  ccfg.scheduler = cfg.scheduler;
  ccfg.pool = wl::pool_config_for(cfg);
  ccfg.sgprs = cfg.sgprs;
  ccfg.sharing = cfg.sharing;
  sgprs::cluster::Cluster cluster(engine, collector, ccfg);
  sgprs::cluster::Placer& placer = cluster.placer();
  const std::vector<int> pool_sizes = cluster.pool_sm_sizes();

  // The replay keeps the runtime's stream bookkeeping: `live` in the
  // runtime's order (admission order; streams re-homed from the orphan
  // list go to the back), the task each stream holds, and the crash
  // orphans awaiting a failover retry.
  PlacerCosts c;
  std::vector<int> live;
  std::map<int, int> device_of;
  std::map<int, sgprs::rt::Task> task_of;
  std::map<int, std::string> tmpl_of;
  std::set<int> orphans;

  // Initial placement (set-up, untimed), then prototypes per template.
  const std::vector<sgprs::rt::Task> initial =
      wl::task_builder_for(spec)(cfg, pool_sizes);
  const auto initial_placed = placer.place_batch(initial);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    ++c.attempts;
    if (initial_placed[i].device) {
      live.push_back(initial[i].id);
      device_of[initial[i].id] = *initial_placed[i].device;
      task_of[initial[i].id] = initial[i];
    } else {
      ++c.rejected;
    }
  }
  std::sort(live.begin(), live.end());
  const sgprs::dnn::Profiler profiler(cfg.device,
                                      sgprs::gpu::SpeedupModel::rtx2080ti(),
                                      sgprs::dnn::CostModel::calibrated());
  std::map<std::string, std::shared_ptr<const sgprs::dnn::Network>> nets;
  std::map<std::string, sgprs::rt::Task> proto, downgraded;
  const double scale = fps_scale_of(spec);
  for (const auto& t : trace.templates) {
    proto[t.name] = build_prototype(t, 1.0, profiler, pool_sizes, nets);
    if (scale < 1.0) {
      downgraded[t.name] = build_prototype(t, scale, profiler, pool_sizes,
                                           nets);
    }
  }
  const bool admission_test =
      spec.fleet_policy && spec.fleet_policy->overload.admission_test;
  const bool failover_downgrade =
      spec.faults && spec.faults->failover.qos_downgrade;

  double place_s = 0.0, batch_s = 0.0;
  // One placement as the runtime makes it: the admission test when the
  // overload policy asks for it, otherwise a forced placement.
  auto place = [&](const sgprs::rt::Task& task) {
    const auto t0 = Clock::now();
    const std::optional<int> dev = admission_test
                                       ? placer.place_ex(task).device
                                       : placer.force_place(task);
    place_s += seconds_since(t0);
    ++c.place_calls;
    return dev;
  };
  auto home = [&](int id, int dev, const sgprs::rt::Task& task) {
    live.push_back(id);
    device_of[id] = dev;
    task_of[id] = task;
  };
  auto unhome = [&](int id) {
    live.erase(std::find(live.begin(), live.end(), id));
    device_of.erase(id);
  };
  // A crashed or drained device's streams leave it and are re-placed as
  // one batch, in live order, as the runtime's replace_streams does. A
  // crash orphans what does not fit; a drain drops it.
  auto evacuate = [&](int d, bool crash) {
    std::vector<int> ids;
    std::vector<sgprs::rt::Task> copies;
    for (int id : live) {
      if (device_of.at(id) != d) continue;
      ids.push_back(id);
      copies.push_back(task_of.at(id));
    }
    if (ids.empty()) return;
    for (int id : ids) placer.remove_task(d, id);
    const auto t0 = Clock::now();
    const auto placed = placer.place_batch(copies, !admission_test);
    batch_s += seconds_since(t0);
    ++c.batches;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (placed[i].device) {
        device_of[ids[i]] = *placed[i].device;
        continue;
      }
      unhome(ids[i]);
      if (crash) {
        orphans.insert(ids[i]);
      } else {
        task_of.erase(ids[i]);
      }
    }
  };
  // One failover retry of an orphan (the runtime's try_place_orphan): on
  // the final attempt the downgraded prototype gets a second try.
  auto retry = [&](const sgprs::fleet::FleetDecision& dec) {
    const int id = dec.task_id;
    if (!orphans.count(id)) return;
    int attempt = 0, max_attempts = 0;
    const bool final_attempt =
        dec.detail.rfind("parked", 0) == 0 ||
        (std::sscanf(dec.detail.c_str(), "attempt %d of %d", &attempt,
                     &max_attempts) == 2 &&
         attempt >= max_attempts);
    sgprs::rt::Task task = task_of.at(id);
    std::optional<int> dev = place(task);
    const auto dg = downgraded.find(tmpl_of[id]);
    if (!dev && final_attempt && failover_downgrade &&
        dg != downgraded.end()) {
      task = dg->second;
      task.id = id;
      dev = place(task);
    }
    if (!dev) return;
    orphans.erase(id);
    home(id, *dev, task);
  };

  // Merge the trace (admit / retire / crash / recover) with the
  // autoscaler's device decisions and the failover retries from the
  // audit trail, by time; trace events go first at equal instants (a
  // recovery's parked retries follow it).
  struct Step {
    std::int64_t t_ns;
    const sgprs::trace::TraceEvent* ev;  // exactly one of ev, dec is set
    const sgprs::fleet::FleetDecision* dec;
  };
  std::vector<Step> steps;
  for (const auto& e : trace.events) steps.push_back({e.t_ns, &e, nullptr});
  using DK = sgprs::fleet::DecisionKind;
  for (const auto& d : run.decisions) {
    if (d.kind == DK::kScaleUp || d.kind == DK::kDeviceActive ||
        d.kind == DK::kScaleDown || d.kind == DK::kFailoverRetry) {
      steps.push_back({d.at.ns, nullptr, &d});
    }
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& a, const Step& b) {
                     return a.t_ns != b.t_ns ? a.t_ns < b.t_ns
                                             : a.ev && !b.ev;
                   });

  using Kind = sgprs::trace::TraceEvent::Kind;
  for (const Step& s : steps) {
    if (s.dec) {
      const int d = s.dec->device;
      if (s.dec->kind == DK::kFailoverRetry) {
        retry(*s.dec);
      } else if (s.dec->kind == DK::kScaleUp) {
        while (placer.num_devices() <= d) {
          cluster.add_device(cfg.device, /*active=*/false);
        }
      } else if (s.dec->kind == DK::kDeviceActive) {
        if (d < placer.num_devices()) placer.set_device_active(d, true);
      } else if (d < placer.num_devices()) {
        placer.set_device_active(d, false);
        evacuate(d, /*crash=*/false);
      }
      continue;
    }
    const sgprs::trace::TraceEvent& e = *s.ev;
    switch (e.kind) {
      case Kind::kAdmit: {
        ++c.attempts;
        tmpl_of[e.id] = e.tmpl;
        sgprs::rt::Task task = proto.at(e.tmpl);
        task.id = e.id;
        std::optional<int> dev = place(task);
        if (!dev && scale < 1.0) {
          task = downgraded.at(e.tmpl);
          task.id = e.id;
          dev = place(task);
        }
        if (dev) {
          home(e.id, *dev, task);
        } else {
          ++c.rejected;
        }
        break;
      }
      case Kind::kRetire: {
        auto it = device_of.find(e.id);
        if (it != device_of.end()) {
          placer.remove_task(it->second, e.id);
          unhome(e.id);
          task_of.erase(e.id);
        }
        break;
      }
      case Kind::kCrash:
        if (e.device < placer.num_devices()) {
          placer.set_device_active(e.device, false);
          evacuate(e.device, /*crash=*/true);
        }
        break;
      case Kind::kRecover:
        if (e.device < placer.num_devices()) {
          placer.set_device_active(e.device, true);
        }
        break;
    }
  }
  c.place_us = c.place_calls ? 1e6 * place_s / c.place_calls : 0.0;
  c.place_batch_us = c.batches ? 1e6 * batch_s / c.batches : 0.0;
  return c;
}

}  // namespace perfbench

#include "workloads.hpp"

#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

namespace {

/// Seeds for one run, all below 2^31 so they survive the spec reader's
/// JSON number path exactly.
struct SpecSeeds {
  std::uint64_t sim;
  std::uint64_t timeline;
  std::uint64_t faults;
};

SpecSeeds seeds_for(const std::string& workload, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (char c : workload) state = state * 131 + static_cast<unsigned char>(c);
  SpecSeeds s{};
  s.sim = 1 + sgprs::common::splitmix64_next(state) % 2000000000ULL;
  s.timeline = 1 + sgprs::common::splitmix64_next(state) % 2000000000ULL;
  s.faults = 1 + sgprs::common::splitmix64_next(state) % 2000000000ULL;
  return s;
}

/// Closed world, one device, beyond the pivot: 30 ResNet18 streams at
/// 30 fps on the paper's Scenario-1 pool. Pure sim + gpu + rt + metrics.
std::string paper_pivot(const SpecSeeds& s) {
  std::ostringstream o;
  o << R"({
  "name": "paper_pivot",
  "description": "Scenario-1 pool, 30 x ResNet18 @ 30 fps: beyond the 24-task pivot",
  "scheduler": "sgprs",
  "pool": { "contexts": 2, "oversubscription": 1.5 },
  "sim": { "duration_s": 16.0, "warmup_s": 0, "seed": )"
    << s.sim << R"( },
  "tasks": [
    { "name": "cam", "count": 30, "network": "resnet18", "fps": 30, "stages": 6 }
  ]
}
)";
  return o.str();
}

/// Open world, 2000 devices, hash placement, no admission control and no
/// autoscaler: one 10 fps camera per device plus a scripted admit/retire
/// wave of 30 fps streams. Light per-device load; heavy set-up and
/// collector reduction.
std::string fleet_wave(const SpecSeeds& s) {
  std::ostringstream o;
  o << R"({
  "name": "fleet_wave",
  "description": "2000-device cut of diurnal_wave_10k: hash placement, scripted wave",
  "scheduler": "sgprs",
  "pool": { "contexts": 2, "oversubscription": 1.5 },
  "sim": { "duration_s": 1.0, "warmup_s": 0, "seed": )"
    << s.sim << R"( },
  "fleet": { "devices": 2000, "placement": "hash", "admission_margin": 0 },
  "tasks": [
    { "name": "cam", "count": 4000, "network": "resnet18", "fps": 10, "stages": 6 }
  ],
  "timeline": {
    "seed": )"
    << s.timeline << R"(,
    "templates": [
      { "name": "wave", "network": "resnet18", "fps": 30, "stages": 6, "tier": 1 }
    ],
    "events": [
      { "every_s": 0.1, "from_s": 0.2, "until_s": 0.6, "admit": "wave", "count": 60 },
      { "every_s": 0.1, "from_s": 0.7, "until_s": 0.9, "retire": "wave", "count": 100 }
    ]
  },
  "fleet_policy": { "series_window_ms": 100 }
}
)";
  return o.str();
}

/// Open world, control-plane heavy: a small autoscaled fleet with a
/// resident population of hundreds of streams, Poisson arrivals of two
/// networks, least-loaded placement behind an admission margin, the
/// overload admission test, and seeded MTBF/MTTR crashes with failover.
/// No template period divides the 50 ms autoscaler grid: a 20 fps
/// stream re-homed at a warm-up instant would release exactly on control
/// instants, the tie docs/sharding.md warns about, and two-shard runs
/// would then differ from one-shard runs.
std::string churn_faults(const SpecSeeds& s) {
  std::ostringstream o;
  o << R"({
  "name": "churn_faults",
  "description": "Autoscaled fleet under Poisson churn with MTBF/MTTR crashes and failover",
  "scheduler": "sgprs",
  "pool": { "contexts": 2, "oversubscription": 1.5 },
  "sim": { "duration_s": 3.0, "warmup_s": 0, "seed": )"
    << s.sim << R"( },
  "fleet": { "devices": 14, "placement": "leastloaded", "admission_margin": 0.9 },
  "tasks": [
    { "name": "resident", "count": 300, "network": "mobilenet", "fps": 30,
      "stages": 4, "tier": 0 }
  ],
  "timeline": {
    "seed": )"
    << s.timeline << R"(,
    "templates": [
      { "name": "detect", "network": "resnet34", "fps": 24, "stages": 6, "tier": 1 },
      { "name": "mobile", "network": "mobilenet", "fps": 30, "stages": 4, "tier": 2 }
    ],
    "arrivals": [
      { "template": "detect", "rate_per_s": 30, "lifetime_s": [0.5, 1.5] },
      { "template": "mobile", "rate_per_s": 90, "lifetime_s": [0.5, 1.5] }
    ]
  },
  "fleet_policy": {
    "series_window_ms": 100,
    "overload": { "admission_test": true, "fps_scale": 0.5 },
    "autoscaler": { "policy": "headroom", "min_devices": 14, "max_devices": 18,
                    "headroom": 0.2, "tick_ms": 50, "warmup_ms": 150,
                    "cooldown_ms": 300 }
  },
  "faults": {
    "seed": )"
    << s.faults << R"(,
    "process": { "mtbf_s": 2.0, "mttr_s": 0.3, "from_s": 0.2 },
    "failover": { "max_attempts": 4, "backoff_ms": 25, "backoff_mult": 2.0,
                  "jitter_ms": 10, "qos_downgrade": true }
  }
}
)";
  return o.str();
}

}  // namespace

std::string render_spec(const std::string& workload, std::uint64_t seed) {
  const SpecSeeds s = seeds_for(workload, seed);
  if (workload == "paper_pivot") return paper_pivot(s);
  if (workload == "fleet_wave") return fleet_wave(s);
  if (workload == "churn_faults") return churn_faults(s);
  throw std::invalid_argument("unknown workload " + workload);
}

}  // namespace perfbench

#include "cluster/placer.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/check.hpp"

namespace sgprs::cluster {

namespace {

/// FNV-1a over the task name: stable across platforms and standard-library
/// implementations, unlike std::hash (affinity must not move between
/// builds).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Placer::Placer(std::vector<PlacerDevice> devices, PlacementPolicy policy,
               double admission_margin, double occupancy_threshold)
    : policy_(policy),
      margin_(admission_margin),
      occupancy_threshold_(occupancy_threshold) {
  SGPRS_CHECK_MSG(!devices.empty(), "placer needs at least one device");
  SGPRS_CHECK_MSG(admission_margin <= 1.0,
                  "admission margin is a fraction of capacity");
  SGPRS_CHECK_MSG(occupancy_threshold > 0.0 && occupancy_threshold <= 1.0,
                  "occupancy threshold is a fraction of warp capacity");
  devices_.reserve(devices.size());
  for (auto& d : devices) add_device(std::move(d));
}

int Placer::add_device(PlacerDevice device, bool active) {
  SGPRS_CHECK(device.capacity.work_rate > 0.0);
  rt::ResourceBudget budget;
  budget.mem_bytes = device.spec.mem_bytes;
  budget.total_warps = device.spec.total_warps();
  budget.occupancy_threshold = occupancy_threshold_;
  // A disabled margin still needs a valid controller for load tracking.
  rt::AdmissionController controller(device.capacity, device.pool_sms,
                                     margin_ > 0.0 ? margin_ : 1.0, budget);
  devices_.push_back(
      DeviceState{std::move(device), std::move(controller), active});
  return static_cast<int>(devices_.size()) - 1;
}

void Placer::set_device_active(int d, bool active) {
  devices_.at(d).active = active;
}

int Placer::active_devices() const {
  int n = 0;
  for (const auto& d : devices_) n += d.active ? 1 : 0;
  return n;
}

bool Placer::remove_task(int d, int task_id) {
  return devices_.at(d).controller.remove(task_id);
}

double Placer::utilization(int d) const {
  return devices_.at(d).controller.current_utilization();
}

double Placer::remaining_capacity(int d) const {
  const DeviceState& ds = devices_.at(d);
  const double budget =
      (margin_ > 0.0 ? margin_ : 1.0) * ds.info.capacity.work_rate;
  const double offered =
      ds.controller.current_utilization() * ds.info.capacity.work_rate;
  // force_place / disabled-margin overload can push offered past the
  // budget; spare capacity is never negative.
  return std::max(0.0, budget - offered);
}

std::int64_t Placer::remaining_mem_bytes(int d) const {
  const DeviceState& ds = devices_.at(d);
  return std::max<std::int64_t>(
      0, ds.info.spec.mem_bytes - ds.controller.mem_used());
}

int Placer::task_count(int d) const {
  return static_cast<int>(devices_.at(d).controller.admitted().size());
}

const std::vector<rt::Task>& Placer::placed_on(int d) const {
  return devices_.at(d).controller.admitted();
}

double Placer::order_key(int d) const {
  switch (policy_) {
    case PlacementPolicy::kLeastLoaded:
      return utilization(d);
    case PlacementPolicy::kBinPackUtilization:
    case PlacementPolicy::kWorstFit:
      return remaining_capacity(d);
    case PlacementPolicy::kBinPackMemory:
      return static_cast<double>(remaining_mem_bytes(d));
    case PlacementPolicy::kRoundRobin:
    case PlacementPolicy::kHashAffinity:
      break;
  }
  return 0.0;
}

bool Placer::order_ascending() const {
  // Best-fit family probes the least spare first (so the first admitting
  // device is the tightest fit); worst-fit probes the most spare first.
  return policy_ != PlacementPolicy::kWorstFit;
}

template <typename Accept>
int Placer::first_candidate(const rt::Task& task, Accept&& accept) {
  const int n = num_devices();
  int found = -1;
  if (policy_ == PlacementPolicy::kRoundRobin ||
      policy_ == PlacementPolicy::kHashAffinity) {
    // Walk (start + i) % n lazily: most placements stop at the first probe,
    // so no n-long order is built.
    const int start = policy_ == PlacementPolicy::kRoundRobin
                          ? rr_next_ % n
                          : static_cast<int>(fnv1a(task.name) % n);
    for (int i = 0, d = start; i < n; ++i, d = d + 1 == n ? 0 : d + 1) {
      if (accept(d)) {
        found = d;
        break;
      }
    }
  } else {
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> key(n);
    for (int i = 0; i < n; ++i) key[i] = order_key(i);
    const bool asc = order_ascending();
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return asc ? key[a] < key[b] : key[a] > key[b];
    });
    for (const int d : order) {
      if (accept(d)) {
        found = d;
        break;
      }
    }
  }
  if (found >= 0 && policy_ == PlacementPolicy::kRoundRobin) {
    rr_next_ = (found + 1) % n;
  }
  return found;
}

std::optional<int> Placer::force_place(const rt::Task& task) {
  const int placed = first_candidate(task, [&](int d) {
    if (!devices_[d].active) return false;
    devices_[d].controller.force_admit(task);
    return true;
  });
  if (placed >= 0) return placed;
  ++rejected_;
  return std::nullopt;
}

std::optional<int> Placer::place(const rt::Task& task) {
  return place_ex(task).device;
}

PlaceResult Placer::place_ex(const rt::Task& task) {
  bool saw_oom = false;
  const int placed = first_candidate(task, [&](int d) {
    if (!devices_[d].active) return false;
    auto& controller = devices_[d].controller;
    if (margin_ <= 0.0) {
      controller.force_admit(task);  // admission control disabled
      return true;
    }
    const rt::AdmitOutcome out = controller.try_admit_ex(task);
    saw_oom = saw_oom || out == rt::AdmitOutcome::kRejectedMemory;
    return out == rt::AdmitOutcome::kAdmitted;
  });
  if (placed >= 0) return PlaceResult{placed, false};
  ++rejected_;
  if (saw_oom) ++oom_rejected_;
  return PlaceResult{std::nullopt, saw_oom};
}

std::vector<PlaceResult> Placer::place_batch(
    const std::vector<rt::Task>& tasks, bool force) {
  std::vector<PlaceResult> results(tasks.size());
  if (force) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      results[i].device = force_place(tasks[i]);
    }
    return results;
  }
  if (policy_ == PlacementPolicy::kRoundRobin ||
      policy_ == PlacementPolicy::kHashAffinity) {
    // Order-keyed by the stream, not the load — nothing to cache.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      results[i] = place_ex(tasks[i]);
    }
    return results;
  }

  // Load-sorted policies: compute every device's ordering key once, then
  // refresh only the device each placement lands on. A placement changes
  // no other device's load, so the candidate orderings — and therefore the
  // decisions — are byte-identical to sequential place() calls, without
  // the O(batch × devices) utilization recomputes.
  const int n = num_devices();
  std::vector<double> key(n);
  for (int d = 0; d < n; ++d) key[d] = order_key(d);

  std::vector<std::size_t> item(tasks.size());
  std::iota(item.begin(), item.end(), std::size_t{0});
  // Best-fit *decreasing*: the bin-packing policies consider streams
  // largest-first over their binding dimension, which is what makes
  // best-fit pack tightly. Other policies keep arrival order.
  if (policy_ == PlacementPolicy::kBinPackUtilization) {
    std::vector<double> w(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      w[i] = rt::task_work_rate(tasks[i]);
    }
    std::stable_sort(item.begin(), item.end(),
                     [&](std::size_t a, std::size_t b) { return w[a] > w[b]; });
  } else if (policy_ == PlacementPolicy::kBinPackMemory) {
    std::stable_sort(item.begin(), item.end(), [&](std::size_t a,
                                                   std::size_t b) {
      return tasks[a].mem_bytes > tasks[b].mem_bytes;
    });
  }

  const bool asc = order_ascending();
  std::vector<int> order(n);
  for (std::size_t idx : item) {
    const rt::Task& task = tasks[idx];
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return asc ? key[a] < key[b] : key[a] > key[b];
    });
    bool saw_oom = false;
    bool placed = false;
    for (int d : order) {
      if (!devices_[d].active) continue;
      auto& controller = devices_[d].controller;
      if (margin_ <= 0.0) {
        controller.force_admit(task);
      } else {
        const rt::AdmitOutcome out = controller.try_admit_ex(task);
        if (out != rt::AdmitOutcome::kAdmitted) {
          saw_oom = saw_oom || out == rt::AdmitOutcome::kRejectedMemory;
          continue;
        }
      }
      key[d] = order_key(d);
      results[idx] = PlaceResult{d, false};
      placed = true;
      break;
    }
    if (!placed) {
      ++rejected_;
      if (saw_oom) ++oom_rejected_;
      results[idx] = PlaceResult{std::nullopt, saw_oom};
    }
  }
  return results;
}

}  // namespace sgprs::cluster

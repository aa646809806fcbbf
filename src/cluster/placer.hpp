// Task → device assignment with online multi-resource admission control.
//
// The placer keeps an analytical load model per device (rt/analysis.hpp:
// saturated pool capacity, utilization test, heuristic response-time
// estimate) plus the device's physical budget (memory bytes, resident-warp
// occupancy). Each placement walks the devices in a policy-defined order
// and lands on the first one whose augmented task set still passes every
// admission test; when no device passes, the task is rejected — and when
// memory was the sole blocker anywhere, the rejection is classified OOM.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/placement.hpp"
#include "gpu/device.hpp"
#include "rt/analysis.hpp"
#include "rt/task.hpp"

namespace sgprs::cluster {

/// Static per-device facts the placer reasons about.
struct PlacerDevice {
  gpu::DeviceSpec spec;
  rt::PoolCapacityModel capacity;
  /// Reference context SM size used for WCET lookups in the response-time
  /// estimate; tasks must be profiled at this size.
  int pool_sms = 0;
};

/// Outcome of one placement attempt. `oom` is true only for failed
/// placements where at least one active device rejected on memory alone
/// (the stream would have fit by compute) — the fleet's OOM signal.
struct PlaceResult {
  std::optional<int> device;
  bool oom = false;
};

class Placer {
 public:
  /// `admission_margin` is the utilization fraction admission may fill
  /// (rt::AdmissionController semantics); <= 0 disables admission control
  /// entirely — every placement succeeds, load ordering still applies.
  /// `occupancy_threshold` is the admissible fraction of each device's
  /// resident-warp capacity (CASE exemplar: 0.9).
  Placer(std::vector<PlacerDevice> devices, PlacementPolicy policy,
         double admission_margin = 0.95, double occupancy_threshold = 0.9);

  /// Places one task. Returns the chosen device index, or std::nullopt
  /// when no device admits it (counted in rejected()). Inactive devices
  /// (drained or still warming up) are never candidates.
  std::optional<int> place(const rt::Task& task);

  /// As place(), but also classifies a failed placement as OOM when
  /// memory (not compute) was the blocking resource.
  PlaceResult place_ex(const rt::Task& task);

  /// Places a batch of tasks in one pass (CASE-style batched scheduling).
  /// Results align with the input order. Per-device ordering keys are
  /// computed once and refreshed only for the device each placement lands
  /// on, so the decisions are byte-identical to calling place() per task —
  /// except that the bin-packing policies first order the batch largest-
  /// first over their binding dimension (best-fit *decreasing*). `force`
  /// routes through force_place instead of admission.
  std::vector<PlaceResult> place_batch(const std::vector<rt::Task>& tasks,
                                       bool force = false);

  /// Places ignoring the admission test (fleet overload control with
  /// admission_test off): the first active device in policy order takes
  /// the task unconditionally, load accounting stays accurate. Returns
  /// std::nullopt only when no device is active.
  std::optional<int> force_place(const rt::Task& task);

  /// Registers a device added to the fleet mid-run (autoscaling). Returns
  /// its index. The device starts inactive when `active` is false (warm-up
  /// latency: capacity exists but takes no placements yet).
  int add_device(PlacerDevice device, bool active = true);

  /// Gates a device in or out of placement. Deactivating never moves
  /// already-placed tasks — drain/re-place decisions belong to the caller.
  void set_device_active(int d, bool active);
  bool device_active(int d) const { return devices_.at(d).active; }
  int active_devices() const;

  /// Releases the admission capacity task `task_id` holds on device `d`
  /// (stream retired or re-placed). Returns false if it was not there.
  bool remove_task(int d, int task_id);

  int num_devices() const { return static_cast<int>(devices_.size()); }
  PlacementPolicy policy() const { return policy_; }
  int rejected() const { return rejected_; }
  /// Failed placements where memory was the sole blocker (subset of
  /// rejected()).
  int oom_rejected() const { return oom_rejected_; }

  /// Offered utilization fraction of device `d` (offered work rate over
  /// saturated capacity; 0 when nothing is placed).
  double utilization(int d) const;
  /// Absolute spare admissible work rate of device `d` (SM-work/s),
  /// clamped at 0 — force_place and disabled-margin overload can push the
  /// offered load past the budget, but spare capacity is never negative.
  double remaining_capacity(int d) const;
  /// Unreserved device memory of `d` in bytes, clamped at 0.
  std::int64_t remaining_mem_bytes(int d) const;
  int task_count(int d) const;
  const std::vector<rt::Task>& placed_on(int d) const;

 private:
  /// Admission testing and the per-device placed list both live in the
  /// rt::AdmissionController (push/pop probing, no task-set copies).
  struct DeviceState {
    PlacerDevice info;
    rt::AdmissionController controller;
    bool active = true;
  };

  /// Ordering key of device `d` under the current load-sorted policy
  /// (utilization, spare work-rate, or remaining memory).
  double order_key(int d) const;
  /// True when the policy sorts candidates by order_key ascending
  /// (best-fit family); false for worst-fit's descending order.
  bool order_ascending() const;
  /// Calls `accept(d)` on device indices in the order this policy wants
  /// them tried until it returns true; returns that device (and advances
  /// round-robin past it), or -1. Round-robin and hash walk
  /// (start + i) % n lazily; the load-sorted policies sort a full order.
  template <typename Accept>
  int first_candidate(const rt::Task& task, Accept&& accept);

  std::vector<DeviceState> devices_;
  PlacementPolicy policy_;
  double margin_;
  double occupancy_threshold_;
  int rr_next_ = 0;
  int rejected_ = 0;
  int oom_rejected_ = 0;
};

}  // namespace sgprs::cluster

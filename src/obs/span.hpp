// Sim-time span tracing (--trace-spans, docs/observability.md).
//
// Two write surfaces, one canonical export:
//  * JobTracer — a per-device flat event buffer fed by that device's
//    scheduler stack (release / first dispatch / complete / drop / shed /
//    crash abort). During a sharded run each buffer is written only by the
//    shard thread that owns the device (plus the control plane at epoch
//    barriers, where the shards are parked), so the parallel phase needs
//    no locks — the same partition-then-reduce discipline the per-device
//    collectors and the overload guard's staged audit records use.
//  * SpanSink — owns the device tracers plus the control-plane and
//    stream-lifetime record streams, which only the (serial) control
//    plane writes.
//
// write_perfetto() renders Chrome/Perfetto trace-event JSON: pid 0 is the
// control plane, pid d+1 is device d; job spans land on tid = task id,
// stream-lifetime spans on tid = stream id. Export walks devices in index
// order and renders times from integer nanoseconds, so the span file is
// byte-identical at any --shards count (pinned by tests/obs/span_test.cpp
// and CI).
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace sgprs::obs {

using common::SimTime;

/// Per-device job-event buffer. Appends are amortized O(1) with no
/// steady-state allocation (geometric vector growth warms up once).
class JobTracer {
 public:
  enum class Event : std::uint8_t {
    kRelease,   // runner release reached the scheduler
    kDispatch,  // first stage left the queue for a stream
    kComplete,  // final stage finished
    kDrop,      // scheduler drop (in-flight cap, hopeless abort)
    kShed,      // overload guard shed the release at the door
    kAbortAll,  // device crash killed every in-flight job
  };
  struct Record {
    std::int64_t t_ns = 0;
    std::int64_t release_ns = 0;  // job identity: (task_id, release_ns)
    std::int32_t task_id = -1;    // kAbortAll reuses this for the kill count
    Event kind = Event::kRelease;
  };

  void release(int task, SimTime now) {
    push(Event::kRelease, task, now, now);
  }
  void dispatch(int task, SimTime release, SimTime now) {
    push(Event::kDispatch, task, release, now);
  }
  void complete(int task, SimTime release, SimTime now) {
    push(Event::kComplete, task, release, now);
  }
  void drop(int task, SimTime release, SimTime now) {
    push(Event::kDrop, task, release, now);
  }
  void shed(int task, SimTime now) { push(Event::kShed, task, now, now); }
  void abort_all(int killed, SimTime now) {
    push(Event::kAbortAll, killed, now, now);
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  void push(Event kind, int task, SimTime release, SimTime now) {
    records_.push_back(Record{now.ns, release.ns,
                              static_cast<std::int32_t>(task), kind});
  }
  std::vector<Record> records_;
};

class SpanSink {
 public:
  /// The tracer for device `index`, grown on demand (deque: stable
  /// addresses while the autoscaler adds devices).
  JobTracer& device_tracer(int index);

  /// Control-plane instant (decision kinds, autoscaler ticks). Serial
  /// callers only.
  void control(SimTime t, std::string kind, int task_id, int device,
               std::string detail);

  /// Stream lifetime: admit opens a segment on `device`; moved closes it
  /// and opens one on the new device (-1 = orphaned, no new segment);
  /// retired closes for good. Open segments close at the horizon.
  void stream_admitted(SimTime t, int stream_id, int device,
                       std::string tmpl);
  void stream_moved(SimTime t, int stream_id, int device);
  void stream_retired(SimTime t, int stream_id);

  void set_horizon(SimTime t) { horizon_ns_ = t.ns; }
  void set_device_name(int index, std::string name);

  int num_devices() const { return static_cast<int>(devices_.size()); }
  /// Total recorded events across every track (the CLI's span summary).
  std::int64_t total_events() const;

  /// Chrome/Perfetto trace-event JSON ({"traceEvents": [...]}); see the
  /// header comment for the track layout and the determinism contract.
  void write_perfetto(std::ostream& out) const;

 private:
  struct ControlRecord {
    std::int64_t t_ns = 0;
    std::string kind;
    std::int32_t task_id = -1;
    std::int32_t device = -1;
    std::string detail;
  };
  struct StreamRecord {
    enum class Kind : std::uint8_t { kAdmit, kMove, kRetire };
    std::int64_t t_ns = 0;
    std::int32_t stream_id = -1;
    std::int32_t device = -1;
    Kind kind = Kind::kAdmit;
    std::string tmpl;
  };

  std::deque<JobTracer> devices_;
  std::vector<std::string> device_names_;
  std::vector<ControlRecord> control_;
  std::vector<StreamRecord> streams_;
  std::int64_t horizon_ns_ = 0;
};

}  // namespace sgprs::obs

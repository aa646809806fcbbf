// Processor-sharing GPU executor (discrete-event).
//
// Owns contexts, streams and running kernels; integrates with sim::Engine.
// Whenever the set of running kernels changes, progress rates are
// recomputed from the sharing model and the single pending completion event
// is rescheduled. The running-set part of the model (SM shares and the
// contention factor) is recomputed only when a stream goes idle<->busy; a
// successor starting on a busy stream only gets its own per-kernel rate.
// Kernels have two phases: a launch-overhead phase that progresses at unit
// rate regardless of SMs, then a work phase progressing at rate
// speedup(op, granted_sms) * contention factors.
//
// Streams are FIFO: at most one kernel of a stream runs at a time; the rest
// wait in the stream's queue. This mirrors CUDA stream semantics and is what
// the scheduler layers on top of (it submits one *stage* — a kernel batch —
// per stream at a time).
//
// Storage is allocation-free once a run has warmed up: queued and running
// kernels live in one executor-wide slab of recycled nodes, linked into
// intrusive per-stream FIFO lists; completion callbacks are held inline;
// the rate-recompute scratch is reused across calls; the busy streams are a
// dense ascending id list reserved as streams are created.
// docs/ARCHITECTURE.md § "Executor storage" is the design note.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inplace_function.hpp"
#include "common/time.hpp"
#include "gpu/device.hpp"
#include "gpu/kernel.hpp"
#include "gpu/sharing.hpp"
#include "gpu/speedup.hpp"
#include "gpu/trace.hpp"
#include "sim/engine.hpp"

namespace sgprs::gpu {

using common::SimTime;

using ContextId = int;
using StreamId = int;

enum class StreamPriority : std::uint8_t { kHigh = 0, kLow = 1 };

/// Invoked in simulation time when a kernel (or batch) fully completes.
/// Inline capacity covers the schedulers' stage-completion captures (the
/// largest: 32 bytes in rt::SgprsScheduler::dispatch); outgrowing it is a
/// static_assert at the call site, never a heap allocation.
using CompletionFn = common::InplaceFunction<void(SimTime), 32>;

class Executor {
 public:
  Executor(sim::Engine& engine, DeviceSpec device, SpeedupModel speedup,
           SharingParams sharing);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Creates a context limited to `sm_limit` SMs. The pool may be
  /// over-subscribed: no check against the device total (that is the point).
  ContextId create_context(int sm_limit);

  /// Creates a stream in `ctx` with the given priority.
  StreamId create_stream(ContextId ctx, StreamPriority priority);

  /// Enqueues one kernel; `on_done` (optional) fires at completion. A batch
  /// is a run of enqueues with the callback on the last one.
  void enqueue(StreamId stream, const KernelDesc& kernel,
               CompletionFn on_done);

  /// Enqueues a batch in order; `on_all_done` fires when the last kernel
  /// completes. The batch must be non-empty.
  void enqueue_batch(StreamId stream, std::vector<KernelDesc> kernels,
                     CompletionFn on_all_done);

  /// Device crash: drops every queued and running kernel without firing
  /// completion callbacks or crediting the lost residue to work_done_.
  /// Progress up to now is integrated first, so utilization accounting
  /// stays exact; the pending completion event is cancelled. Contexts and
  /// streams survive (a recovered device reuses them).
  void purge_all();

  // --- Introspection (used by schedulers and tests) ---
  int context_count() const { return static_cast<int>(contexts_.size()); }
  int stream_count() const { return static_cast<int>(streams_.size()); }
  int context_sm_limit(ContextId c) const;
  ContextId stream_context(StreamId s) const;
  StreamPriority stream_priority(StreamId s) const;
  /// Kernels queued behind the running one (running kernel not counted).
  std::size_t stream_queue_length(StreamId s) const;
  bool stream_busy(StreamId s) const;
  /// Number of kernels currently executing device-wide.
  int running_kernel_count() const {
    return static_cast<int>(running_.size());
  }
  /// The kernel running on `s`, or nullptr if the stream is idle.
  const KernelDesc* running_kernel(StreamId s) const;
  /// SMs granted to and progress rate of the kernel running on `s` as of
  /// the last reschedule (zeros if the stream is idle).
  ShareGrant running_grant(StreamId s) const;
  /// Number of kernels currently executing in a context.
  int context_running_count(ContextId c) const;
  /// Total 1-SM work completed so far (for utilization accounting).
  double total_work_done() const { return work_done_; }
  /// Integral over time of (granted SMs of running kernels), in SM-seconds.
  double busy_sm_seconds() const;
  /// Estimated remaining time of the kernel running on `s` at current rates
  /// (SimTime::max() if the stream is idle). Queued kernels not included.
  SimTime running_remaining(StreamId s) const;
  /// Kernel nodes ever allocated: the high-water mark of simultaneously
  /// queued plus running kernels.
  std::size_t slab_size() const { return nodes_.size(); }
  /// Kernel nodes currently holding a queued or running kernel.
  std::size_t live_nodes() const { return live_nodes_; }
  /// Reschedules that had running kernels, and how many of them recomputed
  /// the running-set shares (the rest only rated newly started kernels).
  std::uint64_t reschedule_count() const { return reschedules_; }
  std::uint64_t set_recompute_count() const { return set_recomputes_; }

  const DeviceSpec& device() const { return device_; }
  const SpeedupModel& speedup_model() const { return speedup_; }
  const SharingParams& sharing_params() const { return sharing_; }
  sim::Engine& engine() { return engine_; }

  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One queued or running kernel. The progress fields are set when the
  /// kernel starts; `next` links the stream FIFO, or the free list once
  /// the node is recycled.
  struct Node {
    KernelDesc desc;
    CompletionFn on_done;
    double rem_overhead = 0.0;  // seconds at unit rate
    double rem_work = 0.0;      // 1-SM seconds
    double rate = 0.0;          // work per second at last reschedule
    double granted_sms = 0.0;
    std::uint32_t next = kNil;
  };

  struct Stream {
    ContextId ctx;
    StreamPriority priority;
    std::uint32_t running = kNil;  // executing node, kNil when idle
    std::uint32_t head = kNil;     // queued FIFO behind `running`
    std::uint32_t tail = kNil;
    std::uint32_t queued = 0;
    double share = 0.0;  // SMs granted at the last running-set recompute
  };

  struct Context {
    int sm_limit;
    int running_count = 0;
  };

  // Consumes elapsed time since the last update against stored rates.
  void advance_progress();
  // Rates newly started kernels (all kernels after a running-set change)
  // and schedules the next completion event.
  void reschedule();
  // Running-set part: every busy stream's share, rate_factor_, and the rate
  // of every running kernel.
  void recompute_set_shares();
  void start_next(StreamId s);
  // Records that idle stream `s` just started a kernel.
  void add_running(StreamId s);
  void on_completion_event();
  std::uint32_t acquire_node();
  void release_node(std::uint32_t n);
  double priority_weight(StreamPriority p) const;

  sim::Engine& engine_;
  DeviceSpec device_;
  SpeedupModel speedup_;
  SharingParams sharing_;
  TraceSink* trace_ = nullptr;

  std::vector<Context> contexts_;
  std::vector<int> ctx_sms_;  // contexts_[c].sm_limit, as compute_shares wants
  std::vector<Stream> streams_;
  // Ids of the streams with a running kernel, ascending, so every sum over
  // running kernels adds in stream order. Capacity >= streams_.size().
  std::vector<StreamId> running_;
  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNil;
  std::size_t live_nodes_ = 0;

  // Scratch reused by every reschedule / completion event.
  std::vector<ShareRequest> reqs_;
  ShareBuffers shares_;
  std::vector<std::uint32_t> finished_;

  SimTime last_update_ = SimTime::zero();
  sim::EventId completion_event_ = sim::kInvalidEvent;
  double work_done_ = 0.0;
  double busy_sm_seconds_ = 0.0;
  // Running-set factor of the last recompute, and whether running_ changed
  // since.
  double rate_factor_ = 0.0;
  bool set_changed_ = false;
  std::uint64_t reschedules_ = 0;
  std::uint64_t set_recomputes_ = 0;
  // Re-entrancy guard: completion callbacks may enqueue; defer rescheduling
  // until the outermost mutation finishes.
  int defer_depth_ = 0;
};

}  // namespace sgprs::gpu

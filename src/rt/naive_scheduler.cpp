#include "rt/naive_scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "dnn/network.hpp"
#include "obs/span.hpp"

namespace sgprs::rt {

NaiveScheduler::NaiveScheduler(gpu::Executor& exec,
                               const gpu::ContextPool& pool,
                               metrics::Collector& collector, NaiveConfig cfg)
    : exec_(exec), collector_(collector), cfg_(cfg) {
  SGPRS_CHECK(cfg_.max_in_flight_per_task >= 1);
  for (const auto& pc : pool.contexts()) {
    CtxState cs;
    cs.ctx = pc.ctx;
    // The naive scheduler uses a single stream per context; take the first
    // stream the pool created, whatever its priority.
    SGPRS_CHECK_MSG(!pc.high_streams.empty() || !pc.low_streams.empty(),
                    "pool context has no streams");
    cs.stream = pc.high_streams.empty() ? pc.low_streams.front()
                                        : pc.high_streams.front();
    contexts_.push_back(cs);
  }
  SGPRS_CHECK(!contexts_.empty());
}

void NaiveScheduler::admit(const Task& task) {
  if (task.id >= static_cast<int>(task_ctx_.size())) {
    task_ctx_.resize(task.id + 1, -1);
    in_flight_.resize(task.id + 1, 0);
  }
  // Static spatial assignment: round-robin, never revisited.
  task_ctx_[task.id] = rr_next_;
  rr_next_ = (rr_next_ + 1) % static_cast<int>(contexts_.size());
}

int NaiveScheduler::task_context(int task_id) const {
  SGPRS_CHECK(task_id >= 0 && task_id < static_cast<int>(task_ctx_.size()));
  SGPRS_CHECK_MSG(task_ctx_[task_id] >= 0, "task was never admitted");
  return task_ctx_[task_id];
}

void NaiveScheduler::release_job(const Task& task, SimTime now) {
  SGPRS_CHECK_MSG(task.id < static_cast<int>(task_ctx_.size()) &&
                      task_ctx_[task.id] >= 0,
                  "release before admit");
  collector_.on_release(task.id, now);
  if (tracer_) tracer_->release(task.id, now);
  if (in_flight_[task.id] >= cfg_.max_in_flight_per_task) {
    collector_.on_drop(task.id, now);  // frame buffer still full
    if (tracer_) tracer_->drop(task.id, now, now);
    return;
  }
  ++in_flight_[task.id];
  Job& job = jobs_.acquire();
  job.task = &task;
  job.index = job_counter_++;
  job.release = now;
  job.abs_deadline = now + task.deadline;
  const int ctx_idx = task_ctx_[task.id];
  contexts_[ctx_idx].fifo.push_back(&job);
  try_dispatch(ctx_idx, now);
}

void NaiveScheduler::try_dispatch(int ctx_idx, SimTime now) {
  CtxState& cs = contexts_[ctx_idx];
  if (cs.busy || cs.fifo.empty()) return;
  Job* job = cs.fifo.front();
  cs.fifo.pop_front();
  cs.busy = true;
  job->last_ctx = ctx_idx;
  // Single whole-network dispatch: this is always the job's first (and
  // only) move from queue to execution.
  if (tracer_) tracer_->dispatch(job->task->id, job->release, now);

  // Whole-network execution, no stage-level scheduling: every layer kernel
  // of the job in topological order on the single stream.
  const dnn::Network& net = *job->task->network;
  const auto cost = dnn::CostModel::calibrated();
  const std::uint64_t tag = job->tag();
  const dnn::NodeId last = net.node_count() - 1;
  for (dnn::NodeId id = 0; id < last; ++id) {
    exec_.enqueue(cs.stream, cost.kernel_for(net.layer(id), tag), {});
  }
  exec_.enqueue(cs.stream, cost.kernel_for(net.layer(last), tag),
                [this, job, ctx_idx](SimTime t) {
                  on_job_complete(*job, ctx_idx, t);
                });
  (void)now;
}

void NaiveScheduler::on_job_complete(Job& job, int ctx_idx, SimTime now) {
  collector_.on_complete(job.task->id, job.release, job.abs_deadline, now);
  if (tracer_) tracer_->complete(job.task->id, job.release, now);
  --in_flight_[job.task->id];
  jobs_.release(job);
  // The context frees only after the host round-trip (synchronize + frame
  // handling); the next job cannot be dispatched into that gap.
  if (cfg_.host_sync_gap > SimTime::zero()) {
    exec_.engine().schedule_after(cfg_.host_sync_gap, [this, ctx_idx] {
      contexts_[ctx_idx].busy = false;
      try_dispatch(ctx_idx, exec_.engine().now());
    });
  } else {
    contexts_[ctx_idx].busy = false;
    try_dispatch(ctx_idx, now);
  }
}

int NaiveScheduler::abort_in_flight() {
  // Device crash: drop queued and running jobs without collector closes.
  // A stale host_sync_gap event may still fire afterwards; with the fifo
  // cleared and busy already false it is a harmless no-op.
  for (auto& cs : contexts_) {
    cs.fifo.clear();
    cs.busy = false;
  }
  exec_.purge_all();
  const int killed = static_cast<int>(jobs_.release_all());
  std::fill(in_flight_.begin(), in_flight_.end(), 0);
  return killed;
}

}  // namespace sgprs::rt

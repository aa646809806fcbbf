#include "rt/sgprs_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "dnn/layer.hpp"
#include "obs/span.hpp"

namespace sgprs::rt {

SgprsScheduler::SgprsScheduler(gpu::Executor& exec,
                               const gpu::ContextPool& pool,
                               metrics::Collector& collector, SgprsConfig cfg)
    : exec_(exec), collector_(collector), cfg_(cfg), rng_(cfg.rng_seed) {
  SGPRS_CHECK(cfg_.max_in_flight_per_task >= 1);
  for (const auto& pc : pool.contexts()) {
    CtxState cs;
    cs.ctx = pc.ctx;
    cs.sm_limit = pc.sm_limit;
    for (auto s : pc.high_streams) cs.high_slots.push_back(Slot{s});
    for (auto s : pc.low_streams) cs.low_slots.push_back(Slot{s});
    contexts_.push_back(std::move(cs));
  }
  SGPRS_CHECK_MSG(!contexts_.empty(), "SGPRS needs a context pool");
}

void SgprsScheduler::admit(const Task& task) {
  if (task.id >= static_cast<int>(in_flight_.size())) {
    in_flight_.resize(task.id + 1, 0);
  }
  // Verify the WCET table covers every pool SM size we will estimate with.
  for (const auto& cs : contexts_) {
    (void)task.wcet.stage_at(0, cs.sm_limit);
  }
}

double SgprsScheduler::stage_wcet_sec(const Job& job, int stage,
                                      int sm_limit) const {
  return job.task->wcet.stage_at(stage, sm_limit).to_sec();
}

void SgprsScheduler::release_job(const Task& task, SimTime now) {
  SGPRS_CHECK(task.id < static_cast<int>(in_flight_.size()));
  collector_.on_release(task.id, now);
  if (tracer_) tracer_->release(task.id, now);
  if (in_flight_[task.id] >= cfg_.max_in_flight_per_task) {
    collector_.on_drop(task.id, now);
    if (tracer_) tracer_->drop(task.id, now, now);
    return;
  }
  ++in_flight_[task.id];
  Job& job = jobs_.acquire();
  job.task = &task;
  job.index = static_cast<std::int64_t>(next_seq_);
  job.release = now;
  job.abs_deadline = now + task.deadline;
  job.stage_deadlines.reserve(task.stage_count());
  for (const auto& st : task.stages) {
    job.stage_deadlines.push_back(now + st.virtual_deadline_offset);
  }
  release_stage(job, now);
}

StagePriority SgprsScheduler::effective_priority(const Job& job,
                                                 int stage) const {
  const StagePriority base = job.task->stages[stage].base_priority;
  if (base == StagePriority::kLow && job.predecessor_missed &&
      cfg_.medium_boost) {
    return StagePriority::kMedium;
  }
  return base;
}

SimTime SgprsScheduler::estimate_finish(const CtxState& cs,
                                        double stage_wcet_sec,
                                        SimTime now) const {
  // Backlog: work still queued plus the WCET-remainder of busy slots,
  // spread over all streams of the context, then this stage on top.
  double busy_rem = 0.0;
  int streams = 0;
  for (const auto& slots : {&cs.high_slots, &cs.low_slots}) {
    for (const auto& sl : *slots) {
      ++streams;
      if (sl.busy && sl.est_done > now) {
        busy_rem += (sl.est_done - now).to_sec();
      }
    }
  }
  SGPRS_CHECK(streams > 0);
  const double backlog =
      (cs.queued_work_sec + busy_rem) / static_cast<double>(streams);
  return now + SimTime::from_sec(backlog + stage_wcet_sec);
}

int SgprsScheduler::choose_paper(const Job& job, int stage,
                                 SimTime now) const {
  // Criterion 1: empty queues first.
  int best = -1;
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    if (contexts_[i].queue_len() == 0) {
      // Prefer the empty context with the most idle streams.
      auto idle_streams = [](const CtxState& cs) {
        int idle = 0;
        for (const auto& sl : cs.high_slots) idle += sl.busy ? 0 : 1;
        for (const auto& sl : cs.low_slots) idle += sl.busy ? 0 : 1;
        return idle;
      };
      if (best < 0 ||
          idle_streams(contexts_[i]) > idle_streams(contexts_[best])) {
        best = static_cast<int>(i);
      }
    }
  }
  if (best >= 0) return best;

  // Criterion 2: deadline-meeting contexts, shortest queue first.
  const SimTime dl = job.stage_deadlines[stage];
  int best_meet = -1;
  SimTime best_meet_finish = SimTime::max();
  std::size_t best_meet_qlen = 0;
  // Criterion 3 fallback: earliest finish overall.
  int best_finish = -1;
  SimTime best_finish_t = SimTime::max();
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const auto& cs = contexts_[i];
    const SimTime fin =
        estimate_finish(cs, stage_wcet_sec(job, stage, cs.sm_limit), now);
    if (fin <= dl) {
      const std::size_t qlen = cs.queue_len();
      if (best_meet < 0 || qlen < best_meet_qlen ||
          (qlen == best_meet_qlen && fin < best_meet_finish)) {
        best_meet = static_cast<int>(i);
        best_meet_qlen = qlen;
        best_meet_finish = fin;
      }
    }
    if (fin < best_finish_t) {
      best_finish_t = fin;
      best_finish = static_cast<int>(i);
    }
  }
  if (best_meet >= 0) return best_meet;
  return best_finish;
}

int SgprsScheduler::choose_context(const Job& job, int stage,
                                   SimTime now) const {
  switch (cfg_.assign_policy) {
    case ContextAssignPolicy::kPaper:
      return choose_paper(job, stage, now);
    case ContextAssignPolicy::kRoundRobin: {
      auto* self = const_cast<SgprsScheduler*>(this);
      const int c = self->rr_next_;
      self->rr_next_ = (self->rr_next_ + 1) %
                       static_cast<int>(contexts_.size());
      return c;
    }
    case ContextAssignPolicy::kRandom:
      return static_cast<int>(rng_.uniform_int(
          0, static_cast<std::int64_t>(contexts_.size()) - 1));
    case ContextAssignPolicy::kLeastLoaded: {
      int best = 0;
      SimTime best_t = SimTime::max();
      for (std::size_t i = 0; i < contexts_.size(); ++i) {
        const SimTime fin = estimate_finish(
            contexts_[i], stage_wcet_sec(job, stage, contexts_[i].sm_limit),
            now);
        if (fin < best_t) {
          best_t = fin;
          best = static_cast<int>(i);
        }
      }
      return best;
    }
  }
  return 0;
}

void SgprsScheduler::release_stage(Job& job, SimTime now) {
  const int stage = job.next_stage;
  SGPRS_CHECK(stage < job.task->stage_count());

  // Extension: shed jobs that already missed their final deadline instead
  // of spending GPU time on an unusable frame.
  if (cfg_.abort_hopeless && now > job.abs_deadline) {
    ++aborts_;
    collector_.on_drop(job.task->id, job.release);
    if (tracer_) tracer_->drop(job.task->id, job.release, now);
    --in_flight_[job.task->id];
    retire_job(job);
    return;
  }

  const int ctx_idx = choose_context(job, stage, now);
  CtxState& cs = contexts_[ctx_idx];
  if (job.last_ctx >= 0 && job.last_ctx != ctx_idx) ++migrations_;

  // EDF keys queues by the stage's absolute virtual deadline; the FIFO
  // ablation collapses the key so the seq tie-break orders by arrival.
  const SimTime key = cfg_.queue_order == QueueOrder::kEdf
                          ? job.stage_deadlines[stage]
                          : SimTime::zero();
  QueuedStage qs{&job, stage, key, next_seq_++};
  const StagePriority prio = effective_priority(job, stage);
  if (prio == StagePriority::kMedium) ++promotions_;
  switch (prio) {
    case StagePriority::kHigh: cs.high.push(qs); break;
    case StagePriority::kMedium: cs.medium.push(qs); break;
    case StagePriority::kLow: cs.low.push(qs); break;
  }
  cs.queued_work_sec += stage_wcet_sec(job, stage, cs.sm_limit);
  try_dispatch(ctx_idx, now);
}

void SgprsScheduler::try_dispatch(int ctx_idx, SimTime now) {
  CtxState& cs = contexts_[ctx_idx];
  // High streams serve the high queue (optionally stealing medium/low).
  for (auto& slot : cs.high_slots) {
    if (slot.busy) continue;
    StageQueue* src = nullptr;
    if (!cs.high.empty()) {
      src = &cs.high;
    } else if (cfg_.high_streams_steal) {
      if (!cs.medium.empty()) {
        src = &cs.medium;
      } else if (!cs.low.empty()) {
        src = &cs.low;
      }
    }
    if (!src) break;
    dispatch(cs, slot, src->pop(), now);
  }
  // Low streams serve medium first, then low (EDF inside each level).
  for (auto& slot : cs.low_slots) {
    if (slot.busy) continue;
    StageQueue* src = nullptr;
    if (!cs.medium.empty()) {
      src = &cs.medium;
    } else if (!cs.low.empty()) {
      src = &cs.low;
    }
    if (!src) break;
    dispatch(cs, slot, src->pop(), now);
  }
}

void SgprsScheduler::dispatch(CtxState& cs, Slot& slot, QueuedStage qs,
                              SimTime now) {
  Job& job = *qs.job;
  const int stage = qs.stage;
  const double wcet = stage_wcet_sec(job, stage, cs.sm_limit);
  cs.queued_work_sec = std::max(0.0, cs.queued_work_sec - wcet);
  slot.busy = true;
  slot.est_done = now + SimTime::from_sec(wcet);
  // First dispatch of the job (never assigned a context yet): the span
  // boundary between queue wait and execution.
  if (tracer_ && job.last_ctx < 0) {
    tracer_->dispatch(job.task->id, job.release, now);
  }
  job.last_ctx = static_cast<int>(&cs - contexts_.data());

  const bool high_slot =
      exec_.stream_priority(slot.stream) == gpu::StreamPriority::kHigh;
  const int ctx_idx = static_cast<int>(&cs - contexts_.data());
  const int slot_idx = static_cast<int>(
      &slot - (high_slot ? cs.high_slots.data() : cs.low_slots.data()));

  // The stage's kernels go straight to the stream, the completion on the
  // last one: no per-dispatch descriptor vector.
  const dnn::Network& net = *job.task->network;
  const auto& nodes = job.task->stages[stage].nodes;
  const auto cost = dnn::CostModel::calibrated();
  const std::uint64_t tag = job.tag();
  const std::size_t last = nodes.size() - 1;
  for (std::size_t i = 0; i < last; ++i) {
    exec_.enqueue(slot.stream, cost.kernel_for(net.layer(nodes[i]), tag), {});
  }
  Job* job_ptr = &job;
  exec_.enqueue(slot.stream, cost.kernel_for(net.layer(nodes[last]), tag),
                [this, job_ptr, stage, ctx_idx, slot_idx,
                 high_slot](SimTime t) {
                  on_stage_complete(*job_ptr, stage, ctx_idx, slot_idx,
                                    high_slot, t);
                });
}

void SgprsScheduler::on_stage_complete(Job& job, int stage, int ctx_idx,
                                       int slot_idx, bool high_slot,
                                       SimTime now) {
  CtxState& cs = contexts_[ctx_idx];
  Slot& slot = high_slot ? cs.high_slots[slot_idx] : cs.low_slots[slot_idx];
  slot.busy = false;

  if (now > job.stage_deadlines[stage]) job.predecessor_missed = true;

  job.next_stage = stage + 1;
  if (job.next_stage == job.task->stage_count()) {
    collector_.on_complete(job.task->id, job.release, job.abs_deadline, now);
    if (tracer_) tracer_->complete(job.task->id, job.release, now);
    --in_flight_[job.task->id];
    retire_job(job);
  } else {
    // Seamless partition switch: the next stage is assigned afresh and may
    // land on any context with zero reconfiguration.
    release_stage(job, now);
  }
  try_dispatch(ctx_idx, now);
}

void SgprsScheduler::retire_job(Job& job) { jobs_.release(job); }

int SgprsScheduler::abort_in_flight() {
  // Device crash: every queued stage and every dispatched kernel dies with
  // the device. No collector completes or drops — faulted jobs stay open
  // (they are their own outcome), and the stale stage-completion callbacks
  // the executor would have fired are purged with it.
  for (auto& cs : contexts_) {
    cs.high.clear();
    cs.medium.clear();
    cs.low.clear();
    cs.queued_work_sec = 0.0;
    for (auto& slot : cs.high_slots) slot.busy = false;
    for (auto& slot : cs.low_slots) slot.busy = false;
  }
  exec_.purge_all();
  const int killed = static_cast<int>(jobs_.release_all());
  std::fill(in_flight_.begin(), in_flight_.end(), 0);
  return killed;
}

std::size_t SgprsScheduler::queued_stages(int ctx) const {
  SGPRS_CHECK(ctx >= 0 && ctx < static_cast<int>(contexts_.size()));
  return contexts_[ctx].queue_len();
}

}  // namespace sgprs::rt

#include "gpu/executor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace sgprs::gpu {
namespace {

// Work below this many 1-SM seconds counts as finished (guards against
// floating-point residue after integer-nanosecond event rounding).
constexpr double kWorkEpsilon = 1e-12;

}  // namespace

Executor::Executor(sim::Engine& engine, DeviceSpec device,
                   SpeedupModel speedup, SharingParams sharing)
    : engine_(engine),
      device_(std::move(device)),
      speedup_(std::move(speedup)),
      sharing_(sharing),
      last_update_(engine.now()) {}

ContextId Executor::create_context(int sm_limit) {
  SGPRS_CHECK_MSG(sm_limit > 0 && sm_limit <= device_.total_sms,
                  "context SM limit must be in [1, total_sms]");
  contexts_.push_back(Context{sm_limit});
  ctx_sms_.push_back(sm_limit);
  return static_cast<ContextId>(contexts_.size() - 1);
}

StreamId Executor::create_stream(ContextId ctx, StreamPriority priority) {
  SGPRS_CHECK(ctx >= 0 && ctx < context_count());
  Stream s;
  s.ctx = ctx;
  s.priority = priority;
  streams_.push_back(s);
  // Doubling keeps stream creation amortized O(1); the running list then
  // never allocates.
  if (running_.capacity() < streams_.size()) {
    running_.reserve(2 * streams_.size());
  }
  return static_cast<StreamId>(streams_.size() - 1);
}

int Executor::context_sm_limit(ContextId c) const {
  SGPRS_CHECK(c >= 0 && c < context_count());
  return contexts_[c].sm_limit;
}

ContextId Executor::stream_context(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].ctx;
}

StreamPriority Executor::stream_priority(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].priority;
}

std::size_t Executor::stream_queue_length(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].queued;
}

bool Executor::stream_busy(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].running != kNil || streams_[s].queued > 0;
}

const KernelDesc* Executor::running_kernel(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  const std::uint32_t n = streams_[s].running;
  return n == kNil ? nullptr : &nodes_[n].desc;
}

ShareGrant Executor::running_grant(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  const std::uint32_t n = streams_[s].running;
  if (n == kNil) return ShareGrant{};
  return ShareGrant{nodes_[n].granted_sms, nodes_[n].rate};
}

int Executor::context_running_count(ContextId c) const {
  SGPRS_CHECK(c >= 0 && c < context_count());
  return contexts_[c].running_count;
}

double Executor::busy_sm_seconds() const {
  // Up to date only as of last_update_; good enough for end-of-run stats.
  return busy_sm_seconds_;
}

SimTime Executor::running_remaining(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  if (streams_[s].running == kNil) return SimTime::max();
  const Node& run = nodes_[streams_[s].running];
  const double elapsed = (engine_.now() - last_update_).to_sec();
  double rem_over = std::max(0.0, run.rem_overhead - elapsed);
  double consumed = std::max(0.0, elapsed - run.rem_overhead);
  double rem_work = std::max(0.0, run.rem_work - consumed * run.rate);
  const double rate = run.rate > 0.0 ? run.rate : 1e-9;
  return SimTime::from_sec(rem_over + rem_work / rate);
}

std::uint32_t Executor::acquire_node() {
  ++live_nodes_;
  if (free_head_ != kNil) {
    const std::uint32_t n = free_head_;
    free_head_ = nodes_[n].next;
    nodes_[n].next = kNil;
    return n;
  }
  SGPRS_CHECK_MSG(nodes_.size() < static_cast<std::size_t>(kNil),
                  "kernel slab exhausted");
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Executor::release_node(std::uint32_t n) {
  nodes_[n].on_done = nullptr;
  nodes_[n].next = free_head_;
  free_head_ = n;
  --live_nodes_;
}

void Executor::enqueue(StreamId stream, const KernelDesc& kernel,
                       CompletionFn on_done) {
  SGPRS_CHECK(stream >= 0 && stream < stream_count());
  SGPRS_CHECK(kernel.work_sm_seconds >= 0.0);
  SGPRS_CHECK(kernel.overhead_seconds >= 0.0);
  const std::uint32_t n = acquire_node();
  nodes_[n].desc = kernel;
  nodes_[n].on_done = std::move(on_done);
  Stream& s = streams_[stream];
  if (s.tail == kNil) {
    s.head = n;
  } else {
    nodes_[s.tail].next = n;
  }
  s.tail = n;
  ++s.queued;
  if (s.running == kNil) {
    advance_progress();
    start_next(stream);
    add_running(stream);
    reschedule();
  }
}

void Executor::enqueue_batch(StreamId stream, std::vector<KernelDesc> kernels,
                             CompletionFn on_all_done) {
  SGPRS_CHECK_MSG(!kernels.empty(), "enqueue_batch requires >= 1 kernel");
  const std::size_t last = kernels.size() - 1;
  for (std::size_t i = 0; i < last; ++i) enqueue(stream, kernels[i], {});
  enqueue(stream, kernels[last], std::move(on_all_done));
}

void Executor::purge_all() {
  // Credit busy-SM time and work completed up to the crash instant, then
  // drop everything in flight on the floor: no callbacks, no trace end
  // events, no work_done_ for the unfinished residue.
  advance_progress();
  for (auto& s : streams_) {
    for (std::uint32_t n = s.head; n != kNil;) {
      const std::uint32_t next = nodes_[n].next;
      release_node(n);
      n = next;
    }
    s.head = s.tail = kNil;
    s.queued = 0;
    if (s.running != kNil) {
      release_node(s.running);
      s.running = kNil;
      --contexts_[s.ctx].running_count;
    }
  }
  running_.clear();
  set_changed_ = true;
  if (completion_event_ != sim::kInvalidEvent) {
    engine_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
}

double Executor::priority_weight(StreamPriority p) const {
  return p == StreamPriority::kHigh ? sharing_.high_priority_weight
                                    : sharing_.low_priority_weight;
}

void Executor::advance_progress() {
  const SimTime now = engine_.now();
  const double elapsed = (now - last_update_).to_sec();
  last_update_ = now;
  if (elapsed <= 0.0) return;
  for (const StreamId sid : running_) {
    Node& r = nodes_[streams_[sid].running];
    double dt = elapsed;
    if (r.rem_overhead > 0.0) {
      const double t = std::min(dt, r.rem_overhead);
      r.rem_overhead -= t;
      dt -= t;
    }
    if (dt > 0.0) {
      const double done = std::min(r.rem_work, dt * r.rate);
      r.rem_work -= done;
      work_done_ += done;
    }
    busy_sm_seconds_ += elapsed * r.granted_sms;
  }
}

void Executor::start_next(StreamId sid) {
  Stream& s = streams_[sid];
  SGPRS_CHECK(s.running == kNil);
  if (s.head == kNil) return;
  const std::uint32_t n = s.head;
  Node& r = nodes_[n];
  s.head = r.next;
  if (s.head == kNil) s.tail = kNil;
  --s.queued;
  r.next = kNil;
  r.rem_overhead = r.desc.overhead_seconds;
  r.rem_work = r.desc.work_sm_seconds;
  r.rate = 0.0;
  r.granted_sms = 0.0;
  s.running = n;
  ++contexts_[s.ctx].running_count;
  if (trace_) trace_->on_kernel_start(engine_.now(), s.ctx, sid, r.desc);
}

void Executor::add_running(StreamId sid) {
  running_.insert(std::lower_bound(running_.begin(), running_.end(), sid),
                  sid);
  set_changed_ = true;
}

void Executor::recompute_set_shares() {
  ++set_recomputes_;
  set_changed_ = false;
  reqs_.clear();
  for (const StreamId sid : running_) {
    const Stream& s = streams_[sid];
    reqs_.push_back(ShareRequest{s.ctx, priority_weight(s.priority),
                                 nodes_[s.running].desc.op});
  }
  compute_set_shares(device_.total_sms, ctx_sms_, reqs_, sharing_, shares_);
  rate_factor_ = shares_.rate_factor;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    Stream& s = streams_[running_[i]];
    s.share = shares_.grants[i].sms;
    Node& r = nodes_[s.running];
    r.rate = kernel_rate(speedup_, r.desc.op, s.share, rate_factor_);
    r.granted_sms = s.share;
  }
}

void Executor::reschedule() {
  if (defer_depth_ > 0) return;
  if (completion_event_ != sim::kInvalidEvent) {
    engine_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  if (running_.empty()) return;

  ++reschedules_;
  if (set_changed_) recompute_set_shares();

  // With the running set unchanged, every share and rate_factor_ is what a
  // full recompute would give, so only kernels started since the last
  // reschedule (start_next leaves rate 0; real rates are > 0) need a rate.
  double min_finish = std::numeric_limits<double>::infinity();
  for (const StreamId sid : running_) {
    const Stream& s = streams_[sid];
    Node& r = nodes_[s.running];
    if (r.rate == 0.0) {
      r.rate = kernel_rate(speedup_, r.desc.op, s.share, rate_factor_);
      r.granted_sms = s.share;
    }
    SGPRS_CHECK(r.rate > 0.0);
    const double finish = r.rem_overhead + r.rem_work / r.rate;
    min_finish = std::min(min_finish, finish);
  }

  // Round the completion up to the next nanosecond so the event never fires
  // before the kernel's exact finish instant.
  auto delta = SimTime::from_ns(
      static_cast<std::int64_t>(std::ceil(min_finish * 1e9)));
  completion_event_ = engine_.schedule_after(
      std::max(delta, SimTime::from_ns(0)), [this] { on_completion_event(); });
}

void Executor::on_completion_event() {
  completion_event_ = sim::kInvalidEvent;
  advance_progress();

  // Retire every kernel that has finished (several can tie) and start
  // successors before firing callbacks, so that callbacks observe a
  // consistent executor state. Retired nodes leave their streams but stay
  // allocated until their callback has been moved out. A stream whose
  // successor starts at once stays in running_ (the set is unchanged); one
  // left idle drops out, keeping the list ascending.
  finished_.clear();
  std::size_t kept = 0;
  for (const StreamId sid : running_) {
    Stream& s = streams_[sid];
    const Node& r = nodes_[s.running];
    if (r.rem_overhead <= 0.0 && r.rem_work <= kWorkEpsilon) {
      work_done_ += r.rem_work;  // residue below epsilon
      if (trace_) trace_->on_kernel_end(engine_.now(), s.ctx, sid, r.desc);
      finished_.push_back(s.running);
      s.running = kNil;
      --contexts_[s.ctx].running_count;
      start_next(sid);
    }
    if (s.running != kNil) {
      running_[kept++] = sid;
    } else {
      set_changed_ = true;
    }
  }
  running_.resize(kept);
  SGPRS_CHECK_MSG(!finished_.empty(),
                  "completion event fired with no finished kernel");

  // Callbacks may enqueue (growing the slab, so move each callback out
  // first) but never reach this loop's scratch: their reschedules are
  // deferred until every callback has run.
  ++defer_depth_;
  const SimTime now = engine_.now();
  for (const std::uint32_t n : finished_) {
    CompletionFn fn = std::move(nodes_[n].on_done);
    release_node(n);
    if (fn) fn.call_and_reset(now);
  }
  --defer_depth_;
  reschedule();
}

}  // namespace sgprs::gpu

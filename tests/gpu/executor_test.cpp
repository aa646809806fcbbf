#include "gpu/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "gpu/sharing.hpp"
#include "sim/engine.hpp"

namespace sgprs::gpu {
namespace {

using common::SimTime;

SharingParams clean_params() {
  SharingParams p;
  p.interference_gamma = 0.0;
  p.oversub_thrash_kappa = 0.0;
  p.contention_exponent = 1.0;
  return p;
}

KernelDesc kernel(OpClass op, double work_sec, double overhead_sec = 0.0) {
  KernelDesc k;
  k.op = op;
  k.work_sm_seconds = work_sec;
  k.overhead_seconds = overhead_sec;
  return k;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : exec_(engine_, rtx2080ti(), SpeedupModel::rtx2080ti(),
              clean_params()) {}
  sim::Engine engine_;
  Executor exec_;
};

TEST_F(ExecutorTest, SingleKernelDurationMatchesSpeedupModel) {
  const auto ctx = exec_.create_context(34);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  SimTime done = SimTime::zero();
  // 1 second of 1-SM conv work on 34 SMs.
  exec_.enqueue(s, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { done = t; });
  engine_.run();
  const double expected =
      1.0 / SpeedupModel::rtx2080ti().speedup(OpClass::kConv, 34.0);
  EXPECT_NEAR(done.to_sec(), expected, 1e-6);
}

TEST_F(ExecutorTest, OverheadDoesNotScaleWithSms) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  SimTime done = SimTime::zero();
  exec_.enqueue(s, kernel(OpClass::kConv, 0.0, 0.001),
                [&](SimTime t) { done = t; });
  engine_.run();
  EXPECT_NEAR(done.to_ms(), 1.0, 1e-6);
}

TEST_F(ExecutorTest, StreamSerializesKernels) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  std::vector<SimTime> ends;
  for (int i = 0; i < 3; ++i) {
    exec_.enqueue(s, kernel(OpClass::kConv, 32.0),  // 1 s at 68 SMs (32x)
                  [&](SimTime t) { ends.push_back(t); });
  }
  engine_.run();
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_NEAR(ends[0].to_sec(), 1.0, 1e-6);
  EXPECT_NEAR(ends[1].to_sec(), 2.0, 1e-6);
  EXPECT_NEAR(ends[2].to_sec(), 3.0, 1e-6);
}

TEST_F(ExecutorTest, TwoStreamsSameContextShareSms) {
  const auto ctx = exec_.create_context(68);
  const auto s1 = exec_.create_stream(ctx, StreamPriority::kLow);
  const auto s2 = exec_.create_stream(ctx, StreamPriority::kLow);
  std::vector<SimTime> ends(2);
  // Two identical kernels, equal weight -> each gets 34 SMs.
  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { ends[0] = t; });
  exec_.enqueue(s2, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { ends[1] = t; });
  engine_.run();
  const double expected =
      1.0 / SpeedupModel::rtx2080ti().speedup(OpClass::kConv, 34.0);
  EXPECT_NEAR(ends[0].to_sec(), expected, 1e-6);
  EXPECT_NEAR(ends[1].to_sec(), expected, 1e-6);
}

TEST_F(ExecutorTest, HighPriorityStreamFinishesFirst) {
  SharingParams p = clean_params();
  p.high_priority_weight = 2.0;
  Executor exec(engine_, rtx2080ti(), SpeedupModel::rtx2080ti(), p);
  const auto ctx = exec.create_context(60);
  const auto hi = exec.create_stream(ctx, StreamPriority::kHigh);
  const auto lo = exec.create_stream(ctx, StreamPriority::kLow);
  SimTime hi_done, lo_done;
  exec.enqueue(hi, kernel(OpClass::kConv, 1.0),
               [&](SimTime t) { hi_done = t; });
  exec.enqueue(lo, kernel(OpClass::kConv, 1.0),
               [&](SimTime t) { lo_done = t; });
  engine_.run();
  EXPECT_LT(hi_done, lo_done);
}

TEST_F(ExecutorTest, RatesRecomputeWhenCompetitorFinishes) {
  // Kernel B should speed up once kernel A completes and frees its share.
  const auto ctx = exec_.create_context(68);
  const auto s1 = exec_.create_stream(ctx, StreamPriority::kLow);
  const auto s2 = exec_.create_stream(ctx, StreamPriority::kLow);
  SimTime a_done, b_done;
  const auto& model = exec_.speedup_model();
  // A: short. B: long. Phase 1: both at 34 SMs. Phase 2: B alone at 68.
  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { a_done = t; });
  exec_.enqueue(s2, kernel(OpClass::kConv, 10.0),
                [&](SimTime t) { b_done = t; });
  engine_.run();
  const double r34 = model.speedup(OpClass::kConv, 34.0);
  const double r68 = model.speedup(OpClass::kConv, 68.0);
  const double t_a = 1.0 / r34;
  // B does t_a * r34 work in phase 1, the rest at r68.
  const double t_b = t_a + (10.0 - t_a * r34) / r68;
  EXPECT_NEAR(a_done.to_sec(), t_a, 1e-6);
  EXPECT_NEAR(b_done.to_sec(), t_b, 1e-5);
}

TEST_F(ExecutorTest, OversubscribedContextsSlowDown) {
  const auto c1 = exec_.create_context(68);
  const auto c2 = exec_.create_context(68);
  const auto s1 = exec_.create_stream(c1, StreamPriority::kHigh);
  const auto s2 = exec_.create_stream(c2, StreamPriority::kHigh);
  SimTime done1;
  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { done1 = t; });
  exec_.enqueue(s2, kernel(OpClass::kConv, 1.0), {});
  engine_.run();
  // Both run at 68 SMs but demand is 2x -> rates halve -> 2x duration.
  const double expected =
      2.0 / SpeedupModel::rtx2080ti().speedup(OpClass::kConv, 68.0);
  EXPECT_NEAR(done1.to_sec(), expected, 1e-6);
}

TEST_F(ExecutorTest, BatchCallbackFiresOnceAtEnd) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  int calls = 0;
  SimTime done;
  std::vector<KernelDesc> batch = {kernel(OpClass::kConv, 32.0),
                                   kernel(OpClass::kReLU, 5.0),
                                   kernel(OpClass::kConv, 32.0)};
  exec_.enqueue_batch(s, std::move(batch), [&](SimTime t) {
    ++calls;
    done = t;
  });
  engine_.run();
  EXPECT_EQ(calls, 1);
  // conv 32 work at 32x = 1 s each; relu 5 work at 5x = 1 s.
  EXPECT_NEAR(done.to_sec(), 3.0, 1e-6);
}

TEST_F(ExecutorTest, EmptyBatchThrows) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  EXPECT_THROW(exec_.enqueue_batch(s, {}, {}), common::CheckError);
}

TEST_F(ExecutorTest, CompletionCallbackCanEnqueue) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  SimTime second_done;
  exec_.enqueue(s, kernel(OpClass::kConv, 32.0), [&](SimTime) {
    exec_.enqueue(s, kernel(OpClass::kConv, 32.0),
                  [&](SimTime t) { second_done = t; });
  });
  engine_.run();
  EXPECT_NEAR(second_done.to_sec(), 2.0, 1e-6);
}

TEST_F(ExecutorTest, IntrospectionCounts) {
  const auto c1 = exec_.create_context(34);
  const auto s1 = exec_.create_stream(c1, StreamPriority::kHigh);
  const auto s2 = exec_.create_stream(c1, StreamPriority::kLow);
  EXPECT_EQ(exec_.context_count(), 1);
  EXPECT_EQ(exec_.stream_count(), 2);
  EXPECT_EQ(exec_.context_sm_limit(c1), 34);
  EXPECT_EQ(exec_.stream_context(s2), c1);
  EXPECT_EQ(exec_.stream_priority(s1), StreamPriority::kHigh);
  EXPECT_FALSE(exec_.stream_busy(s1));

  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0), {});
  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0), {});
  EXPECT_TRUE(exec_.stream_busy(s1));
  EXPECT_EQ(exec_.stream_queue_length(s1), 1u);  // one running, one queued
  EXPECT_EQ(exec_.running_kernel_count(), 1);
  EXPECT_EQ(exec_.context_running_count(c1), 1);
  engine_.run();
  EXPECT_EQ(exec_.running_kernel_count(), 0);
  EXPECT_FALSE(exec_.stream_busy(s1));
}

TEST_F(ExecutorTest, WorkConservation) {
  // Total work completed must equal total work submitted.
  const auto c1 = exec_.create_context(40);
  const auto c2 = exec_.create_context(40);
  double submitted = 0.0;
  for (int i = 0; i < 4; ++i) {
    const auto s = exec_.create_stream(i % 2 ? c1 : c2,
                                       i < 2 ? StreamPriority::kHigh
                                             : StreamPriority::kLow);
    for (int j = 0; j < 5; ++j) {
      const double w = 0.1 * (1 + i) + 0.01 * j;
      submitted += w;
      exec_.enqueue(s, kernel(OpClass::kConv, w), {});
    }
  }
  engine_.run();
  EXPECT_NEAR(exec_.total_work_done(), submitted, 1e-6);
}

TEST_F(ExecutorTest, ZeroWorkKernelCompletesImmediately) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  bool done = false;
  exec_.enqueue(s, kernel(OpClass::kConv, 0.0), [&](SimTime) { done = true; });
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine_.now(), SimTime::zero());
}

TEST_F(ExecutorTest, RunningRemainingEstimates) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  exec_.enqueue(s, kernel(OpClass::kConv, 32.0), {});  // 1 s at 68 SMs
  EXPECT_NEAR(exec_.running_remaining(s).to_sec(), 1.0, 1e-6);
  engine_.run_until(SimTime::from_ms(250));
  EXPECT_NEAR(exec_.running_remaining(s).to_sec(), 0.75, 1e-6);
  engine_.run();
  EXPECT_TRUE(exec_.running_remaining(s).is_max());
}

TEST_F(ExecutorTest, ContextSmLimitValidation) {
  EXPECT_THROW(exec_.create_context(0), common::CheckError);
  EXPECT_THROW(exec_.create_context(69), common::CheckError);
  EXPECT_NO_THROW(exec_.create_context(68));
}

TEST_F(ExecutorTest, TraceSinkSeesStartAndEnd) {
  struct Recorder : TraceSink {
    std::vector<std::pair<char, SimTime>> events;
    void on_kernel_start(SimTime t, int, int, const KernelDesc&) override {
      events.emplace_back('s', t);
    }
    void on_kernel_end(SimTime t, int, int, const KernelDesc&) override {
      events.emplace_back('e', t);
    }
  } rec;
  exec_.set_trace_sink(&rec);
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  exec_.enqueue(s, kernel(OpClass::kConv, 32.0), {});
  exec_.enqueue(s, kernel(OpClass::kConv, 32.0), {});
  engine_.run();
  ASSERT_EQ(rec.events.size(), 4u);
  EXPECT_EQ(rec.events[0].first, 's');
  EXPECT_EQ(rec.events[1].first, 'e');
  EXPECT_EQ(rec.events[2].first, 's');
  EXPECT_EQ(rec.events[3].first, 'e');
  EXPECT_EQ(rec.events[1].second, rec.events[2].second)
      << "next kernel starts when the previous ends";
}

// --- Node slab: queued and running kernels share one recycled slab ---

/// Queued plus running kernels across `streams`.
std::size_t in_flight(const Executor& exec,
                      const std::vector<StreamId>& streams) {
  std::size_t n = 0;
  for (const auto s : streams) {
    n += exec.stream_queue_length(s) + (exec.stream_busy(s) ? 1 : 0);
  }
  return n;
}

TEST_F(ExecutorTest, SlabHighWaterIsPeakInFlightAndStaysFlat) {
  // Three streams re-enqueue fixed-size batches from their completion
  // callbacks for many rounds: the slab grows to the peak number of
  // queued + running kernels once, then only recycles.
  struct Resubmitter {
    Executor& exec;
    std::vector<StreamId> streams;
    std::vector<int> batch = {3, 2, 4};
    std::vector<int> rounds = std::vector<int>(3, 0);
    std::size_t peak = 0;
    std::size_t slab_after_first_round = 0;
    int max_rounds = 400;

    void submit(std::size_t i) {
      for (int k = 0; k < batch[i]; ++k) {
        CompletionFn done;
        if (k + 1 == batch[i]) {
          done = [this, i](SimTime) { on_batch_done(i); };
        }
        exec.enqueue(streams[i], kernel(OpClass::kConv, 0.01 * (i + k + 1)),
                     std::move(done));
        peak = std::max(peak, in_flight(exec, streams));
        EXPECT_EQ(exec.live_nodes(), in_flight(exec, streams));
      }
    }
    void on_batch_done(std::size_t i) {
      if (++rounds[i] == 1) {
        slab_after_first_round =
            std::max(slab_after_first_round, exec.slab_size());
      }
      if (rounds[i] < max_rounds) submit(i);
    }
  };
  const auto c1 = exec_.create_context(34);
  const auto c2 = exec_.create_context(34);
  Resubmitter r{exec_,
                {exec_.create_stream(c1, StreamPriority::kHigh),
                 exec_.create_stream(c1, StreamPriority::kLow),
                 exec_.create_stream(c2, StreamPriority::kLow)}};
  for (std::size_t i = 0; i < r.streams.size(); ++i) r.submit(i);
  engine_.run();
  for (int n : r.rounds) EXPECT_EQ(n, r.max_rounds);
  EXPECT_EQ(r.peak, 9u);
  EXPECT_EQ(exec_.slab_size(), r.peak);
  EXPECT_EQ(r.slab_after_first_round, r.peak);
  EXPECT_EQ(exec_.live_nodes(), 0u);
}

TEST_F(ExecutorTest, PurgeMidBatchReturnsEveryNodeAndReuseKeepsFifo) {
  struct Starts : TraceSink {
    std::vector<std::uint64_t> tags;
    void on_kernel_start(SimTime, int, int, const KernelDesc& k) override {
      tags.push_back(k.tag);
    }
    void on_kernel_end(SimTime, int, int, const KernelDesc&) override {}
  } starts;
  exec_.set_trace_sink(&starts);
  const auto ctx = exec_.create_context(68);
  const auto s1 = exec_.create_stream(ctx, StreamPriority::kHigh);
  const auto s2 = exec_.create_stream(ctx, StreamPriority::kLow);
  bool purged_fired = false;
  std::vector<KernelDesc> b1(5, kernel(OpClass::kConv, 1.0));
  std::vector<KernelDesc> b2(3, kernel(OpClass::kConv, 1.0));
  exec_.enqueue_batch(s1, std::move(b1), [&](SimTime) { purged_fired = true; });
  exec_.enqueue_batch(s2, std::move(b2), [&](SimTime) { purged_fired = true; });
  EXPECT_EQ(exec_.slab_size(), 8u);
  engine_.run_until(SimTime::from_ms(100));  // mid-batch: some done
  ASSERT_LT(exec_.live_nodes(), 8u);
  ASSERT_GT(exec_.live_nodes(), 2u);

  exec_.purge_all();
  EXPECT_EQ(exec_.live_nodes(), 0u);
  EXPECT_EQ(exec_.slab_size(), 8u);
  EXPECT_FALSE(exec_.stream_busy(s1));
  EXPECT_FALSE(exec_.stream_busy(s2));
  EXPECT_EQ(exec_.stream_queue_length(s1), 0u);
  EXPECT_EQ(exec_.running_kernel_count(), 0);
  EXPECT_TRUE(exec_.running_remaining(s1).is_max());

  // The recovered device reuses the purged nodes; FIFO order holds.
  starts.tags.clear();
  SimTime done;
  for (std::uint64_t tag = 1; tag <= 6; ++tag) {
    KernelDesc k = kernel(OpClass::kConv, 32.0);  // 1 s at 68 SMs
    k.tag = tag;
    exec_.enqueue(s1, k, tag == 6 ? CompletionFn([&](SimTime t) { done = t; })
                                  : CompletionFn{});
  }
  EXPECT_EQ(exec_.slab_size(), 8u);
  EXPECT_EQ(exec_.stream_queue_length(s1), 5u);
  EXPECT_NEAR(exec_.running_remaining(s1).to_sec(), 1.0, 1e-6);
  engine_.run();
  EXPECT_FALSE(purged_fired);
  EXPECT_EQ(starts.tags, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_NEAR((done - SimTime::from_ms(100)).to_sec(), 6.0, 1e-6);
  EXPECT_EQ(exec_.slab_size(), 8u);
  EXPECT_EQ(exec_.live_nodes(), 0u);
  exec_.set_trace_sink(nullptr);
}

TEST_F(ExecutorTest, SameInstantCallbacksSeeConsistentState) {
  // Two identical kernels on two streams finish at the same instant. The
  // first callback enqueues onto its own stream and onto the other one;
  // both callbacks must see every finished kernel retired and every newly
  // enqueued kernel already running.
  struct State {
    ContextId ctx;
    StreamId s1, s2;
    SimTime first_end, a_done, b_done;
    bool second_checked = false;
  } st;
  st.ctx = exec_.create_context(68);
  st.s1 = exec_.create_stream(st.ctx, StreamPriority::kLow);
  st.s2 = exec_.create_stream(st.ctx, StreamPriority::kLow);
  Executor& ex = exec_;
  exec_.enqueue(st.s1, kernel(OpClass::kConv, 1.0), [&ex, &st](SimTime t) {
    st.first_end = t;
    EXPECT_EQ(ex.running_kernel_count(), 0);
    EXPECT_FALSE(ex.stream_busy(st.s1));
    EXPECT_FALSE(ex.stream_busy(st.s2));
    EXPECT_EQ(ex.live_nodes(), 1u);  // s2's retired node, not yet fired
    ex.enqueue(st.s1, kernel(OpClass::kConv, 1.0),
               [&st](SimTime t2) { st.a_done = t2; });
    ex.enqueue(st.s2, kernel(OpClass::kConv, 1.0),
               [&st](SimTime t2) { st.b_done = t2; });
    ex.enqueue(st.s2, kernel(OpClass::kConv, 1.0), {});
    EXPECT_EQ(ex.running_kernel_count(), 2);
    EXPECT_EQ(ex.stream_queue_length(st.s1), 0u);
    EXPECT_EQ(ex.stream_queue_length(st.s2), 1u);
  });
  exec_.enqueue(st.s2, kernel(OpClass::kConv, 1.0), [&ex, &st](SimTime t) {
    EXPECT_EQ(t, st.first_end);
    EXPECT_TRUE(ex.stream_busy(st.s2));
    EXPECT_EQ(ex.stream_queue_length(st.s2), 1u);
    EXPECT_EQ(ex.context_running_count(st.ctx), 2);
    st.second_checked = true;
  });
  engine_.run();
  EXPECT_TRUE(st.second_checked);
  // Round two shares the context 34/34 from the tie instant onward.
  const double r34 = SpeedupModel::rtx2080ti().speedup(OpClass::kConv, 34.0);
  EXPECT_NEAR(st.first_end.to_sec(), 1.0 / r34, 1e-6);
  EXPECT_NEAR(st.a_done.to_sec(), 2.0 / r34, 1e-6);
  EXPECT_EQ(st.a_done, st.b_done);
  EXPECT_EQ(exec_.slab_size(), 4u);
}

/// Checks every running kernel's SMs and rate, bit for bit, against a fresh
/// compute_shares over the executor's current running set (requests in
/// ascending stream order, as the executor sums them).
void expect_fresh_shares(const Executor& ex, const char* where) {
  std::vector<ShareRequest> reqs;
  std::vector<StreamId> ids;
  for (StreamId s = 0; s < ex.stream_count(); ++s) {
    const KernelDesc* k = ex.running_kernel(s);
    if (k == nullptr) {
      EXPECT_EQ(ex.running_grant(s).rate, 0.0) << where << " stream " << s;
      continue;
    }
    const SharingParams& p = ex.sharing_params();
    reqs.push_back(ShareRequest{ex.stream_context(s),
                                ex.stream_priority(s) == StreamPriority::kHigh
                                    ? p.high_priority_weight
                                    : p.low_priority_weight,
                                k->op});
    ids.push_back(s);
  }
  ASSERT_EQ(static_cast<int>(ids.size()), ex.running_kernel_count()) << where;
  if (reqs.empty()) return;
  std::vector<int> ctx_sms;
  for (ContextId c = 0; c < ex.context_count(); ++c) {
    ctx_sms.push_back(ex.context_sm_limit(c));
  }
  ShareBuffers fresh;
  compute_shares(ex.speedup_model(), ex.device().total_sms, ctx_sms, reqs,
                 ex.sharing_params(), fresh);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ShareGrant g = ex.running_grant(ids[i]);
    EXPECT_EQ(g.sms, fresh.grants[i].sms) << where << " stream " << ids[i];
    EXPECT_EQ(g.rate, fresh.grants[i].rate) << where << " stream " << ids[i];
  }
}

/// The full sharing model: contention, interference and thrash all on, so
/// the cached running-set factor is far from 1.
class ExecutorShareTest : public ::testing::Test {
 protected:
  ExecutorShareTest()
      : exec_(engine_, rtx2080ti(), SpeedupModel::rtx2080ti(),
              SharingParams{}) {}
  sim::Engine engine_;
  Executor exec_;
};

TEST_F(ExecutorShareTest, SuccessorOfAnotherOpClassKeepsTheRunningSet) {
  const auto c0 = exec_.create_context(40);
  const auto c1 = exec_.create_context(40);  // 80 > 68: over-subscribed
  const auto s1 = exec_.create_stream(c0, StreamPriority::kHigh);
  const auto s2 = exec_.create_stream(c0, StreamPriority::kLow);
  const auto s3 = exec_.create_stream(c1, StreamPriority::kLow);
  exec_.enqueue(s1, kernel(OpClass::kConv, 0.05), {});
  exec_.enqueue(s1, kernel(OpClass::kLinear, 0.05), {});
  exec_.enqueue(s2, kernel(OpClass::kReLU, 5.0), {});
  exec_.enqueue(s3, kernel(OpClass::kMaxPool, 5.0), {});
  expect_fresh_shares(exec_, "after enqueues");
  const double conv_rate = exec_.running_grant(s1).rate;
  const auto recomputes = exec_.set_recompute_count();
  const auto reschedules = exec_.reschedule_count();

  // s1's conv finishes and its linear successor starts at once: the
  // running set is unchanged, so only the successor is rated.
  ASSERT_TRUE(engine_.step());
  ASSERT_EQ(exec_.running_kernel(s1)->op, OpClass::kLinear);
  EXPECT_EQ(exec_.reschedule_count(), reschedules + 1);
  EXPECT_EQ(exec_.set_recompute_count(), recomputes);
  expect_fresh_shares(exec_, "successor started");
  EXPECT_NE(exec_.running_grant(s1).rate, conv_rate);

  // s1 then goes idle: the set changed, shares are recomputed for s2, s3.
  ASSERT_TRUE(engine_.step());
  EXPECT_EQ(exec_.running_kernel(s1), nullptr);
  EXPECT_EQ(exec_.set_recompute_count(), recomputes + 1);
  expect_fresh_shares(exec_, "s1 idle");
  EXPECT_EQ(exec_.running_grant(s2).sms, 40.0);
}

TEST_F(ExecutorShareTest, SeededMixMatchesFreshShareComputeAfterEveryEvent) {
  // Three over-subscribed contexts, six streams of both priorities, random
  // batches of mixed op classes arriving at random instants. Completion
  // callbacks re-enqueue onto their own stream and onto another one at the
  // same instant, and the device is purged mid-batch once.
  for (int sms : {40, 34, 51}) exec_.create_context(sms);
  for (int i = 0; i < 6; ++i) {
    exec_.create_stream(i % 3, i % 2 == 0 ? StreamPriority::kHigh
                                          : StreamPriority::kLow);
  }
  struct Mix {
    Executor* ex;
    common::Rng rng{20240601};
    int cross_enqueues = 0;
    KernelDesc random_kernel() {
      const auto op = static_cast<OpClass>(rng.uniform_int(0, 8));
      // Quantized work makes equal-length kernels (and ties) common.
      return kernel(op, 0.002 * static_cast<double>(rng.uniform_int(1, 5)),
                    rng.uniform_int(0, 3) == 0 ? 1e-5 : 0.0);
    }
    void batch(StreamId s, int depth) {
      const int n = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i + 1 < n; ++i) ex->enqueue(s, random_kernel(), {});
      ex->enqueue(s, random_kernel(), [this, s, depth](SimTime) {
        if (depth >= 3 || rng.uniform_int(0, 1) == 0) return;
        const auto other = static_cast<StreamId>(rng.uniform_int(0, 5));
        ex->enqueue(s, random_kernel(), {});
        batch(other, depth + 1);
        if (other != s) ++cross_enqueues;
      });
    }
  } mix{&exec_};

  constexpr int kArrivals = 400;
  int arrived = 0;
  bool purged = false;
  for (int i = 0; i < kArrivals; ++i) {
    const SimTime at = SimTime::from_sec(mix.rng.uniform(0.0, 1.0));
    const auto s = static_cast<StreamId>(mix.rng.uniform_int(0, 5));
    engine_.schedule_at(at, [&, s] {
      mix.batch(s, 0);
      if (++arrived == kArrivals / 2) {
        ASSERT_GT(exec_.live_nodes(), 1u);
        exec_.purge_all();
        purged = true;
        expect_fresh_shares(exec_, "purged");
        mix.batch(s, 0);
      }
    });
  }
  int events = 0;
  while (engine_.step()) {
    ++events;
    expect_fresh_shares(exec_, "after event");
    if (HasFailure()) break;
  }
  EXPECT_TRUE(purged);
  EXPECT_GT(mix.cross_enqueues, 20);
  EXPECT_EQ(exec_.live_nodes(), 0u);
  // Both paths ran: many reschedules kept the running set, many changed it.
  EXPECT_GT(exec_.set_recompute_count(), 200u);
  EXPECT_GT(exec_.reschedule_count() - exec_.set_recompute_count(), 200u);
  EXPECT_GT(events, 1000);
}

// Parameterized: N equal kernels in one context finish simultaneously and
// the makespan matches the analytic processor-sharing prediction.
class EqualSplitSweep : public ::testing::TestWithParam<int> {};

TEST_P(EqualSplitSweep, MakespanMatchesAnalytic) {
  const int n = GetParam();
  sim::Engine engine;
  Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                clean_params());
  const auto ctx = exec.create_context(68);
  std::vector<SimTime> ends;
  for (int i = 0; i < n; ++i) {
    const auto s = exec.create_stream(ctx, StreamPriority::kLow);
    exec.enqueue(s, kernel(OpClass::kConv, 1.0),
                 [&](SimTime t) { ends.push_back(t); });
  }
  engine.run();
  ASSERT_EQ(ends.size(), static_cast<std::size_t>(n));
  const double share = 68.0 / n;
  const double expected =
      1.0 / SpeedupModel::rtx2080ti().speedup(OpClass::kConv, share);
  for (const auto& e : ends) EXPECT_NEAR(e.to_sec(), expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Fanout, EqualSplitSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace sgprs::gpu

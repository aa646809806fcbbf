// Steady-state allocation pin: once a single device has warmed up, the
// release -> stage dispatch -> kernel execution -> completion loop must not
// touch the heap.
//
// This file replaces the global operator new with a counting one, so it is
// built as its own test executable (sgprs_alloc_tests) and never links into
// sgprs_tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gpu/context_pool.hpp"
#include "gpu/executor.hpp"
#include "gpu/trace.hpp"
#include "metrics/collector.hpp"
#include "rt/runner.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/scenario.hpp"
#include "workload/spec.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sgprs {
namespace {

using common::SimTime;

/// Counts kernel completions: the window's size in executor work.
class CompletionCounter final : public gpu::TraceSink {
 public:
  void on_kernel_start(SimTime, int, int, const gpu::KernelDesc&) override {}
  void on_kernel_end(SimTime, int, int, const gpu::KernelDesc&) override {
    ++completions;
  }
  std::int64_t completions = 0;
};

TEST(SteadyStateAlloc, SgprsDeviceLoopIsAllocationFree) {
  // One device shaped like the paper's Scenario 1: 2 contexts at
  // over-subscription 1.5, 16 ResNet18 streams @ 30 fps, 6 stages.
  const workload::ScenarioSpec spec = workload::load_scenario_spec(
      std::string(SGPRS_SOURCE_DIR) + "/scenarios/paper_scenario1.json");
  const workload::ScenarioConfig cfg = workload::lower(spec);
  ASSERT_EQ(cfg.scheduler, rt::SchedulerKind::kSgprs);

  sim::Engine engine;
  gpu::Executor exec(engine, cfg.device, gpu::SpeedupModel::rtx2080ti(),
                     cfg.sharing);
  gpu::ContextPool pool(exec, workload::pool_config_for(cfg));
  std::vector<int> pool_sizes;
  for (const auto& pc : pool.contexts()) {
    if (std::find(pool_sizes.begin(), pool_sizes.end(), pc.sm_limit) ==
        pool_sizes.end()) {
      pool_sizes.push_back(pc.sm_limit);
    }
  }
  const std::vector<rt::Task> tasks =
      workload::task_builder_for(spec)(cfg, pool_sizes);
  metrics::Collector collector(cfg.warmup);
  rt::SgprsScheduler scheduler(exec, pool, collector, cfg.sgprs);
  CompletionCounter counter;
  exec.set_trace_sink(&counter);
  rt::RunnerConfig rcfg;
  rcfg.duration = cfg.duration;
  rcfg.jitter_seed = cfg.seed;
  rt::Runner runner(engine, scheduler, tasks, rcfg);

  // Warm up: every slab, pool, heap and histogram grows to its high-water
  // mark during the first frames.
  runner.start();
  engine.run_until(SimTime::from_ms(500));
  ASSERT_GT(counter.completions, 0);

  const std::int64_t completions_before = counter.completions;
  const std::int64_t allocs_before = g_allocations.load();
  engine.run_until(cfg.duration - SimTime::from_ms(1));
  const std::int64_t allocs = g_allocations.load() - allocs_before;
  const std::int64_t window = counter.completions - completions_before;

  ASSERT_GE(window, 10000) << "window too short to pin the steady state";
  EXPECT_EQ(allocs, 0) << allocs << " heap allocations over " << window
                       << " kernel completions";
  exec.set_trace_sink(nullptr);
}

}  // namespace
}  // namespace sgprs

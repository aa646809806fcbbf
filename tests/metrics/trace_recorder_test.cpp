#include "metrics/trace_recorder.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "common/check.hpp"

namespace sgprs::metrics {
namespace {

using common::SimTime;

// Labels view their text (in the simulator, a Network-owned layer name),
// so the helper takes a view of a string literal, never a temporary.
gpu::KernelDesc kernel(std::string_view label, std::uint64_t tag = 0) {
  gpu::KernelDesc k;
  k.op = gpu::OpClass::kConv;
  k.label = label;
  k.tag = tag;
  return k;
}

TEST(TraceRecorder, PairsStartEnd) {
  TraceRecorder rec;
  rec.on_kernel_start(SimTime::from_us(10), 0, 0, kernel("conv1"));
  rec.on_kernel_end(SimTime::from_us(25), 0, 0, kernel("conv1"));
  EXPECT_EQ(rec.event_count(), 1u);
}

TEST(TraceRecorder, JsonContainsCompleteEvent) {
  TraceRecorder rec;
  rec.on_kernel_start(SimTime::from_us(10), 1, 2, kernel("conv1", 7));
  rec.on_kernel_end(SimTime::from_us(30), 1, 2, kernel("conv1", 7));
  std::ostringstream os;
  rec.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"conv1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":20"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"job\":7"), std::string::npos);
}

TEST(TraceRecorder, ConcurrentStreamsTrackedIndependently) {
  TraceRecorder rec;
  rec.on_kernel_start(SimTime::from_us(0), 0, 0, kernel("a"));
  rec.on_kernel_start(SimTime::from_us(5), 0, 1, kernel("b"));
  rec.on_kernel_end(SimTime::from_us(20), 0, 1, kernel("b"));
  rec.on_kernel_end(SimTime::from_us(30), 0, 0, kernel("a"));
  EXPECT_EQ(rec.event_count(), 2u);
}

TEST(TraceRecorder, DoubleStartOnStreamThrows) {
  TraceRecorder rec;
  rec.on_kernel_start(SimTime::zero(), 0, 0, kernel("a"));
  EXPECT_THROW(rec.on_kernel_start(SimTime::zero(), 0, 0, kernel("b")),
               common::CheckError);
}

TEST(TraceRecorder, EndWithoutStartThrows) {
  TraceRecorder rec;
  EXPECT_THROW(rec.on_kernel_end(SimTime::zero(), 0, 0, kernel("a")),
               common::CheckError);
}

TEST(TraceRecorder, UnlabelledKernelFallsBackToOpName) {
  TraceRecorder rec;
  gpu::KernelDesc k;
  k.op = gpu::OpClass::kMaxPool;
  rec.on_kernel_start(SimTime::zero(), 0, 0, k);
  rec.on_kernel_end(SimTime::from_us(1), 0, 0, k);
  std::ostringstream os;
  rec.write_json(os);
  EXPECT_NE(os.str().find("\"name\":\"maxpool\""), std::string::npos);
}

TEST(TraceRecorder, ClearResetsEvents) {
  TraceRecorder rec;
  rec.on_kernel_start(SimTime::zero(), 0, 0, kernel("a"));
  rec.on_kernel_end(SimTime::from_us(1), 0, 0, kernel("a"));
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
}

}  // namespace
}  // namespace sgprs::metrics

// Kernel descriptor: the unit of work submitted to a stream.
//
// Work is expressed in SM-seconds (execution time on exactly one SM), so
// the executor derives the duration at any partition size from the
// per-op-class SpeedupModel; launch overhead never scales with SMs.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "gpu/op_class.hpp"

namespace sgprs::gpu {

/// A kernel launch. `work_sm_seconds` is the kernel's execution time when
/// run on exactly one SM (so duration at m SMs is work / speedup(op, m)).
/// `overhead_seconds` is the launch overhead, which never scales with SMs.
/// Trivially copyable, so the executor stores and moves it for free.
struct KernelDesc {
  OpClass op = OpClass::kOther;
  double work_sm_seconds = 0.0;
  double overhead_seconds = 0.0;
  /// Opaque caller cookie carried through to trace events (e.g. job id).
  std::uint64_t tag = 0;
  /// Debug label; not used by the executor itself. Views the layer name a
  /// dnn::Network owns, so it is valid while the task's network lives.
  std::string_view label;
};

static_assert(std::is_trivially_copyable_v<KernelDesc>);

}  // namespace sgprs::gpu

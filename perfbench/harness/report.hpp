// The benchmark's result line: {"correct", "attempted", "failed",
// "metrics"} as one JSON object on the last line of standard output.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "outcome.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations are simulated frames. Dropped, shed and faulted frames are
/// outcomes the simulator computed correctly (deadline_met_ratio reports
/// them); a frame fails as an operation only when its run fails the
/// output check.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;  // frames released, over every timed run
  std::vector<Metric> metrics;
  /// The simulated outcome the checks ran on (one representative run).
  Outcome outcome;
};

/// A run whose output check failed counts every frame as failed.
void print_result(const Result& r, std::ostream& out);

double median(std::vector<double> v);

}  // namespace perfbench

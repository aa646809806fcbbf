// Traced run (--trace 1): per-layer metrics measured outside-in, from
// timed calls into each module's public functions (perfbench/README.md
// § Per-layer metrics). Nothing under src/ is instrumented for it.
#pragma once

#include <string>

#include "report.hpp"

namespace perfbench {

Result trace_layers(const std::string& spec_path);

}  // namespace perfbench

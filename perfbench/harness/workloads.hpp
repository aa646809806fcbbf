// The benchmark's three workloads (perfbench/README.md § Workloads).
//
// Each workload is a scenario-spec template whose seeds come from the
// benchmark's --seed: the harness renders the spec as JSON, writes it to
// the work directory and the simulator only ever sees that file, loaded
// through the public workload::load_scenario_spec path.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// The spec JSON for (workload, seed): same arguments, same bytes. Throws
/// std::invalid_argument on an unknown workload.
std::string render_spec(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench

// Traced replay: a single-threaded replay of the run's seeded request
// stream through each layer's public functions, with spans kept in memory
// and written out when it ends.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "domain.hpp"

namespace pb {

using Metrics = std::vector<std::pair<std::string, double>>;

// Runs the replay for `workload` and returns the per-layer metrics it
// measures. Writes the span dump to `spans_path` (JSON lines) when
// non-empty and prints the self-time table to stdout.
Metrics run_replay(const Domain& domain, Workload workload, std::uint64_t seed, bool smoke,
                   const std::string& spans_path);

}  // namespace pb

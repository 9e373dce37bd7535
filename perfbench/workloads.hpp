// The benchmark's workloads: each is a seeded synthetic arrival stream at a
// stated offered load, one scheduling algorithm, and (for nulb-faults) a
// fault plan plus a migration plan.  Everything here is derived from the
// workload name and the seed, so the same seed gives the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/fault_plan.hpp"
#include "sim/migration_plan.hpp"
#include "sim/scenario.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string_view name;
  std::string_view algorithm;
  /// Offered CPU load: lifetime / mean interarrival x E[CPU units per VM]
  /// / cluster CPU units.
  double rho = 0.0;
  /// Box failures (MTBF plan), retries and migration sweeps.
  bool lifecycle = false;
  /// Stream length.  Fixed per workload: nulb-faults' heap grows with the
  /// number of box failures, so its peak_rss_mb depends on this length.
  std::size_t count = 0;
};

/// nullptr when `name` is not a workload.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Every workload name, comma-separated (for usage messages).
[[nodiscard]] std::string workload_names();

/// Everything one run needs, built from (workload, seed).
struct Inputs {
  risa::sim::Scenario scenario;       ///< paper defaults, plans attached
  risa::wl::SyntheticConfig stream;   ///< fixed-lifetime synthetic stream
  std::uint64_t seed = 0;
  double lifetime_tu = 0.0;
  double span_tu = 0.0;               ///< last arrival time of the stream
};

/// Build the inputs: the fixed lifetime that gives the workload's offered
/// load on the paper's cluster, the stream's span (drained once from a
/// fresh source), and for lifecycle workloads the compiled MTBF plan over
/// that span with RetryPolicy{2, 50 tu} and MigrationPlan{500 tu, 4}.
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench

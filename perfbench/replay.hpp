// Outside-in layer replay: a standalone stack built from the simulator's
// public constructors (topo::Cluster, net::Fabric, net::Router,
// net::CircuitTable, core::make_allocator, phot::PowerLedger,
// des::LadderCalendar) replays a plan-free arrival stream in the engine's
// (time, seq) order -- arrivals win ties, and same-time departures settle
// inside one begin/end_release_batch bracket.  Every call into a layer is
// wrapped in a span {name, start, end, parent} kept in memory; the spans
// can be written as Chrome-trace JSON, which sim::summarize_trace_file
// reads and checks for strict nesting.
//
// The replay's outcome counts are compared with the engine's on the same
// stream, so the per-layer numbers describe the program's real decisions.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "workload/arrival_source.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  Pull,      ///< wl::ArrivalSource::next_batch
  NextTime,  ///< des::LadderCalendar::next_time (merge query)
  Admit,     ///< one arrival (parent of the five below)
  PoolMask,  ///< topo::RackAvailabilityIndex::pool_mask, read-only probe
  Place,     ///< core::Allocator::try_place
  FindPath,  ///< net::Router::find_path, read-only probe on placed boxes
  Charge,    ///< phot::PowerLedger::charge_vm
  Push,      ///< des::LadderCalendar::push
  Settle,    ///< one departure window (parent of the three below)
  Pop,       ///< des::LadderCalendar::pop
  Release,   ///< core::Allocator::release_batched
  EndBatch,  ///< topo::Cluster::end_release_batch
};
inline constexpr std::size_t kNumSpanNames = 12;
inline constexpr std::array<const char*, kNumSpanNames> kSpanNames = {
    "workload.next_batch", "des.next_time",      "sim.admit",
    "topology.pool_mask",  "core.try_place",     "network.find_path",
    "photonics.charge_vm", "des.push",           "sim.settle",
    "des.pop",             "core.release_batched", "topology.end_release_batch"};

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint64_t start = 0;  ///< cycle-clock ticks
  std::uint64_t end = 0;
  std::uint32_t parent = kNoParent;  ///< index into the span vector
  SpanName name{};
};

/// Outcomes that must equal the engine's plan-free run on the same stream.
struct ReplayCounts {
  std::uint64_t total_vms = 0;
  std::uint64_t placed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t inter_rack = 0;  ///< CPU and RAM in different racks
  std::uint64_t events = 0;      ///< arrivals + departures
  double rtt_mean_ns = 0.0;
  double optical_power_w = 0.0;
  double horizon_tu = 0.0;
};

/// Per-name span aggregate (self = duration minus child spans).
struct SpanAgg {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

struct ReplayResult {
  ReplayCounts counts;
  std::vector<Span> spans;      ///< in start order (parents first)
  double ns_per_tick = 0.0;     ///< calibrated over the replay
  double wall_s = 0.0;
  std::uint64_t pulled = 0;     ///< VMs pulled from the source
  std::uint64_t peak_pending = 0;
  std::uint64_t circuits = 0;   ///< circuits held by placed VMs, summed
  std::uint64_t release_batches = 0;

  [[nodiscard]] std::array<SpanAgg, kNumSpanNames> aggregate() const;
  /// Durations (ns) of every span with `name`, unsorted.
  [[nodiscard]] std::vector<double> durations_ns(SpanName name) const;
};

/// Replay `source` (rewound first) through a fresh stack for `scenario`
/// with the named algorithm.  The scenario's fault and migration plans are
/// ignored: the replay covers admission and settlement only.
[[nodiscard]] ReplayResult replay(const risa::sim::Scenario& scenario,
                                  const std::string& algorithm,
                                  risa::wl::ArrivalSource& source);

/// Write the spans as Chrome-trace JSON ("X" events, one track).  Times are
/// written as exact multiples of 1/1024 us, so a child's end never reads
/// past its parent's after parsing.  Returns false when the file cannot be
/// written.
[[nodiscard]] bool write_chrome_trace(const ReplayResult& result,
                                      const std::string& path);

}  // namespace perfbench

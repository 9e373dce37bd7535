// The mutable state of one Engine run and its event handlers (DESIGN.md
// §7).  Internal to the engine: included by sim/engine.cpp, which holds the
// merge loop and one handler per des::LifecycleKind, and by
// sim/checkpoint.cpp, which holds checkpoint format v1 as a single field
// list over this state.  A RunState lives on run_impl's stack for exactly
// one run; everything that must survive across runs (calendar, record
// arena, slot pool, scratch) stays on the Engine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/placement.hpp"
#include "des/lifecycle.hpp"
#include "photonics/power_ledger.hpp"
#include "sim/engine.hpp"
#include "sim/phase_profiler.hpp"

namespace risa::sim {

struct Engine::RunState {
  using Entry = des::LadderCalendar<des::LifecycleEvent>::Entry;

  RunState(Engine& engine, wl::ArrivalSource& src,
           const CheckpointPolicy* policy, const std::string& workload_label);

  // --- Run constants --------------------------------------------------------
  Engine& eng;
  wl::ArrivalSource& source;
  const CheckpointPolicy* ckpt;
  /// The run's fault and migration scripts (the scenario's, unless the
  /// sweep layer swapped in other plans for this cell).
  const FaultPlan& plan;
  const MigrationPlan& mig;
  /// Run telemetry (DESIGN.md §14): every hook rides a branch the loop takes
  /// anyway behind `tel != nullptr` -- no TSC reads, no stores when off.
  Telemetry* const tel;
  /// `lifecycle` gates every injected-event branch so the empty-plans loop
  /// stays byte-for-byte the typed reference loop (DESIGN.md §7);
  /// `migrating` gates the sweep machinery on top of it (an empty
  /// MigrationPlan is bit-identical to the fault-only loop).
  const bool migrating;
  const bool lifecycle;
  /// Widens the timeline-only holding-power maintenance to telemetry's
  /// power track; observation only, never a metric.
  const bool track_power;

  // --- Simulation state (all of it checkpointed) ---------------------------
  SimMetrics m;
  phot::PowerLedger ledger;
  PerResource<TimeWeightedMean> util;  ///< time-weighted signals
  TimeWeightedMean intra_util, inter_util;
  Rng fault_rng;
  SimTime now = 0.0;
  /// Degraded-operation integral bookkeeping (see note_time).
  SimTime last_event_t = 0.0;
  std::uint64_t executed = 0;
  std::size_t live_count = 0;
  std::size_t admissions = 0;
  std::size_t next_admission_action = 0;
  /// Keeps the migration schedule alive across windows where every VM is
  /// dead but re-placements are still coming.
  std::size_t pending_retries = 0;
  std::uint32_t migration_budget = 0;
  /// Arrival-ordering contract cursor (validated per refill).
  SimTime last_arrival = 0.0;
  std::uint32_t last_arrival_index = 0;
  bool seen_arrival = false;
  /// Per-reason drop tallies, enum-indexed, plus first-seen order so the
  /// end-of-run drops_by_reason keeps the insertion order the fingerprint
  /// hashes.
  std::array<std::int64_t, core::kNumDropReasons> drop_counts{};
  std::array<core::DropReason, core::kNumDropReasons> drop_first_seen{};
  std::size_t drop_kinds = 0;

  // --- Loop-local state (not in the checkpoint) -----------------------------
  /// Arrival ring cursor.  After a top-of-loop refill an empty ring means
  /// the source is exhausted, so "no arrivals pending" is simply
  /// `ring_pos >= ring_len` everywhere.
  std::size_t ring_pos = 0;
  std::size_t ring_len = 0;
  bool source_done = false;
  /// Instantaneous optical holding power for the timeline and telemetry
  /// (`track_power`); per-VM deltas live in the VM records, and a load
  /// rebuilds the sum from them.
  double holding_power_w = 0.0;
  /// Raw cycle ticks spent in admission try_place (scheduler_exec_seconds).
  std::uint64_t sched_ticks = 0;
  std::uint64_t last_ckpt_executed = 0;
  core::DropReason drop_reason{};  ///< the last failed attempt's reason
  des::LifecycleKind kill_cause = des::LifecycleKind::BoxFail;
  PhaseTimer prof;

  // --- Event handlers, one per LifecycleKind --------------------------------
  void on_admission_window(SimTime limit);  ///< Arrival
  void on_departure_window(const Entry& e);  ///< Departure
  void on_fault(const Entry& e);  ///< Box/Link Fail/Repair
  void on_migrate(const Entry& e);  ///< Migrate
  void on_retry(const Entry& e);  ///< Retry

  // --- Steps the handlers share ---------------------------------------------
  void prepare();
  void refill_ring();
  void maybe_checkpoint();
  void sample_signals(SimTime t);
  void record_timeline(SimTime t);
  void tel_sample(SimTime t);
  void note_time(SimTime t);
  void count_drop();
  std::uint32_t acquire_slot();
  bool admit(std::uint32_t vm_index, const wl::VmRequest& vm, double expected,
             bool defer_push, bool defer_sample);
  void fire_admission_triggers();
  bool requeue(std::uint32_t vm_index, VmState& st);
  void kill_vm(std::uint32_t vm_index, VmState& st);
  void collect_live_sorted();
  void execute_action(std::uint32_t action_index, bool fail);
  bool try_migrate(std::uint32_t vm_index);
  void run_migration_sweep();

  // --- Checkpoint format v1 (sim/checkpoint.cpp) ----------------------------
  void save(std::ostream& os);
  void load(std::istream& is);
  template <class Io>
  void transfer(Io& io);
};

}  // namespace risa::sim

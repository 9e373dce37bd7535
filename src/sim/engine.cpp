#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/cycle_clock.hpp"
#include "sim/migration.hpp"
#include "sim/run_state.hpp"
#include "sim/telemetry.hpp"

namespace risa::sim {

namespace {
/// Arrival refill size: large enough to amortize the virtual next_batch
/// call across the merge loop, small enough that the in-flight chunk is
/// noise next to the live census.  Chunk boundaries double as checkpoint
/// safe points (DESIGN.md §11).
constexpr std::size_t kArrivalChunk = 1024;
/// Upper bound on size_hint-driven pre-sizing (the record table, calendar
/// and scan scratch are census-bounded, so reserving past any plausible
/// live census only wastes RSS on streaming runs).
constexpr std::uint64_t kCensusReserveCap = 1u << 16;
constexpr SimTime kNeverTime = std::numeric_limits<SimTime>::infinity();

using des::LifecycleEvent;
using des::LifecycleKind;

LifecycleKind action_kind(const FaultAction& a) {
  switch (a.kind) {
    case FaultAction::Kind::Fail: return LifecycleKind::BoxFail;
    case FaultAction::Kind::Repair: return LifecycleKind::BoxRepair;
    case FaultAction::Kind::LinkFail: return LifecycleKind::LinkFail;
    case FaultAction::Kind::LinkRepair: return LifecycleKind::LinkRepair;
  }
  throw std::logic_error("Engine: bad FaultAction kind");
}
}  // namespace

Engine::Engine(const Scenario& scenario, const std::string& algorithm)
    : scenario_(scenario), algorithm_(algorithm) {
  scenario_.validate();
  cluster_ = std::make_unique<topo::Cluster>(scenario_.cluster);
  fabric_ = std::make_unique<net::Fabric>(scenario_.cluster, scenario_.fabric);
  router_ = std::make_unique<net::Router>(*fabric_);
  circuits_ = std::make_unique<net::CircuitTable>(*router_);
  allocator_ = core::make_allocator(algorithm_, context(), scenario_.allocator);
}

core::AllocContext Engine::context() noexcept {
  core::AllocContext ctx;
  ctx.cluster = cluster_.get();
  ctx.fabric = fabric_.get();
  ctx.router = router_.get();
  ctx.circuits = circuits_.get();
  ctx.bandwidth = scenario_.bandwidth;
  return ctx;
}

void Engine::set_algorithm(const std::string& algorithm) {
  if (algorithm == algorithm_) return;
  // make_allocator validates the name; algorithm_ only changes on success.
  allocator_ = core::make_allocator(algorithm, context(), scenario_.allocator);
  algorithm_ = algorithm;
}

void Engine::reset() {
  // Order matters only for clarity: circuits are records over fabric state,
  // so both are wiped; nothing here touches the heap-allocated topology.
  cluster_->reset();
  fabric_->reset();
  circuits_->clear();
  allocator_->reset();
}

SimMetrics Engine::run(const wl::Workload& workload,
                       const std::string& workload_label) {
  // Fail fast on malformed input, before any event mutates state: a
  // negative lifetime would put a departure before its own arrival.
  // (A streaming run applies the identical check per chunk at intake --
  // the whole stream cannot be pre-scanned.)
  for (const wl::VmRequest& vm : workload) {
    if (vm.lifetime < 0) {
      throw std::invalid_argument("Engine: negative lifetime in workload");
    }
  }
  wl::WorkloadSource source(workload);
  return run_impl(source, workload_label, nullptr, nullptr);
}

SimMetrics Engine::run_stream(wl::ArrivalSource& source,
                              const std::string& workload_label,
                              const CheckpointPolicy* checkpoint) {
  source.rewind();
  return run_impl(source, workload_label, checkpoint, nullptr);
}

SimMetrics Engine::resume_stream(std::istream& checkpoint,
                                 wl::ArrivalSource& source,
                                 const CheckpointPolicy* policy) {
  // The label travels inside the checkpoint; run_impl restores it.
  return run_impl(source, std::string(), policy, &checkpoint);
}

SimMetrics Engine::run_impl(wl::ArrivalSource& source,
                            const std::string& workload_label,
                            const CheckpointPolicy* ckpt,
                            std::istream* resume) {
  using Clock = std::chrono::steady_clock;
  const auto run_t0 = Clock::now();
  // Scheduler timing runs on raw cycle ticks (~5 ns a read vs ~30 ns for
  // steady_clock through the vDSO -- two reads per placement attempt made
  // the instrumentation itself a top-line cost at bench scale).  Ticks are
  // converted to seconds once at the end of the run, calibrated against the
  // steady_clock span the run measures anyway for sim_wall_seconds.
  const std::uint64_t run_ticks0 = CycleClock::now();

  reset();
  RunState s(*this, source, ckpt, workload_label);
  s.prepare();
  if (resume != nullptr) {
    s.load(*resume);
  } else {
    s.sample_signals(0.0);
  }
  if (s.tel != nullptr) {
    // After restore: the sampler re-arms at the restored `now` (fresh
    // runs at 0), so a resumed run's telemetry continues cleanly without
    // any state having crossed the checkpoint.
    s.tel->begin_run(algorithm_, s.m.workload, s.now);
    s.tel_sample(s.now);
  }
  s.last_ckpt_executed = s.executed;

  // The merged event loop.  Next event = min over the arrival ring head
  // (time = arrival, seq = index) and the injected-event calendar head; at
  // equal times the arrival's smaller seq wins, so the comparison reduces
  // to arrival_time <= injected_time.  Each event kind has one handler.
  //
  // The whole loop runs under the Merge span: every other phase span nests
  // inside it, and with exclusive attribution (CycleSpanStack) the Merge
  // slot collects exactly the loop's residual scaffolding -- ring
  // bookkeeping, the window condition, event dispatch (DESIGN.md §13).
  PhaseTimer& prof = s.prof;
  prof.begin(phase_slot(Phase::Merge));
  while (true) {
    if (s.ring_pos >= s.ring_len && !s.source_done) {
      // Chunk boundary: every pulled arrival is fully settled, so this is
      // the checkpoint safe point -- snapshot (if due), then refill.
      s.maybe_checkpoint();
      s.refill_ring();
    }
    const bool have_arrival = s.ring_pos < s.ring_len;
    if (!have_arrival && events_.empty()) break;
    // The Calendar span brackets the merge query *and* the pop: the
    // ladder's real dequeue work (lazy tier surfacing) runs inside
    // next_time(), not inside the subsequent cursor-bump pop.
    prof.begin(phase_slot(Phase::Calendar));
    const SimTime limit = events_.empty() ? kNeverTime : events_.next_time();
    if (have_arrival && arrival_ring_[s.ring_pos].vm.arrival <= limit) {
      prof.end();
      s.on_admission_window(limit);
      continue;
    }
    const auto e = events_.pop();
    prof.end();
    switch (e.payload.kind) {
      case LifecycleKind::Departure: s.on_departure_window(e); break;
      case LifecycleKind::BoxFail:
      case LifecycleKind::BoxRepair:
      case LifecycleKind::LinkFail:
      case LifecycleKind::LinkRepair: s.on_fault(e); break;
      case LifecycleKind::Migrate: s.on_migrate(e); break;
      case LifecycleKind::Retry: s.on_retry(e); break;
      case LifecycleKind::Arrival:
        throw std::logic_error("Engine: arrival event in injected calendar");
    }
  }
  prof.end();  // Merge: the loop's residual scaffolding

  // End-of-run settlement: derived metrics, then the conservation checks.
  SimMetrics& m = s.m;
  m.horizon_tu = s.now;
  if (m.horizon_tu <= 0.0) m.horizon_tu = 1.0;  // degenerate empty workload
  m.events_executed = s.executed;
  for (std::size_t k = 0; k < s.drop_kinds; ++k) {
    m.drops_by_reason.increment(
        core::name(s.drop_first_seen[k]),
        s.drop_counts[static_cast<std::size_t>(s.drop_first_seen[k])]);
  }
  for (ResourceType ty : kAllResources) {
    m.avg_utilization[ty] = s.util[ty].mean(m.horizon_tu);
    m.peak_utilization[ty] = s.util[ty].peak();
  }
  m.avg_intra_net_utilization = s.intra_util.mean(m.horizon_tu);
  m.avg_inter_net_utilization = s.inter_util.mean(m.horizon_tu);
  m.peak_intra_net_utilization = s.intra_util.peak();
  m.peak_inter_net_utilization = s.inter_util.peak();
  m.energy = s.ledger.totals();
  m.avg_optical_power_w = s.ledger.average_power_w(m.horizon_tu);

  if (m.placed + m.dropped != m.total_vms) {
    throw std::logic_error("Engine: placement accounting mismatch");
  }
  if (s.live_count != 0) {
    throw std::logic_error("Engine: placements leaked past their departure");
  }
  if (!vms_.empty()) {
    throw std::logic_error("Engine: VM records leaked past the run end");
  }
  cluster_->check_invariants();
  fabric_->check_invariants();

  // Calibrate the tick rate over the whole run and settle the wall-clock
  // metrics.  Both clocks bracket the same span, so seconds-per-tick is
  // exact up to scheduling noise; a zero-tick span (degenerate workload on
  // the steady_clock fallback) reports zero scheduler time rather than NaN.
  // A resumed run's wall metrics cover only the resumed segment.
  const std::uint64_t run_ticks = CycleClock::now() - run_ticks0;
  m.sim_wall_seconds =
      std::chrono::duration<double>(Clock::now() - run_t0).count();
  const double seconds_per_tick =
      run_ticks > 0 ? m.sim_wall_seconds / static_cast<double>(run_ticks) : 0.0;
  m.scheduler_exec_seconds =
      static_cast<double>(s.sched_ticks) * seconds_per_tick;
  if (prof.enabled()) profile_from_ticks(m.profile, prof, seconds_per_tick);
  if (s.tel != nullptr) {
    s.tel_sample(s.now);  // closing sample: the run's final (empty) census
    s.tel->finish_run(m.profile.recorded ? &m.profile : nullptr);
  }
  if (latency_hist_ != nullptr) {
    latency_hist_->set_value_scale(seconds_per_tick * 1e9);
  }
  return std::move(s.m);
}

// ---- RunState: set-up ------------------------------------------------------

Engine::RunState::RunState(Engine& engine, wl::ArrivalSource& src,
                           const CheckpointPolicy* policy,
                           const std::string& workload_label)
    : eng(engine),
      source(src),
      ckpt(policy),
      plan(engine.fault_plan()),
      mig(engine.migration_plan()),
      tel(engine.telemetry_),
      migrating(!mig.empty()),
      lifecycle(!plan.empty() || migrating),
      track_power(engine.timeline_ != nullptr ||
                  (tel != nullptr && tel->category(kTracePower))),
      ledger(engine.scenario_.photonics, *engine.fabric_),
      fault_rng(plan.seed) {
  m.algorithm = std::string(eng.allocator_->name());
  m.workload = workload_label;
  // Phase attribution (sim/phase_profiler.hpp): cycle-clock spans around
  // the loop's phases, exclusive under nesting.  Disabled, every hook is a
  // single predictable branch.
  prof.reset();
  prof.enable(eng.profiling_);
}

void Engine::RunState::prepare() {
  plan.validate();
  mig.validate();
  for (const FaultAction& a : plan.actions) {
    if (a.box != FaultAction::kNoBox && a.box >= eng.cluster_->num_boxes()) {
      throw std::invalid_argument("Engine: FaultAction box id out of range");
    }
    if (a.link != FaultAction::kNoLink && a.link >= eng.fabric_->num_links()) {
      throw std::invalid_argument("Engine: FaultAction link id out of range");
    }
  }

  // Per-VM records, keyed by workload index: created at admission (or
  // first requeue), erased at the VM's final event, so the table tracks
  // the live census + pending retries instead of the stream length.
  eng.vms_.clear();
  // Every pool slot starts free, lowest index on top of the stack, so a
  // reused engine assigns the same slot sequence as a fresh one.
  auto& free_slots = eng.free_slots_;
  free_slots.resize(eng.slot_pool_.size());
  for (std::size_t i = 0; i < free_slots.size(); ++i) {
    free_slots[i] = static_cast<std::uint32_t>(free_slots.size() - 1 - i);
  }

  // Injected events restart their sequence numbering at the source's size
  // hint so every equal-time tie against a pending arrival (seq = workload
  // index < N) resolves in the arrival's favor -- the exact order the
  // closure calendar produced.  A source that cannot know its length
  // reports 0, which is equally sound: the merge comparison is structural
  // (arrivals win ties), so a uniform shift of every injected seq preserves
  // the heap's relative order (DESIGN.md §11).
  eng.events_.reset(/*first_seq=*/source.size_hint());

  // Pre-size the census-bounded containers from the source's size hint,
  // capped by the cluster's own hosting bound (every VM holds >= 1 CPU
  // unit) so a 10M-VM stream reserves for its possible live census, not
  // its length -- and no rehash/regrow lands inside the measured loop.
  if (const std::uint64_t hint = source.size_hint(); hint > 0) {
    const auto cpu_units = static_cast<std::uint64_t>(
        std::max<Units>(eng.cluster_->total_capacity(ResourceType::Cpu), 0));
    const std::uint64_t census = std::min(
        hint, std::min(std::max<std::uint64_t>(cpu_units, 1), kCensusReserveCap));
    eng.vms_.reserve(static_cast<std::size_t>(census));
    eng.events_.reserve(static_cast<std::size_t>(census));
    eng.scan_scratch_.reserve(static_cast<std::size_t>(census));
  }

  // Compiled fault triggers.  Time-triggered actions enter the calendar up
  // front (in plan order, so their seq assignment is deterministic);
  // admission-triggered ones wait in a threshold-sorted queue and are
  // injected at the admission that crosses their threshold.
  if (lifecycle) {
    eng.admission_actions_.clear();
    for (std::uint32_t i = 0; i < plan.actions.size(); ++i) {
      const FaultAction& a = plan.actions[i];
      if (a.time_triggered()) {
        eng.events_.push(a.at_time, LifecycleEvent{action_kind(a), i, 0});
      } else {
        eng.admission_actions_.push_back(i);
      }
    }
    std::stable_sort(eng.admission_actions_.begin(),
                     eng.admission_actions_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return plan.actions[a].after_admissions <
                              plan.actions[b].after_admissions;
                     });
  }

  // Migration budget + the seed sweep event.  Pushed after the
  // time-triggered fault actions so the injected seq assignment is
  // deterministic: plan actions in plan order, then the first MIGRATE,
  // then stream-order events (DESIGN.md §9 extends the §8 contract).
  if (migrating) {
    migration_budget = mig.total_budget;
    eng.events_.push(mig.first_sweep_time(),
                     LifecycleEvent{LifecycleKind::Migrate, 0, 0});
  }
  if (eng.arrival_ring_.size() < kArrivalChunk) {
    eng.arrival_ring_.resize(kArrivalChunk);
  }
}

// ---- RunState: shared steps ------------------------------------------------

void Engine::RunState::sample_signals(SimTime t) {
  for (ResourceType ty : kAllResources) {
    util[ty].update(t, eng.cluster_->utilization(ty));
  }
  intra_util.update(t, eng.fabric_->intra_utilization());
  inter_util.update(t, eng.fabric_->inter_utilization());
}

void Engine::RunState::record_timeline(SimTime t) {
  if (eng.timeline_ == nullptr) return;
  TimelinePoint p;
  p.time = t;
  p.active_vms = live_count;
  p.placed_total = m.placed;
  p.dropped_total = m.dropped;
  p.killed_total = m.killed;
  p.migrated_total = m.migrated;
  p.offline_boxes = eng.cluster_->offline_box_count();
  p.failed_links = eng.fabric_->failed_link_count();
  for (ResourceType ty : kAllResources) {
    p.utilization[ty] = eng.cluster_->utilization(ty);
  }
  p.intra_net_utilization = eng.fabric_->intra_utilization();
  p.inter_net_utilization = eng.fabric_->inter_utilization();
  p.optical_power_w = holding_power_w;
  eng.timeline_->record(p);
}

// One telemetry counter-track sample at sim time `t` (only called with
// tel != nullptr; the cadence gate is the caller's sample_due check).
void Engine::RunState::tel_sample(SimTime t) {
  Telemetry::CounterSample cs;
  cs.live_vms = live_count;
  cs.offline_boxes = eng.cluster_->offline_box_count();
  cs.failed_links = eng.fabric_->failed_link_count();
  cs.arrival_ring_depth = ring_len - ring_pos;
  cs.calendar_events = eng.events_.size();
  cs.holding_power_w = holding_power_w;
  tel->sample(t, cs);
}

// Degraded-operation integral: simulated time spent with >= 1 box offline
// or link failed, accumulated per inter-event gap (state is piecewise
// constant between events, exactly like the utilization signals).
void Engine::RunState::note_time(SimTime t) {
  if (eng.cluster_->offline_box_count() > 0 ||
      eng.fabric_->failed_link_count() > 0) {
    m.degraded_tu += t - last_event_t;
  }
  last_event_t = t;
}

void Engine::RunState::count_drop() {
  if (drop_counts[static_cast<std::size_t>(drop_reason)]++ == 0) {
    drop_first_seen[drop_kinds++] = drop_reason;
  }
}

std::uint32_t Engine::RunState::acquire_slot() {
  if (eng.free_slots_.empty()) {
    eng.slot_pool_.emplace_back();
    return static_cast<std::uint32_t>(eng.slot_pool_.size() - 1);
  }
  const std::uint32_t slot = eng.free_slots_.back();
  eng.free_slots_.pop_back();
  return slot;
}

// Arrival intake: chunked pulls from the source into a fixed ring,
// validated against the (arrival, index) ordering contract as they stream
// in.  Leaves an empty ring only when the source is exhausted.
void Engine::RunState::refill_ring() {
  const ScopedCycleSpan<PhaseTimer> span(prof, phase_slot(Phase::SourcePull));
  auto& ring = eng.arrival_ring_;
  ring_len = source.next_batch(
      std::span<wl::ArrivalItem>(ring.data(), kArrivalChunk));
  ring_pos = 0;
  if (ring_len == 0) {
    source_done = true;
    return;
  }
  for (std::size_t i = 0; i < ring_len; ++i) {
    const wl::ArrivalItem& it = ring[i];
    if (it.vm.lifetime < 0) {
      throw std::invalid_argument("Engine: negative lifetime in workload");
    }
    if (seen_arrival &&
        (it.vm.arrival < last_arrival ||
         (it.vm.arrival == last_arrival && it.index <= last_arrival_index))) {
      throw std::invalid_argument(
          "Engine: arrival source violates (arrival, index) ordering");
    }
    last_arrival = it.vm.arrival;
    last_arrival_index = it.index;
    seen_arrival = true;
  }
}

void Engine::RunState::maybe_checkpoint() {
  if (ckpt == nullptr || ckpt->every_events == 0 || !ckpt->emit) return;
  if (executed - last_ckpt_executed < ckpt->every_events) return;
  last_ckpt_executed = executed;
  const ScopedCycleSpan<PhaseTimer> span(prof, phase_slot(Phase::Checkpoint));
  std::ostringstream os(std::ios::out | std::ios::binary);
  save(os);
  ckpt->emit(os.str());
}

// One placement attempt (arrival or retry) for `vm_index`, holding for
// `expected` time units when it sticks.  On success all metrics/state
// updates happen here -- in the exact order of the historical arrival path,
// which keeps the empty-plan run bit-identical.  On failure the reason
// lands in `drop_reason` and the caller applies its retry/drop policy.
//
// `vm` is passed in (not read from the record) because arrivals have no
// record yet; record references stay valid across the whole call either way
// -- the SlotArena hands out slab-stable references, so even the success
// path's insert cannot move a resident record.
//
// The caller holds the Admission profiler span open: one span per admission
// window (or per retry attempt), not one per VM (DESIGN.md §13).
//
// `defer_push` (plan-free windows only): the departure is staged in
// arrival_push_scratch_ and the caller bulk-flushes at window close --
// seq-identical because no other push interleaves.  `defer_sample`
// (windows without a timeline): the signal sample is the caller's job, so
// equal-time admission runs sample once.
bool Engine::RunState::admit(std::uint32_t vm_index, const wl::VmRequest& vm,
                             double expected, bool defer_push,
                             bool defer_sample) {
  // Placement attribution is free: the run times every try_place for
  // scheduler_exec_seconds anyway, so the same two reads are carved out of
  // the admission span instead of paying two more.
  const std::uint64_t t0 = CycleClock::now();
  auto placed = eng.allocator_->try_place(vm);
  const std::uint64_t t1 = CycleClock::now();
  prof.carve(phase_slot(Phase::Placement), t1 - t0);
  sched_ticks += t1 - t0;
  if (eng.latency_hist_ != nullptr) {
    eng.latency_hist_->add(static_cast<double>(t1 - t0));
  }

  if (!placed.ok()) {
    drop_reason = placed.error();
    return false;
  }
  const std::uint32_t slot = acquire_slot();
  core::Placement& p = eng.slot_pool_[slot];
  p = std::move(placed.value());
  VmState& st = eng.vms_.find_or_insert(vm_index);
  st.vm = vm;
  st.slot = slot;
  st.live = 1;
  ++live_count;
  ++admissions;
  if (!lifecycle) {
    ++m.placed;
  } else if (!st.ever_placed) {
    ++m.placed;
    st.ever_placed = 1;
  }
  if (p.inter_rack) ++m.any_pair_inter_rack;
  if (p.used_fallback) ++m.fallback_placements;

  // Figures 5/7/10 count a VM as inter-rack when its CPU and RAM racks
  // differ; the same flag drives the RTT sample (pod-aware in the
  // three-tier extension).  Counted per placement event, so a requeued VM's
  // re-placement samples again (diagnostic semantics under faults;
  // identical to the historical per-VM count when the plan is empty).
  const bool cpu_ram_inter =
      p.rack(ResourceType::Cpu) != p.rack(ResourceType::Ram);
  if (cpu_ram_inter) ++m.inter_rack_placements;
  const bool cross_pod =
      cpu_ram_inter && !eng.fabric_->same_pod(p.rack(ResourceType::Cpu),
                                              p.rack(ResourceType::Ram));
  m.cpu_ram_latency_ns.add(eng.scenario_.latency.rtt_ns(cpu_ram_inter, cross_pod));

  // Open the photonic charging interval at its expected length (Eq. (1)
  // prepay; a later kill settles the difference -- DESIGN.md §8).  No ledger
  // span here: a TSC pair would cost as much as the handful of adds it
  // measures, so the per-arrival charge rides in `admission`.
  ledger.charge_vm(*eng.circuits_, vm.id, expected);

  if (track_power) {
    double vm_power = 0.0;
    eng.circuits_->for_each_circuit_of(vm.id, [&](const net::Circuit& c) {
      vm_power +=
          phot::circuit_holding_power_w(eng.scenario_.photonics, *eng.fabric_, c);
    });
    holding_power_w += vm_power;
    st.holding_power = vm_power;
  }

  if (!defer_sample) {
    sample_signals(now);
    record_timeline(now);
  }
  std::uint32_t epoch = 0;
  if (lifecycle) {
    st.place_time = now;
    st.expected_hold = expected;
    epoch = ++st.epoch;
  }
  // The push is the ladder's O(1) append path (DESIGN.md §12) -- cheaper
  // than a TSC pair, so it rides in `admission` too.
  const LifecycleEvent departure{LifecycleKind::Departure, vm_index, epoch};
  if (defer_push) {
    eng.arrival_push_scratch_.emplace_back(now + expected, departure);
  } else {
    eng.events_.push(now + expected, departure);
  }
  return true;
}

// Inject admission-triggered fault actions whose threshold the latest
// successful placement crossed.  They enter the merged stream at `now`
// (seq > N), so they fire after the admission that tripped them and before
// any later-time event -- deterministically.
void Engine::RunState::fire_admission_triggers() {
  while (next_admission_action < eng.admission_actions_.size()) {
    const std::uint32_t ai = eng.admission_actions_[next_admission_action];
    const FaultAction& a = plan.actions[ai];
    if (a.after_admissions > static_cast<std::int64_t>(admissions)) break;
    ++next_admission_action;
    eng.events_.push(now, LifecycleEvent{action_kind(a), ai, 0});
  }
}

// Requeue `vm_index` when the retry budget allows; returns whether a RETRY
// event was scheduled.
bool Engine::RunState::requeue(std::uint32_t vm_index, VmState& st) {
  if (plan.retry.max_attempts == 0 || st.attempts >= plan.retry.max_attempts) {
    return false;
  }
  ++st.attempts;
  ++m.requeued;
  ++pending_retries;
  if (tel != nullptr) tel->requeue(now);
  eng.events_.push(now + plan.retry.delay_tu,
                   LifecycleEvent{LifecycleKind::Retry, vm_index, 0});
  return true;
}

// Kill a resident VM at `now`: settle its charging interval, tear down
// circuits + compute, and requeue the remaining hold when policy allows.
// When no retry follows, this is the VM's final event and its record is
// erased (a stale Departure then tombstones on the missing record).  The
// caller's `st` reference is dead after this returns.  Runs inside the
// caller's open release batch, so compute frees defer their aggregate
// refresh to the shared end_release_batch.
void Engine::RunState::kill_vm(std::uint32_t vm_index, VmState& st) {
  const double held = now - st.place_time;
  const double unused = st.expected_hold - held;
  prof.begin(phase_slot(Phase::Ledger));
  ledger.refund_vm_truncation(*eng.circuits_, st.vm.id, unused);
  prof.end();
  eng.allocator_->release_batched(eng.slot_pool_[st.slot]);
  eng.free_slots_.push_back(st.slot);
  st.live = 0;
  --live_count;
  ++m.killed;
  if (tel != nullptr) tel->kill(now, kill_cause);
  if (track_power) {
    holding_power_w -= st.holding_power;
    st.holding_power = 0.0;
  }
  bool retained = false;
  if (unused > 0.0) {
    st.expected_hold = unused;  // the re-placement's hold
    retained = requeue(vm_index, st);
  }
  if (!retained) eng.vms_.erase(vm_index);
}

// Deterministic victim scan: the record arena iterates in slot order
// (reuse-dependent), so live VM indices are collected and sorted ascending
// before any kill fires -- kills (and their requeues) then happen in the
// historical dense-scan order.  kill_vm only mutates (or erases) the
// victim's own record, so collect-then-kill equals an interleaved scan.
void Engine::RunState::collect_live_sorted() {
  auto& scan = eng.scan_scratch_;
  scan.clear();
  eng.vms_.for_each([&](std::uint32_t idx, const VmState& st) {
    if (st.live) scan.push_back(idx);
  });
  std::sort(scan.begin(), scan.end());
}

// Execute one scripted fail/repair action.  Random victims are drawn here,
// in merged-stream order, from the plan's own RNG stream.  Transitions are
// idempotent (re-failing an offline victim is a no-op), so duplicate random
// draws are harmless.  Every teardown scan is one settlement window:
// compute frees batch their per-(rack, type) aggregate refresh behind
// end_release_batch (no placement query can interleave with the scan).
void Engine::RunState::execute_action(std::uint32_t action_index, bool fail) {
  const FaultAction& a = plan.actions[action_index];
  topo::Cluster& cluster = *eng.cluster_;
  net::Fabric& fabric = *eng.fabric_;
  if (a.targets_links()) {
    kill_cause = LifecycleKind::LinkFail;
    const std::uint32_t draws =
        a.link != FaultAction::kNoLink ? 1 : a.random_links;
    for (std::uint32_t k = 0; k < draws; ++k) {
      const LinkId victim =
          a.link != FaultAction::kNoLink
              ? LinkId{a.link}
              : LinkId{static_cast<std::uint32_t>(fault_rng.uniform_int(
                    0, static_cast<std::int64_t>(fabric.num_links()) - 1))};
      if (fabric.link(victim).failed() == fail) continue;
      fabric.set_link_failed(victim, fail);
      if (!fail) continue;
      // Dead-link teardown: every live VM holding a circuit that traverses
      // the failed link dies (in VM-index order).
      collect_live_sorted();
      cluster.begin_release_batch();
      for (const std::uint32_t i : eng.scan_scratch_) {
        VmState* st = eng.vms_.find(i);
        if (st == nullptr || !st->live) continue;
        bool hit = false;
        eng.circuits_->for_each_circuit_of(
            st->vm.id, [&](const net::Circuit& c) {
              for (const LinkId lid : c.path.links) {
                if (lid == victim) {
                  hit = true;
                  break;
                }
              }
            });
        if (hit) kill_vm(i, *st);
      }
      cluster.end_release_batch();
    }
  } else {
    kill_cause = LifecycleKind::BoxFail;
    const std::uint32_t draws =
        a.box != FaultAction::kNoBox ? 1 : a.random_boxes;
    for (std::uint32_t k = 0; k < draws; ++k) {
      const BoxId victim =
          a.box != FaultAction::kNoBox
              ? BoxId{a.box}
              : BoxId{static_cast<std::uint32_t>(fault_rng.uniform_int(
                    0, static_cast<std::int64_t>(cluster.num_boxes()) - 1))};
      if (cluster.box_unchecked(victim).offline() == fail) continue;
      cluster.set_box_offline(victim, fail);
      if (!fail) continue;
      // Offline-box teardown: every resident VM dies with its circuits.
      collect_live_sorted();
      cluster.begin_release_batch();
      for (const std::uint32_t i : eng.scan_scratch_) {
        VmState* st = eng.vms_.find(i);
        if (st == nullptr || !st->live) continue;
        const core::Placement& p = eng.slot_pool_[st->slot];
        for (ResourceType t : kAllResources) {
          if (p.box(t) == victim) {
            kill_vm(i, *st);
            break;
          }
        }
      }
      cluster.end_release_batch();
    }
  }
  sample_signals(now);
  record_timeline(now);
}

// One live-migration attempt at `now` (DESIGN.md §9).  Make-before-break:
// the new placement is established through the normal allocator path while
// the old one still holds its resources (the old boxes are temporarily
// taken offline so the search cannot pick them -- restored before any
// signal is sampled), then the old circuits and compute are retired
// atomically.  The PowerLedger settles with a prepay-and-settle split: the
// old circuits are charged through now + cost (the double-charge window
// while state drains), the new ones prepay the remaining hold.  Returns
// whether the migration committed.  Nothing here inserts into or erases
// from the record table, so `st` stays valid throughout.
bool Engine::RunState::try_migrate(std::uint32_t vm_index) {
  topo::Cluster& cluster = *eng.cluster_;
  net::CircuitTable& circuits = *eng.circuits_;
  VmState& st = *eng.vms_.find(vm_index);
  const wl::VmRequest& vm = st.vm;
  core::Placement& old_p = eng.slot_pool_[st.slot];
  const int old_score = migration_spread_score(old_p, *eng.fabric_);
  const double remaining = st.place_time + st.expected_hold - now;
  // remaining > cost is guaranteed by the sweep's candidate filter (same
  // instant, same inputs); both are still needed for settlement.
  const double cost = migration_cost_tu(
      mig, vm.ram_mb, old_p.demand.cpu_ram,
      eng.scenario_.photonics.switch_energy.seconds_per_time_unit);
  const auto k_old = static_cast<std::uint32_t>(circuits.circuit_count_of(vm.id));

  // Exclude the current boxes from the search (they are distinct: one box
  // per resource type), remembering exactly what we toggled.
  std::array<BoxId, kNumResourceTypes> toggled;
  std::size_t n_toggled = 0;
  for (ResourceType t : kAllResources) {
    const BoxId b = old_p.box(t);
    if (!cluster.box_unchecked(b).offline()) {
      cluster.set_box_offline(b, true);
      toggled[n_toggled++] = b;
    }
  }
  // Not counted into scheduler_exec_seconds or the latency histogram:
  // Figures 11/12 measure admission scheduling only.
  auto placed = eng.allocator_->try_place(vm);
  for (std::size_t k = 0; k < n_toggled; ++k) {
    cluster.set_box_offline(toggled[k], false);
  }
  if (!placed.ok()) return false;  // nowhere better; placement untouched

  core::Placement new_p = std::move(placed.value());
  if (mig.only_if_improves &&
      migration_spread_score(new_p, *eng.fabric_) >= old_score) {
    // No improvement: roll the fresh placement back untouched.  Its
    // circuits are exactly the suffix after the old placement's.  The three
    // compute frees settle as one window (no query interleaves).
    circuits.teardown_suffix(vm.id, k_old);
    cluster.begin_release_batch();
    for (ResourceType t : kAllResources) {
      cluster.release_batched(new_p.compute[index(t)]);
    }
    cluster.end_release_batch();
    return false;
  }

  // Settle the ledger at the migration instant: the old circuits (the
  // prefix, in establishment order) refund their tail beyond the cost
  // window; the new ones open an interval for the remaining hold.
  std::size_t pos = 0;
  prof.begin(phase_slot(Phase::Ledger));
  circuits.for_each_circuit_of(vm.id, [&](const net::Circuit& c) {
    if (pos < k_old) {
      ledger.refund_circuit_truncation(c, remaining - cost);
    } else {
      ledger.charge_circuit(c, remaining);
    }
    ++pos;
  });
  prof.end();

  // Retire the old placement: circuits, then compute -- the compute frees
  // batched as one settlement window.
  circuits.teardown_prefix(vm.id, k_old);
  const bool was_inter =
      old_p.rack(ResourceType::Cpu) != old_p.rack(ResourceType::Ram);
  cluster.begin_release_batch();
  for (ResourceType t : kAllResources) {
    cluster.release_batched(old_p.compute[index(t)]);
  }
  cluster.end_release_batch();

  const bool now_inter =
      new_p.rack(ResourceType::Cpu) != new_p.rack(ResourceType::Ram);
  old_p = std::move(new_p);  // the VM's pool slot is reused in place
  st.place_time = now;
  st.expected_hold = remaining;
  const std::uint32_t epoch = ++st.epoch;
  eng.events_.push(now + remaining,
                   LifecycleEvent{LifecycleKind::Departure, vm_index, epoch});

  ++m.migrated;
  m.migration_tu += cost;
  if (was_inter && !now_inter) ++m.interrack_vms_recovered;

  if (track_power) {
    double vm_power = 0.0;
    circuits.for_each_circuit_of(vm.id, [&](const net::Circuit& c) {
      vm_power +=
          phot::circuit_holding_power_w(eng.scenario_.photonics, *eng.fabric_, c);
    });
    holding_power_w += vm_power - st.holding_power;
    st.holding_power = vm_power;
  }
  sample_signals(now);
  record_timeline(now);
  return true;
}

// One defragmentation sweep at `now`: gather the spread live VMs whose
// remaining hold outlasts their migration cost, rank them worst-first, and
// attempt up to the per-sweep budget.  Slot-order iteration is safe here:
// the live/spread counters are order-independent sums, candidate keys are
// unique (the packed key embeds the VM index), and rank_worst_spread
// totally orders them.
void Engine::RunState::run_migration_sweep() {
  if (mig.skip_while_degraded && (eng.cluster_->offline_box_count() > 0 ||
                                  eng.fabric_->failed_link_count() > 0)) {
    return;
  }
  auto& keys = eng.mig_keys_;
  keys.clear();
  std::size_t live = 0, spread = 0;
  eng.vms_.for_each([&](std::uint32_t i, const VmState& st) {
    if (!st.live) return;
    ++live;
    const core::Placement& p = eng.slot_pool_[st.slot];
    const int score = migration_spread_score(p, *eng.fabric_);
    if (score <= 0) return;
    ++spread;  // counts toward the fraction trigger even when doomed
    // Filter doomed candidates here, not in try_migrate: a near-departure
    // VM ranked first would otherwise burn a per-sweep attempt slot that a
    // long-lived straggler could have used.
    const double remaining = st.place_time + st.expected_hold - now;
    const double cost = migration_cost_tu(
        mig, st.vm.ram_mb, p.demand.cpu_ram,
        eng.scenario_.photonics.switch_energy.seconds_per_time_unit);
    if (remaining <= cost) return;
    keys.push_back(pack_candidate(score, i));
  });
  if (keys.empty() || live == 0) return;
  if (static_cast<double>(spread) <
      mig.min_interrack_fraction * static_cast<double>(live)) {
    return;
  }
  const std::size_t budget = std::min<std::size_t>(
      keys.size(), std::min<std::size_t>(mig.per_sweep_budget, migration_budget));
  rank_worst_spread(keys, budget);
  for (std::size_t k = 0; k < budget; ++k) {
    if (try_migrate(candidate_index(keys[k]))) --migration_budget;
  }
}

// ---- RunState: event handlers ----------------------------------------------

// Admission window (DESIGN.md §13).  The maximal run of ring arrivals that
// sorts before the calendar head is admitted under one bracket: one
// Admission span, batched executed/total_vms counters, and the per-event
// branches hoisted to per-window checks.  `limit` makes the inner loop
// exact: it starts at the calendar head and is lowered by every push the
// window performs (a deferred departure at now+expected directly; any
// lifecycle push -- retry, trigger, departure -- by re-reading
// next_time()), so "arrival <= limit" is precisely the merge comparison the
// per-event loop would have made, ties included.  No injected event can
// execute inside a window, which licenses the hoists below:
//   - degraded: fault state only changes via events, so the note_time()
//     branch is per-window; when healthy, degraded_tu accumulates nothing
//     and last_event_t advances once at close.  When degraded, per-event
//     note_time keeps the FP-exact per-gap sum.
//   - defer_sample (no timeline attached): only admissions move
//     utilization inside a window and equal-time TWM samples add zero area,
//     so an equal-time admission run samples once, at its last success --
//     value, area and peak exact because utilization only rises across the
//     run.  Samples at distinct times still happen per event.
//   - defer_push (plan-free runs): departure pushes stage in
//     arrival_push_scratch_ and bulk-flush at window close with identical
//     seq assignment, since no retry/trigger push can interleave.
void Engine::RunState::on_admission_window(SimTime limit) {
  const auto& ring = eng.arrival_ring_;
  const bool batching = eng.admission_batching_;
  const bool defer_push = batching && !lifecycle;
  const bool defer_sample = batching && eng.timeline_ == nullptr;
  const bool degraded =
      lifecycle && (eng.cluster_->offline_box_count() > 0 ||
                    eng.fabric_->failed_link_count() > 0);
  bool sample_pending = false;
  SimTime sample_t = 0.0;
  std::uint64_t window_events = 0;
  const SimTime window_t0 = tel != nullptr ? ring[ring_pos].vm.arrival : 0.0;
  const std::uint64_t placed_before = tel != nullptr ? m.placed : 0;
  if (defer_push) eng.arrival_push_scratch_.clear();
  prof.begin(phase_slot(Phase::Admission));
  do {
    const wl::ArrivalItem& item = ring[ring_pos++];
    const std::uint32_t vm_index = item.index;
    now = item.vm.arrival;
    if (degraded) note_time(now);
    ++window_events;
    if (sample_pending && now != sample_t) {
      // Time advanced past a deferred equal-time sample: utilization has
      // not moved since (only drops in between), so sampling the current
      // state at sample_t is exact.
      sample_signals(sample_t);
      sample_pending = false;
    }
    if (admit(vm_index, item.vm, item.vm.lifetime, defer_push, defer_sample)) {
      if (defer_sample) {
        sample_pending = true;
        sample_t = now;
      }
      if (defer_push) {
        limit = std::min(limit, eng.arrival_push_scratch_.back().first);
      }
      if (lifecycle) fire_admission_triggers();
    } else {
      bool queued = false;
      if (lifecycle && plan.retry.max_attempts > 0) {
        // First requeue of a never-admitted VM creates its record (the
        // retry path needs the request after the ring moves on).
        VmState& st = eng.vms_.find_or_insert(vm_index);
        st.vm = item.vm;
        queued = requeue(vm_index, st);
        if (!queued) eng.vms_.erase(vm_index);
      }
      if (!queued) {
        ++m.dropped;
        count_drop();
        if (tel != nullptr) tel->drop(now, drop_reason);
      }
    }
    if (lifecycle) {
      // Lifecycle pushes (retries, triggers, epoch-stamped departures)
      // interleave with the window, so the head is re-read rather than
      // tracked incrementally.
      limit = eng.events_.empty() ? kNeverTime : eng.events_.next_time();
    }
    if (!batching) break;  // per-event reference mode
  } while (ring_pos < ring_len && ring[ring_pos].vm.arrival <= limit);
  if (sample_pending) sample_signals(sample_t);
  if (defer_push && !eng.arrival_push_scratch_.empty()) {
    eng.events_.push_bulk(eng.arrival_push_scratch_);
  }
  executed += window_events;
  m.total_vms += window_events;
  if (lifecycle && !degraded) last_event_t = now;
  prof.end();
  if (tel != nullptr) {
    tel->admission_window(window_t0, now, window_events,
                          m.placed - placed_before);
    if (tel->sample_due(now)) tel_sample(now);
  }
}

// Settlement window (DESIGN.md §12): the whole same-timestamp departure run
// is drained out of the calendar into a scratch batch first (ties are
// contiguous at the ladder's sorted bottom tier), then settled under one
// begin/end_release_batch bracket: the per-rack aggregate/index refresh is
// deferred and deduplicated across the run, box ledgers / cluster totals /
// circuits settle per event, and the time-weighted signals are sampled once
// per window -- bit-identical to per-event sampling, because equal-time
// samples add zero area and releases only lower utilization, so they can
// never set a peak (timeline runs keep per-event samples: the exported
// series is observable output).  No placement can interleave: equal-time
// arrivals were all consumed before this event (arrivals win every (time,
// seq) tie), and any other injected kind ends the window.  One span covers
// drain + settle; the drained pops are cursor bumps off the surfaced bottom.
void Engine::RunState::on_departure_window(const Entry& e) {
  auto& events = eng.events_;
  auto& batch = eng.batch_scratch_;
  // A departure whose record is gone, no longer live, or of an older epoch
  // is a tombstone: that placement was killed (only possible with a plan).
  auto stale = [&](const Entry& d, const VmState* st) {
    if (st != nullptr && st->live &&
        (!lifecycle || d.payload.epoch == st->epoch)) {
      return false;
    }
    if (!lifecycle) {
      throw std::logic_error("Engine: departure for unknown placement");
    }
    return true;
  };
  if (stale(e, eng.vms_.find(e.payload.subject))) return;
  now = e.time;
  if (lifecycle) note_time(now);
  prof.begin(phase_slot(Phase::Settlement));
  batch.clear();
  batch.push_back(e);
  while (!events.empty() && events.next_time() == now &&
         events.top().payload.kind == LifecycleKind::Departure) {
    batch.push_back(events.pop());
  }
  eng.cluster_->begin_release_batch();
  for (const Entry& d : batch) {
    const std::uint32_t vm_index = d.payload.subject;
    VmState* st = eng.vms_.find(vm_index);
    if (stale(d, st)) continue;
    ++executed;
    eng.allocator_->release_batched(eng.slot_pool_[st->slot]);
    eng.free_slots_.push_back(st->slot);
    --live_count;
    if (track_power) holding_power_w -= st->holding_power;
    if (eng.timeline_ != nullptr) {
      sample_signals(now);
      record_timeline(now);
    }
    // The departure is the VM's final event: erase its record (the slot is
    // recycled, so `st` dies here).
    eng.vms_.erase(vm_index);
  }
  eng.cluster_->end_release_batch();
  if (eng.timeline_ == nullptr) sample_signals(now);
  prof.end();
  if (tel != nullptr) {
    tel->settlement_window(now, batch.size());
    if (tel->sample_due(now)) tel_sample(now);
  }
}

void Engine::RunState::on_fault(const Entry& e) {
  now = e.time;
  note_time(now);
  ++executed;
  {
    const ScopedCycleSpan<PhaseTimer> span(prof, phase_slot(Phase::Settlement));
    execute_action(e.payload.subject,
                   e.payload.kind == LifecycleKind::BoxFail ||
                       e.payload.kind == LifecycleKind::LinkFail);
  }
  if (tel != nullptr) {
    tel->fault(now, e.payload.kind);
    if (tel->sample_due(now)) tel_sample(now);
  }
}

void Engine::RunState::on_migrate(const Entry& e) {
  // A sweep landing after the run's real work (no pending arrivals, nothing
  // live, no retries in flight) is skipped like a tombstone: it neither
  // advances the horizon nor reschedules, so periodic plans terminate.
  // `ring_pos >= ring_len` here implies the source is exhausted.
  if (ring_pos >= ring_len && live_count == 0 && pending_retries == 0) return;
  now = e.time;
  note_time(now);
  ++executed;
  const std::uint64_t migrated_before = tel != nullptr ? m.migrated : 0;
  {
    const ScopedCycleSpan<PhaseTimer> span(prof, phase_slot(Phase::Settlement));
    run_migration_sweep();
  }
  if (tel != nullptr) {
    tel->migration_sweep(now, m.migrated - migrated_before);
    if (tel->sample_due(now)) tel_sample(now);
  }
  // A sweep neither kills nor requeues, so the work checked above is still
  // pending: only the budget decides whether the schedule continues.
  if (migration_budget > 0) {
    eng.events_.push(now + mig.period_tu,
                     LifecycleEvent{LifecycleKind::Migrate,
                                    e.payload.subject + 1, 0});
  }
}

void Engine::RunState::on_retry(const Entry& e) {
  const std::uint32_t vm_index = e.payload.subject;
  --pending_retries;
  now = e.time;
  note_time(now);
  ++executed;
  VmState* st = eng.vms_.find(vm_index);
  if (st == nullptr) throw std::logic_error("Engine: retry for unknown VM");
  // `st` stays valid through the attempt either way: arena records are
  // slab-stable, so a successful admit's re-insert of the same key cannot
  // move it (DESIGN.md §13).
  const bool was_placed = st->ever_placed != 0;
  const double expected = was_placed ? st->expected_hold : st->vm.lifetime;
  prof.begin(phase_slot(Phase::Admission));
  const bool readmitted = admit(vm_index, st->vm, expected,
                                /*defer_push=*/false, /*defer_sample=*/false);
  prof.end();
  if (readmitted) {
    ++m.retry_placed;
    fire_admission_triggers();
  } else if (!requeue(vm_index, *st)) {
    // Retry budget exhausted: the VM's final event, so the record goes.  A
    // VM that never ran is a final drop (killed VMs already count in
    // `placed`; their lost remainder shows through `killed` and energy).
    if (!was_placed) {
      ++m.dropped;
      count_drop();
      if (tel != nullptr) tel->drop(now, drop_reason);
    }
    eng.vms_.erase(vm_index);
  }
  if (tel != nullptr) tel->retry(now, readmitted);
}

std::vector<SimMetrics> run_all_algorithms(const Scenario& scenario,
                                           const wl::Workload& workload,
                                           const std::string& workload_label) {
  std::vector<SimMetrics> out;
  std::unique_ptr<Engine> engine;  // one stack, rebound per algorithm
  for (const std::string& algo : core::algorithm_names()) {
    if (engine == nullptr) {
      engine = std::make_unique<Engine>(scenario, algo);
    } else {
      engine->set_algorithm(algo);
    }
    out.push_back(engine->run(workload, workload_label));
  }
  return out;
}

}  // namespace risa::sim

// Checkpoint format v1, magic "RSK1" (DESIGN.md §11).
//
// One field list, two directions: Engine::RunState::transfer walks every
// field exactly once, in byte order, over an Io that either puts it
// (Writer, over bin::put_*) or gets it (Reader, over bin::get_*).  Only the
// steps where a load has to act on the engine branch on Io::kLoading: the
// cluster snapshot and offline boxes, deferred link failures, circuit
// adoption, slot acquisition and the calendar restore.  Every check a load
// makes throws std::runtime_error before the bad value can be used.
//
// A checkpoint is taken only at the loop's safe point (arrival ring empty,
// top of the merge loop), so no in-flight chunk state exists: every
// consumed arrival has been fully admitted/dropped/requeued, and the
// source's own position marks the first unconsumed request.  Wall-clock
// state (sched_ticks, the latency histogram) is deliberately excluded --
// it is measurement, not simulation, and the fingerprint never hashes it.
#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/binio.hpp"
#include "sim/run_state.hpp"

namespace risa::sim {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x314B5352u;  // "RSK1"

// Counters are std::size_t in the engine and u64 on the wire.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

class Writer {
 public:
  static constexpr bool kLoading = false;
  explicit Writer(std::ostream& os) : os(os) {}
  void u8(std::uint8_t v) { bin::put_u8(os, v); }
  void u32(std::uint32_t v) { bin::put_u32(os, v); }
  void u64(std::uint64_t v) { bin::put_u64(os, v); }
  void i64(std::int64_t v) { bin::put_i64(os, v); }
  void f64(double v) { bin::put_f64(os, v); }
  void flag(bool v) { bin::put_u8(os, v ? 1 : 0); }
  void str(const std::string& v) { bin::put_str(os, v); }
  template <class Tag>
  void id(Id<Tag> v) { bin::put_u32(os, v.value()); }
  template <class E>
  void enum8(E v) { bin::put_u8(os, static_cast<std::uint8_t>(v)); }
  std::ostream& os;
};

class Reader {
 public:
  static constexpr bool kLoading = true;
  explicit Reader(std::istream& is) : is(is) {}
  void u8(std::uint8_t& v) { v = bin::get_u8(is); }
  void u32(std::uint32_t& v) { v = bin::get_u32(is); }
  void u64(std::uint64_t& v) { v = bin::get_u64(is); }
  void i64(std::int64_t& v) { v = bin::get_i64(is); }
  void f64(double& v) { v = bin::get_f64(is); }
  void flag(bool& v) { v = bin::get_u8(is) != 0; }
  void str(std::string& v) { v = bin::get_str(is); }
  template <class Tag>
  void id(Id<Tag>& v) { v = Id<Tag>{bin::get_u32(is)}; }
  template <class E>
  void enum8(E& v) { v = static_cast<E>(bin::get_u8(is)); }
  std::istream& is;
};

void check(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("checkpoint: ") + what);
}

/// A u64 length, then the elements.  The reader appends one element at a
/// time, so a corrupt length fails as a truncated stream, not a huge resize.
template <class Io, class Vec, class Each>
void list(Io& io, Vec& v, Each&& each) {
  std::uint64_t n = v.size();
  io.u64(n);
  if constexpr (Io::kLoading) {
    v.clear();
    for (std::uint64_t k = 0; k < n; ++k) each(v.emplace_back());
  } else {
    for (auto& x : v) each(x);
  }
}

template <class Io>
void fields(Io& io, RunningStats::State& s) {
  io.u64(s.n);
  for (double* v : {&s.mean, &s.m2, &s.sum, &s.min, &s.max}) io.f64(*v);
}

template <class Io>
void fields(Io& io, TimeWeightedMean::State& s) {
  io.u8(s.started);
  for (double* v : {&s.t_first, &s.t_last, &s.value, &s.area, &s.peak}) {
    io.f64(*v);
  }
}

template <class Io>
void fields(Io& io, phot::PowerLedger::State& s) {
  io.f64(s.total.switch_switching_j);
  io.f64(s.total.switch_trimming_j);
  io.f64(s.total.transceiver_j);
  io.u64(s.charged);
  io.u64(s.refunded);
  fields(io, s.per_circuit_energy);
}

/// An accumulator round-trips through its save()/restore() state.
template <class Io, class T>
void saved(Io& io, T& obj) {
  auto s = obj.save();
  fields(io, s);
  if constexpr (Io::kLoading) obj.restore(s);
}

/// The VM record (Engine::VmState) minus its slot, which is reassigned.
template <class Io, class Record>
void record_fields(Io& io, Record& st) {
  io.id(st.vm.id);
  io.i64(st.vm.cores);
  io.i64(st.vm.ram_mb);
  io.i64(st.vm.storage_mb);
  io.f64(st.vm.arrival);
  io.f64(st.vm.lifetime);
  io.u32(st.attempts);
  io.u32(st.epoch);
  io.f64(st.place_time);
  io.f64(st.expected_hold);
  io.f64(st.holding_power);
  io.u8(st.live);
  io.u8(st.ever_placed);
}

template <class Io>
void fields(Io& io, core::Placement& p) {
  io.id(p.vm);
  for (topo::BoxAllocation& a : p.compute) {
    io.id(a.box);
    io.enum8(a.type);
    io.i64(a.units);
    list(io, a.slices, [&](topo::BrickSlice& s) {
      io.u32(s.brick);
      io.i64(s.units);
    });
  }
  for (RackId& r : p.racks) io.id(r);
  for (ResourceType t : kAllResources) io.i64(p.units[t]);
  io.i64(p.demand.cpu_ram);
  io.i64(p.demand.ram_sto);
  io.flag(p.inter_rack);
  io.flag(p.used_fallback);
}

/// `C` is const net::Circuit when writing (circuits are read in place).
template <class Io, class C>
void circuit_fields(Io& io, C& c) {
  io.id(c.id);
  io.id(c.vm);
  io.enum8(c.flow);
  io.i64(c.bandwidth);
  list(io, c.path.links, [&](auto& l) { io.id(l); });
  list(io, c.path.switches, [&](auto& s) { io.id(s); });
  io.flag(c.path.inter_rack);
}

bool is_fault_kind(des::LifecycleKind k) {
  using des::LifecycleKind;
  return k == LifecycleKind::BoxFail || k == LifecycleKind::BoxRepair ||
         k == LifecycleKind::LinkFail || k == LifecycleKind::LinkRepair;
}

}  // namespace

template <class Io>
void Engine::RunState::transfer(Io& io) {
  constexpr bool kLoading = Io::kLoading;
  topo::Cluster& cluster = *eng.cluster_;
  net::Fabric& fabric = *eng.fabric_;
  net::CircuitTable& circuits = *eng.circuits_;

  std::uint32_t magic = kCheckpointMagic;
  io.u32(magic);
  check(magic == kCheckpointMagic, "bad magic");
  io.str(m.workload);
  std::string algo = eng.algorithm_;
  io.str(algo);
  if (algo != eng.algorithm_) {
    throw std::runtime_error("checkpoint: algorithm mismatch (checkpoint '" +
                             algo + "', engine '" + eng.algorithm_ + "')");
  }

  // Loop scalars.
  io.f64(now);
  io.f64(last_event_t);
  io.u64(executed);
  io.u64(live_count);
  io.u64(admissions);
  io.u64(next_admission_action);
  io.u64(pending_retries);
  io.u32(migration_budget);
  io.f64(last_arrival);
  io.u32(last_arrival_index);
  io.flag(seen_arrival);

  // Deterministic metric accumulators.
  for (std::uint64_t* c :
       {&m.total_vms, &m.placed, &m.dropped, &m.inter_rack_placements,
        &m.any_pair_inter_rack, &m.fallback_placements, &m.killed,
        &m.requeued, &m.retry_placed, &m.migrated,
        &m.interrack_vms_recovered}) {
    io.u64(*c);
  }
  io.f64(m.degraded_tu);
  io.f64(m.migration_tu);
  saved(io, m.cpu_ram_latency_ns);
  io.u64(drop_kinds);
  check(drop_kinds <= core::kNumDropReasons, "bad drop table");
  for (std::size_t k = 0; k < drop_kinds; ++k) {
    io.enum8(drop_first_seen[k]);
    check(static_cast<std::size_t>(drop_first_seen[k]) < core::kNumDropReasons,
          "bad drop reason");
  }
  for (std::int64_t& c : drop_counts) io.i64(c);
  for (ResourceType ty : kAllResources) saved(io, util[ty]);
  saved(io, intra_util);
  saved(io, inter_util);
  saved(io, ledger);

  // Cluster occupancy: per-box brick availability (restore reproduces hole
  // patterns exactly), then the offline boxes and failed links.
  topo::ClusterSnapshot snap;
  if constexpr (!kLoading) snap = cluster.snapshot();
  std::uint64_t n_boxes = snap.brick_available.size();
  io.u64(n_boxes);
  check(n_boxes == cluster.num_boxes(), "cluster shape mismatch");
  snap.brick_available.resize(n_boxes);
  for (std::size_t b = 0; b < n_boxes; ++b) {
    std::vector<Units>& bricks = snap.brick_available[b];
    std::uint64_t n_bricks = bricks.size();
    io.u64(n_bricks);
    check(n_bricks ==
              cluster.box_unchecked(BoxId{static_cast<std::uint32_t>(b)})
                  .brick_count(),
          "cluster shape mismatch");
    bricks.resize(n_bricks);
    for (Units& u : bricks) io.i64(u);
  }
  if constexpr (kLoading) cluster.restore(snap);  // clears every offline flag
  std::vector<std::uint32_t> offline, failed;
  if constexpr (!kLoading) {
    for (std::uint32_t b = 0; b < cluster.num_boxes(); ++b) {
      if (cluster.box_unchecked(BoxId{b}).offline()) offline.push_back(b);
    }
    for (std::uint32_t l = 0; l < fabric.num_links(); ++l) {
      if (fabric.link(LinkId{l}).failed()) failed.push_back(l);
    }
  }
  list(io, offline, [&](std::uint32_t& id) {
    io.u32(id);
    check(id < cluster.num_boxes(), "box id out of range");
    if constexpr (kLoading) cluster.set_box_offline(BoxId{id}, true);
  });
  // Link failures are applied only after the circuits are adopted below:
  // adoption reserves bandwidth through the router, and a consistent
  // checkpoint has no live circuit over a failed link.
  list(io, failed, [&](std::uint32_t& id) {
    io.u32(id);
    check(id < fabric.num_links(), "link id out of range");
  });

  // VM records in ascending index order (the arena iterates in slot
  // order), so the bytes depend only on the record set, never the
  // container (DESIGN.md §13).  Live records carry their placement and
  // circuits, the latter in establishment order so adopt() replays
  // for_each_circuit_of identically.  A load assigns slots in record order:
  // slot numbering is internal and never observable.
  std::vector<std::uint32_t>& indices = eng.scan_scratch_;
  if constexpr (!kLoading) {
    indices.clear();
    eng.vms_.for_each(
        [&](std::uint32_t idx, const VmState&) { indices.push_back(idx); });
    std::sort(indices.begin(), indices.end());
  }
  std::uint64_t n_rec = indices.size();
  io.u64(n_rec);
  std::size_t restored_live = 0;
  for (std::uint64_t r = 0; r < n_rec; ++r) {
    std::uint32_t idx = kLoading ? 0 : indices[r];
    io.u32(idx);
    VmState loaded;
    VmState& st = kLoading ? loaded : *eng.vms_.find(idx);
    record_fields(io, st);
    if (st.live) {
      if constexpr (kLoading) {
        ++restored_live;
        st.slot = acquire_slot();  // every Placement field is listed below
        holding_power_w += st.holding_power;
      }
      fields(io, eng.slot_pool_[st.slot]);
      std::uint64_t n_circ = kLoading ? 0 : circuits.circuit_count_of(st.vm.id);
      io.u64(n_circ);
      if constexpr (kLoading) {
        for (std::uint64_t c = 0; c < n_circ; ++c) {
          net::Circuit circuit;
          circuit_fields(io, circuit);
          circuits.adopt(std::move(circuit));
        }
      } else {
        circuits.for_each_circuit_of(
            st.vm.id, [&](const net::Circuit& c) { circuit_fields(io, c); });
      }
    }
    if constexpr (kLoading) eng.vms_.find_or_insert(idx) = std::move(loaded);
  }
  if constexpr (kLoading) {
    check(restored_live == live_count, "live record count mismatch");
  }
  std::uint32_t next_circuit_id = circuits.next_id();
  io.u32(next_circuit_id);
  if constexpr (kLoading) {
    circuits.set_next_id(next_circuit_id);
    for (const std::uint32_t id : failed) {
      fabric.set_link_failed(LinkId{id}, true);
    }
  }

  // Injected-event calendar as the canonical sorted (time, seq) entry
  // sequence -- the ladder's tier structure is an implementation detail
  // (DESIGN.md §12).  A load accepts any entry order, so checkpoints that
  // hold a verbatim heap array stay readable.  A fault entry's subject
  // indexes the plan's actions, so it is range-checked here.
  std::uint64_t next_seq = eng.events_.scheduled_total();
  io.u64(next_seq);
  std::vector<Entry> entries;
  if constexpr (!kLoading) entries = eng.events_.sorted_entries();
  list(io, entries, [&](Entry& e) {
    io.f64(e.time);
    io.u64(e.seq);
    io.enum8(e.payload.kind);
    check(e.payload.kind <= des::LifecycleKind::Migrate, "bad event kind");
    io.u32(e.payload.subject);
    check(!is_fault_kind(e.payload.kind) ||
              e.payload.subject < plan.actions.size(),
          "fault action index out of range");
    io.u32(e.payload.epoch);
  });
  if constexpr (kLoading) eng.events_.restore(std::move(entries), next_seq);

  Xoshiro256::State rng_state = fault_rng.generator().state();
  for (std::uint64_t& w : rng_state) io.u64(w);
  if constexpr (kLoading) {
    fault_rng.generator().set_state(rng_state);
    eng.allocator_->restore_state(io.is);
    source.restore_position(io.is);
  } else {
    eng.allocator_->save_state(io.os);
    source.save_position(io.os);
  }
}

void Engine::RunState::save(std::ostream& os) {
  Writer w(os);
  transfer(w);
}

void Engine::RunState::load(std::istream& is) {
  Reader r(is);
  transfer(r);
}

}  // namespace risa::sim

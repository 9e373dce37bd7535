#include "replay.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>

#include "common/cycle_clock.hpp"
#include "common/rack_set.hpp"
#include "common/stats.hpp"
#include "core/registry.hpp"
#include "des/ladder_calendar.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "photonics/power_ledger.hpp"
#include "topology/cluster.hpp"

namespace perfbench {
namespace {

using risa::CycleClock;
using risa::ResourceType;

/// In-memory span recorder: begin() appends a span whose parent is the
/// innermost open one, end() stamps the innermost open span.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>& spans) : spans_(spans) {}

  void begin(SpanName name) {
    const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
    open_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back(Span{CycleClock::now(), 0, parent, name});
  }
  void end() {
    spans_[open_.back()].end = CycleClock::now();
    open_.pop_back();
  }

 private:
  std::vector<Span>& spans_;
  std::vector<std::uint32_t> open_;
};

class Scoped {
 public:
  Scoped(Tracer& t, SpanName name) : t_(t) { t_.begin(name); }
  ~Scoped() { t_.end(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
};

constexpr std::size_t kChunk = 1024;  // the engine's arrival refill size

}  // namespace

ReplayResult replay(const risa::sim::Scenario& scenario,
                    const std::string& algorithm,
                    risa::wl::ArrivalSource& source) {
  namespace core = risa::core;
  ReplayResult out;
  // ~12 spans per VM; reserving keeps vector growth out of the spans.
  out.spans.reserve(static_cast<std::size_t>(source.size_hint()) * 13 + 64);
  Tracer tr(out.spans);

  risa::topo::Cluster cluster(scenario.cluster);
  risa::net::Fabric fabric(scenario.cluster, scenario.fabric);
  risa::net::Router router(fabric);
  risa::net::CircuitTable circuits(router);
  core::AllocContext ctx;
  ctx.cluster = &cluster;
  ctx.fabric = &fabric;
  ctx.router = &router;
  ctx.circuits = &circuits;
  ctx.bandwidth = scenario.bandwidth;
  const std::unique_ptr<core::Allocator> alloc =
      core::make_allocator(algorithm, ctx, scenario.allocator);
  risa::phot::PowerLedger ledger(scenario.photonics, fabric);
  risa::des::LadderCalendar<std::uint32_t> calendar;  // payload: slot
  const auto policy = algorithm == "NALB"
                          ? risa::net::LinkSelectPolicy::MostAvailable
                          : risa::net::LinkSelectPolicy::FirstFit;

  std::vector<core::Placement> slots;
  std::vector<std::uint32_t> free_slots;
  std::vector<risa::des::LadderCalendar<std::uint32_t>::Entry> batch;
  std::vector<risa::wl::ArrivalItem> ring(kChunk);
  risa::RackSet mask;
  risa::RunningStats rtt;
  ReplayCounts& c = out.counts;

  source.rewind();
  const auto wall0 = std::chrono::steady_clock::now();
  const std::uint64_t tick0 = CycleClock::now();
  std::size_t pos = 0;
  std::size_t len = 0;
  bool source_done = false;
  double now = 0.0;
  for (;;) {
    if (pos >= len && !source_done) {
      const Scoped s(tr, SpanName::Pull);
      len = source.next_batch(std::span<risa::wl::ArrivalItem>(ring));
      pos = 0;
      out.pulled += len;
      source_done = len == 0;
    }
    const bool have_arrival = pos < len;
    if (!have_arrival && calendar.empty()) break;
    double limit = std::numeric_limits<double>::infinity();
    if (!calendar.empty()) {
      const Scoped s(tr, SpanName::NextTime);
      limit = calendar.next_time();
    }

    if (have_arrival && ring[pos].vm.arrival <= limit) {
      const risa::wl::VmRequest& vm = ring[pos++].vm;
      const Scoped admit(tr, SpanName::Admit);
      now = vm.arrival;
      ++c.total_vms;
      ++c.events;
      {
        const Scoped s(tr, SpanName::PoolMask);
        cluster.eligible_racks(vm.units(scenario.cluster.unit_scale), mask);
      }
      tr.begin(SpanName::Place);
      auto placed = alloc->try_place(vm);
      tr.end();
      if (!placed.ok()) {
        ++c.dropped;
        continue;
      }
      std::uint32_t slot = 0;
      if (free_slots.empty()) {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
      } else {
        slot = free_slots.back();
        free_slots.pop_back();
      }
      core::Placement& p = slots[slot];
      p = std::move(placed.value());
      ++c.placed;
      const bool inter =
          p.rack(ResourceType::Cpu) != p.rack(ResourceType::Ram);
      if (inter) ++c.inter_rack;
      const bool cross_pod = inter && !fabric.same_pod(p.rack(ResourceType::Cpu),
                                                       p.rack(ResourceType::Ram));
      rtt.add(scenario.latency.rtt_ns(inter, cross_pod));
      if (p.demand.cpu_ram > 0) {
        const Scoped s(tr, SpanName::FindPath);
        // Read-only: finds a route with room for a second copy of the
        // CPU-RAM circuit; the answer is discarded.
        (void)router.find_path(p.box(ResourceType::Cpu),
                               p.rack(ResourceType::Cpu),
                               p.box(ResourceType::Ram),
                               p.rack(ResourceType::Ram), p.demand.cpu_ram,
                               policy);
      }
      out.circuits += circuits.circuit_count_of(vm.id);
      {
        const Scoped s(tr, SpanName::Charge);
        ledger.charge_vm(circuits, vm.id, vm.lifetime);
      }
      {
        const Scoped s(tr, SpanName::Push);
        calendar.push(now + vm.lifetime, slot);
      }
      out.peak_pending = std::max<std::uint64_t>(out.peak_pending,
                                                 calendar.size());
    } else {
      // Departure window: every same-time departure settles in one batch.
      const Scoped settle(tr, SpanName::Settle);
      batch.clear();
      {
        const Scoped s(tr, SpanName::Pop);
        batch.push_back(calendar.pop());
      }
      now = batch.front().time;
      while (!calendar.empty() && calendar.next_time() == now) {
        const Scoped s(tr, SpanName::Pop);
        batch.push_back(calendar.pop());
      }
      cluster.begin_release_batch();
      for (const auto& e : batch) {
        {
          const Scoped s(tr, SpanName::Release);
          alloc->release_batched(slots[e.payload]);
        }
        free_slots.push_back(e.payload);
        ++c.events;
      }
      {
        const Scoped s(tr, SpanName::EndBatch);
        cluster.end_release_batch();
      }
      ++out.release_batches;
    }
  }
  const std::uint64_t ticks = CycleClock::now() - tick0;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall0)
                   .count();
  out.ns_per_tick =
      ticks > 0 ? out.wall_s * 1e9 / static_cast<double>(ticks) : 0.0;

  c.rtt_mean_ns = rtt.mean();
  c.horizon_tu = now > 0.0 ? now : 1.0;  // the engine's degenerate-run rule
  c.optical_power_w = ledger.average_power_w(c.horizon_tu);
  return out;
}

std::array<SpanAgg, kNumSpanNames> ReplayResult::aggregate() const {
  std::array<SpanAgg, kNumSpanNames> agg{};
  std::vector<std::uint64_t> child_ticks(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) child_ticks[s.parent] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanAgg& a = agg[static_cast<std::size_t>(s.name)];
    ++a.count;
    const auto dur = static_cast<double>(s.end - s.start);
    a.total_ns += dur * ns_per_tick;
    a.self_ns += (dur - static_cast<double>(child_ticks[i])) * ns_per_tick;
  }
  return agg;
}

std::vector<double> ReplayResult::durations_ns(SpanName name) const {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end - s.start) * ns_per_tick);
    }
  }
  return out;
}

bool write_chrome_trace(const ReplayResult& result, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Integer 1/1024-us steps: exact in binary, so ts + dur of a child can
  // never exceed its parent's after strtod, and the nesting check holds.
  const std::uint64_t t0 = result.spans.empty() ? 0 : result.spans.front().start;
  const double steps_per_tick = result.ns_per_tick * 1.024;
  auto step = [&](std::uint64_t ticks) {
    return std::llround(static_cast<double>(ticks - t0) * steps_per_tick);
  };
  std::fputs(
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"perfbench layer replay\"}}",
      f);
  for (const Span& s : result.spans) {
    const long long a = step(s.start);
    const long long b = step(s.end);
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.10f,\"dur\":%.10f,"
                 "\"pid\":1,\"tid\":1}",
                 kSpanNames[static_cast<std::size_t>(s.name)],
                 static_cast<double>(a) / 1024.0,
                 static_cast<double>(b - a) / 1024.0);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

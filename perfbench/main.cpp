// perfbench: the load-calibrated benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--count N] [--tamper placed]
//
// Set-up (timed, repeated kSetupReps times, median reported) builds the
// inputs, the engine and the stream source and runs one warm-up pass.  The
// timed loop then replays the workload's whole stream through
// Engine::run_stream, round after round, until S seconds have passed; each
// round gives one sample of every host-time metric, and the slow-round
// quantile of those samples is reported (kSlowRoundPct).  Profiling and
// every sink stay off in the timed rounds.
//
// After the timed loop the program checks its outputs (conservation, one
// metrics fingerprint across every round and the profiled run, and the
// layer replay's outcomes against the engine's) and prints one JSON object
// as its last line: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  Any failed check prints "correct": false and
// exits 1.  --count and --tamper exist for run.py's self-test, which
// shortens the stream and corrupts one count to see that exit.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "replay.hpp"
#include "sim/engine.hpp"
#include "sim/phase_profiler.hpp"
#include "sim/sweep.hpp"
#include "sim/telemetry.hpp"
#include "workload/arrival_source.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using risa::sim::SimMetrics;

constexpr int kSetupReps = 7;
/// Host-time metrics report the rate sustained in all but this share of
/// the timed rounds (the 10th percentile of per-round throughput, the 90th
/// of per-round cost).  Cache contention from other tenants slows whole
/// seconds of rounds by up to 2x; the slow-round quantile repeats within
/// a few percent where the median does not (NOTES.md records both).
constexpr double kSlowRoundPct = 10.0;
/// Stream length of the layer replay and of the engine runs it is checked
/// against (same seed and load as the workload, shorter so the span file
/// stays a few tens of MB).
constexpr std::size_t kReplayCount = 20000;
constexpr int kReplayReps = 3;
/// core.place_busy_s (replay) and the profiled engine's placement seconds
/// on the same stream time the same try_place calls in separate runs; they
/// must agree within this share (the replay also pays for its spans'
/// memory traffic).
constexpr double kPlaceBusyTolerance = 0.5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of exact samples (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// VmHWM (peak resident set) in MB, from /proc/self/status.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// try_place calls of one run: every arrival plus every retry event
/// (migration re-placements are not scheduler attempts; the engine keeps
/// them out of scheduler_exec_seconds too).
std::uint64_t attempts(const SimMetrics& m) { return m.total_vms + m.requeued; }

/// Deterministic outcome of one run: the metrics fingerprint plus the
/// lifecycle counters the fingerprint leaves out.
std::string outcome(const SimMetrics& m) {
  std::ostringstream os;
  os << risa::sim::metrics_fingerprint(m) << "|killed=" << m.killed
     << "|requeued=" << m.requeued << "|retry_placed=" << m.retry_placed
     << "|migrated=" << m.migrated << "|events=" << m.events_executed;
  return os.str();
}

/// FNV-1a, to print a short digest of an outcome string.
std::string digest(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  void report() const {
    for (const std::string& f : failures_) {
      std::cerr << "perfbench: check failed: " << f << '\n';
    }
  }

 private:
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string format_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    // %.17g keeps every digit; NaN/inf cannot be JSON, so they print 0
    // and the checks below have already failed the run.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string out_dir = ".";
  std::size_t count = 0;  // 0: the workload's own length
  std::string tamper;
};

template <typename T>
bool parse_number(std::string_view s, T& out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), out);
  return r.ec == std::errc() && r.ptr == s.data() + s.size();
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string_view v = argv[++i];
    if (flag == "--workload") {
      a.workload = std::string(v);
      have_workload = true;
    } else if (flag == "--seed") {
      have_seed = parse_number(v, a.seed);
      if (!have_seed) return false;
    } else if (flag == "--seconds") {
      have_seconds = parse_number(v, a.seconds) && a.seconds >= 0.0;
      if (!have_seconds) return false;
    } else if (flag == "--trace") {
      have_trace = parse_number(v, a.trace) && (a.trace == 0 || a.trace == 1);
      if (!have_trace) return false;
    } else if (flag == "--out-dir") {
      a.out_dir = std::string(v);
    } else if (flag == "--count") {
      if (!parse_number(v, a.count) || a.count == 0) return false;
    } else if (flag == "--tamper") {
      if (v != "placed") return false;
      a.tamper = std::string(v);
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

/// The engine's side of the replay comparison: the same stream, plans
/// removed.  Best (least disturbed) of kReplayReps runs per mode.
struct EngineReference {
  SimMetrics metrics;              ///< the last profiled run
  double placement_s = 1e300;      ///< min profiled Placement seconds
  double untraced_eps = 0.0;       ///< max unprofiled events/sec
};

EngineReference engine_reference(const perfbench::Inputs& planfree,
                                 const std::string& algorithm,
                                 risa::wl::ArrivalSource& source,
                                 const std::string& label) {
  EngineReference ref;
  risa::sim::Engine engine(planfree.scenario, algorithm);
  for (int r = 0; r < kReplayReps; ++r) {
    engine.set_profiling(false);
    const SimMetrics m = engine.run_stream(source, label);
    ref.untraced_eps = std::max(ref.untraced_eps, m.events_per_sec());
    engine.set_profiling(true);
    ref.metrics = engine.run_stream(source, label);
    ref.placement_s = std::min(
        ref.placement_s, ref.metrics.profile[risa::sim::Phase::Placement]);
  }
  return ref;
}

int run(const Args& args) {
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "' (known: " << perfbench::workload_names() << ")\n";
    return 2;
  }
  const std::string algorithm(spec->algorithm);
  const std::string label(spec->name);
  perfbench::WorkloadSpec sized = *spec;
  if (args.count > 0) sized.count = args.count;

  // ---- set-up: inputs, engine, source, warm-up pass ----------------------
  std::vector<double> setup_s;
  perfbench::Inputs inputs;
  std::unique_ptr<risa::sim::Engine> engine;
  std::unique_ptr<risa::wl::SyntheticStreamSource> source;
  std::vector<std::string> outcomes;
  for (int r = 0; r < kSetupReps; ++r) {
    engine.reset();
    source.reset();
    const auto t0 = Clock::now();
    inputs = perfbench::make_inputs(sized, args.seed);
    engine = std::make_unique<risa::sim::Engine>(inputs.scenario, algorithm);
    source = std::make_unique<risa::wl::SyntheticStreamSource>(inputs.stream,
                                                               args.seed);
    const SimMetrics warm = engine->run_stream(*source, label);
    setup_s.push_back(seconds_since(t0));
    outcomes.push_back(outcome(warm));
  }

  // ---- timed rounds --------------------------------------------------------
  // peak_rss_mb is read after the first timed round, a fixed amount of
  // work: a reused engine's heap keeps growing from run to run on
  // nulb-faults (NOTES.md, known defects), so a reading at the end of the
  // loop would grow with the number of rounds, i.e. with speed.
  std::vector<double> eps, ns_placed, sched_ns;
  SimMetrics timed;
  double rss_mb = 0.0;
  const auto loop0 = Clock::now();
  do {
    const auto t0 = Clock::now();
    timed = engine->run_stream(*source, label);
    const double wall = seconds_since(t0);
    eps.push_back(static_cast<double>(timed.events_executed) / wall);
    ns_placed.push_back(wall * 1e9 / static_cast<double>(timed.placed));
    sched_ns.push_back(timed.scheduler_exec_seconds * 1e9 /
                       static_cast<double>(attempts(timed)));
    outcomes.push_back(outcome(timed));
    if (eps.size() == 1) rss_mb = peak_rss_mb();
  } while (seconds_since(loop0) < args.seconds);
  const double rss_end_mb = peak_rss_mb();
  const std::uint64_t rounds = eps.size();

  // ---- profiled run of the same stream (latency sink counts attempts) ----
  risa::Log2Histogram place_hist;
  engine->set_profiling(true);
  engine->set_latency_histogram(&place_hist);
  const SimMetrics profiled = engine->run_stream(*source, label);
  engine->set_profiling(false);
  engine->set_latency_histogram(nullptr);

  SimMetrics checked = timed;
  if (args.tamper == "placed") ++checked.placed;

  Checks checks;
  for (const std::string& o : outcomes) {
    checks.expect(o == outcomes.front(),
                  "deterministic outcome differs between rounds");
  }
  checks.expect(outcome(profiled) == outcomes.front(),
                "profiled run's fingerprint differs from the timed runs'");
  checks.expect(static_cast<std::uint64_t>(place_hist.total()) ==
                    attempts(profiled),
                "try_place attempts != arrivals + retries");
  checks.expect(checked.total_vms == sized.count,
                "total_vms != stream length");
  checks.expect(checked.placed + checked.dropped == checked.total_vms,
                "placed + dropped != total_vms");
  if (!spec->lifecycle) {
    checks.expect(checked.events_executed == checked.total_vms + checked.placed,
                  "events_executed != total_vms + placed");
  }
  checks.expect(checked.placed > 0, "nothing placed");

  // ---- layer replay, checked against the engine on the same stream -------
  perfbench::Inputs planfree = inputs;
  planfree.scenario.faults = {};
  planfree.scenario.migrations = {};
  planfree.stream.count = std::min(kReplayCount, sized.count);
  risa::wl::SyntheticStreamSource replay_source(planfree.stream, args.seed);
  const EngineReference ref =
      engine_reference(planfree, algorithm, replay_source, label);
  perfbench::ReplayResult rep;
  for (int r = 0; r < kReplayReps; ++r) {
    perfbench::ReplayResult next =
        perfbench::replay(planfree.scenario, algorithm, replay_source);
    if (r == 0 || next.wall_s < rep.wall_s) rep = std::move(next);
  }
  const SimMetrics& em = ref.metrics;
  const perfbench::ReplayCounts& rc = rep.counts;
  checks.expect(rc.total_vms == em.total_vms, "replay total_vms != engine");
  checks.expect(rc.placed == em.placed, "replay placed != engine");
  checks.expect(rc.dropped == em.dropped, "replay dropped != engine");
  checks.expect(rc.inter_rack == em.inter_rack_placements,
                "replay inter-rack != engine");
  checks.expect(rc.events == em.events_executed, "replay events != engine");
  checks.expect(rc.rtt_mean_ns == em.cpu_ram_latency_ns.mean(),
                "replay mean RTT != engine");
  checks.expect(rc.horizon_tu == em.horizon_tu, "replay horizon != engine");
  checks.expect(rc.optical_power_w == em.avg_optical_power_w,
                "replay optical power != engine");

  const auto agg = rep.aggregate();
  auto span = [&](perfbench::SpanName n) {
    return agg[static_cast<std::size_t>(n)];
  };
  auto mean_ns = [&](perfbench::SpanName n) {
    const perfbench::SpanAgg a = span(n);
    return a.count > 0 ? a.total_ns / static_cast<double>(a.count) : 0.0;
  };
  const double place_busy_s = span(perfbench::SpanName::Place).total_ns * 1e-9;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"events_per_sec", percentile(eps, kSlowRoundPct), "1/s"},
        {"ns_per_placed", percentile(ns_placed, 100.0 - kSlowRoundPct), "ns"},
        {"sched_ns_per_attempt", percentile(sched_ns, 100.0 - kSlowRoundPct),
         "ns"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"placed_pct", 100.0 - 100.0 * timed.drop_fraction(), "%"},
        {"optical_power_w", timed.avg_optical_power_w, "W"},
        {"cpu_ram_rtt_ns", timed.cpu_ram_latency_ns.mean(), "ns"},
    };
  } else {
    checks.expect(std::abs(place_busy_s - ref.placement_s) <=
                      kPlaceBusyTolerance * ref.placement_s,
                  "core.place_busy_s disagrees with the engine's placement "
                  "seconds beyond the stated tolerance");
    // The span file goes through the simulator's own trace reader, which
    // checks strict nesting and re-aggregates every span name.
    // One file per workload, overwritten by the next traced run.
    const std::string path = args.out_dir + "/replay-" + label + ".trace.json";
    checks.expect(perfbench::write_chrome_trace(rep, path),
                  "cannot write " + path);
    const risa::sim::TraceSummary summary =
        risa::sim::summarize_trace_file(path);
    checks.expect(summary.well_formed(), "replay spans do not nest");
    checks.expect(summary.events == rep.spans.size(),
                  "trace summary span count != recorded spans");
    for (const auto& s : summary.spans) {
      for (std::size_t n = 0; n < perfbench::kNumSpanNames; ++n) {
        if (s.name != perfbench::kSpanNames[n]) continue;
        checks.expect(s.count == agg[n].count,
                      "trace summary count differs for " + s.name);
        // Each span rounds to 1/1024 us on the way out.
        checks.expect(std::abs(s.total_us * 1e3 - agg[n].total_ns) <=
                          1.0 * static_cast<double>(agg[n].count) + 1.0,
                      "trace summary total differs for " + s.name);
      }
    }
    std::cout << "replay spans (" << rep.spans.size() << ") -> " << path
              << "\n  name                          count     total_ms  "
                 "self_ms\n";
    for (std::size_t n = 0; n < perfbench::kNumSpanNames; ++n) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-28s %9llu %11.3f %8.3f\n",
                    perfbench::kSpanNames[n],
                    static_cast<unsigned long long>(agg[n].count),
                    agg[n].total_ns * 1e-6, agg[n].self_ns * 1e-6);
      std::cout << line;
    }

    const std::vector<double> place =
        rep.durations_ns(perfbench::SpanName::Place);
    const double replay_eps =
        static_cast<double>(rc.events) / rep.wall_s;
    const double wall = profiled.sim_wall_seconds;
    auto share = [&](risa::sim::Phase p) { return profiled.profile[p] / wall; };
    using perfbench::SpanName;
    using risa::sim::Phase;
    metrics = {
        {"workload.pull_ns_per_vm",
         span(SpanName::Pull).total_ns / static_cast<double>(rep.pulled), "ns"},
        {"core.place_calls", static_cast<double>(place.size()), "count"},
        {"core.place_ok_pct",
         100.0 * static_cast<double>(rc.placed) /
             static_cast<double>(place.size()),
         "%"},
        {"core.place_busy_s", place_busy_s, "s"},
        {"core.place_p50_ns", percentile(place, 50.0), "ns"},
        {"core.place_p99_ns", percentile(place, 99.0), "ns"},
        {"core.release_ns", mean_ns(SpanName::Release), "ns"},
        {"core.engine_placement_s", ref.placement_s, "s"},
        {"core.place_busy_vs_engine_pct",
         100.0 * (place_busy_s - ref.placement_s) / ref.placement_s, "%"},
        {"topology.pool_mask_ns", mean_ns(SpanName::PoolMask), "ns"},
        {"topology.release_batches", static_cast<double>(rep.release_batches),
         "count"},
        {"topology.end_batch_ns", mean_ns(SpanName::EndBatch), "ns"},
        {"network.find_path_ns", mean_ns(SpanName::FindPath), "ns"},
        {"network.circuits_per_vm",
         static_cast<double>(rep.circuits) / static_cast<double>(rc.placed),
         "count"},
        {"photonics.charge_ns", mean_ns(SpanName::Charge), "ns"},
        {"des.push_ns", mean_ns(SpanName::Push), "ns"},
        {"des.pop_ns", mean_ns(SpanName::Pop), "ns"},
        {"des.next_time_ns", mean_ns(SpanName::NextTime), "ns"},
        {"des.peak_pending", static_cast<double>(rep.peak_pending), "count"},
        {"sim.source_pull_share", share(Phase::SourcePull), "ratio"},
        {"sim.admission_share", share(Phase::Admission), "ratio"},
        {"sim.placement_share", share(Phase::Placement), "ratio"},
        {"sim.calendar_share", share(Phase::Calendar), "ratio"},
        {"sim.settlement_share", share(Phase::Settlement), "ratio"},
        {"sim.ledger_share", share(Phase::Ledger), "ratio"},
        {"sim.merge_share", share(Phase::Merge), "ratio"},
        {"drop_pct", 100.0 * timed.drop_fraction(), "%"},
        {"inter_rack_pct", 100.0 * timed.inter_rack_fraction(), "%"},
        {"trace.overhead_pct",
         100.0 * (ref.untraced_eps - replay_eps) / ref.untraced_eps, "%"},
    };
  }

  for (const Metric& m : metrics) {
    checks.expect(std::isfinite(m.value), m.name + " is not finite");
  }
  std::cout << "workload " << label << " algorithm " << algorithm << " seed "
            << args.seed << " vms " << sized.count << " lifetime_tu "
            << inputs.lifetime_tu << " rounds " << rounds << '\n';
  std::cout << "outcome " << digest(outcomes.front()) << '\n';
  if (args.trace == 0) {
    std::cout << "  per-round events_per_sec p10/p50/p90 = "
              << percentile(eps, 10.0) << " / " << median(eps) << " / "
              << percentile(eps, 90.0) << "\n  VmHWM after the last round = "
              << rss_end_mb << " MB\n  drop_pct = "
              << 100.0 * timed.drop_fraction() << " %\n  inter_rack_pct = "
              << 100.0 * timed.inter_rack_fraction() << " %\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  }
  checks.report();
  std::cout << format_result(checks.ok(), rounds * timed.total_vms, 0, metrics)
            << std::endl;
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--count N] [--tamper placed]\n"
                 "workloads: "
              << perfbench::workload_names() << '\n';
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 1;
  }
}

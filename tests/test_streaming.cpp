// Streaming arrival pipeline (DESIGN.md §11): every ArrivalSource backend
// must reproduce the materialized generators exactly (bit-equal doubles,
// original workload indices), the engine's pull-based loop must be
// fingerprint-identical to the materialized path over the figure matrix
// and adversarial tie/unsorted workloads, and a run resumed from any
// mid-run checkpoint must match the uninterrupted run bit-for-bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"
#include "topology/box.hpp"
#include "workload/arrival_source.hpp"
#include "workload/azure.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace risa::sim {
namespace {

/// Pull the whole stream through `batch`-sized refills.
std::vector<wl::ArrivalItem> drain(wl::ArrivalSource& source,
                                   std::size_t batch) {
  std::vector<wl::ArrivalItem> out;
  std::vector<wl::ArrivalItem> buf(batch);
  std::size_t n = 0;
  while ((n = source.next_batch(std::span<wl::ArrivalItem>(buf.data(),
                                                           batch))) > 0) {
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

/// The engine's historical arrival cursor: (arrival, original index) order.
std::vector<wl::ArrivalItem> arrival_order(const wl::Workload& w) {
  std::vector<wl::ArrivalItem> items(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    items[i] = {w[i], static_cast<std::uint32_t>(i)};
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const wl::ArrivalItem& a, const wl::ArrivalItem& b) {
                     if (a.vm.arrival != b.vm.arrival) {
                       return a.vm.arrival < b.vm.arrival;
                     }
                     return a.index < b.index;
                   });
  return items;
}

void expect_items_equal(const std::vector<wl::ArrivalItem>& got,
                        const std::vector<wl::ArrivalItem>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " item " << i;
    EXPECT_EQ(got[i].vm.id.value(), want[i].vm.id.value()) << what << " " << i;
    EXPECT_EQ(got[i].vm.cores, want[i].vm.cores) << what << " " << i;
    EXPECT_EQ(got[i].vm.ram_mb, want[i].vm.ram_mb) << what << " " << i;
    EXPECT_EQ(got[i].vm.storage_mb, want[i].vm.storage_mb) << what << " " << i;
    // Bit-exact doubles: the streaming generators must replay the very
    // same RNG draws, not statistically-similar ones.
    EXPECT_EQ(got[i].vm.arrival, want[i].vm.arrival) << what << " " << i;
    EXPECT_EQ(got[i].vm.lifetime, want[i].vm.lifetime) << what << " " << i;
  }
}

TEST(ArrivalSources, SyntheticMatchesMaterializedAtEveryBatchSize) {
  wl::SyntheticConfig cfg;
  cfg.count = 3000;
  const std::uint64_t seed = 42;
  const auto want = arrival_order(wl::generate_synthetic(cfg, seed));
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{1024}}) {
    wl::SyntheticStreamSource source(cfg, seed);
    EXPECT_EQ(source.size_hint(), cfg.count);
    expect_items_equal(drain(source, batch), want,
                       "synthetic batch=" + std::to_string(batch));
    // Exhausted sources stay exhausted; rewind restarts the exact stream.
    std::vector<wl::ArrivalItem> buf(4);
    EXPECT_EQ(source.next_batch(std::span(buf.data(), buf.size())), 0u);
    source.rewind();
    expect_items_equal(drain(source, batch), want, "synthetic rewound");
  }
}

TEST(ArrivalSources, SyntheticSaveRestorePositionMidStream) {
  wl::SyntheticConfig cfg;
  cfg.count = 1000;
  wl::SyntheticStreamSource source(cfg, 7);
  const auto want = drain(source, 64);
  source.rewind();

  std::vector<wl::ArrivalItem> head(337);
  ASSERT_EQ(source.next_batch(std::span(head.data(), head.size())),
            head.size());
  std::ostringstream saved;
  source.save_position(saved);

  // A fresh source restored from the frozen position continues with the
  // identical tail -- the checkpoint/resume building block.
  wl::SyntheticStreamSource resumed(cfg, 7);
  std::istringstream in(saved.str());
  resumed.restore_position(in);
  const auto tail = drain(resumed, 50);
  ASSERT_EQ(tail.size(), want.size() - head.size());
  expect_items_equal(
      tail,
      std::vector<wl::ArrivalItem>(want.begin() + 337, want.end()),
      "synthetic restored tail");
}

TEST(ArrivalSources, AzureSubsetsMatchMaterialized) {
  for (const wl::AzureSpec& spec : wl::azure_all_subsets()) {
    const auto want = arrival_order(wl::generate_azure(spec, kDefaultSeed));
    wl::AzureStreamSource source(spec, kDefaultSeed);
    EXPECT_EQ(source.size_hint(), want.size()) << spec.label;
    expect_items_equal(drain(source, 64), want, spec.label);
    source.rewind();
    expect_items_equal(drain(source, 64), want, spec.label + " rewound");
  }
}

TEST(ArrivalSources, WorkloadSourceSortsUnsortedInput) {
  wl::SyntheticConfig cfg;
  cfg.count = 500;
  wl::Workload workload = wl::generate_synthetic(cfg, 7);
  Rng rng(13);
  for (std::size_t i = workload.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(workload[i - 1], workload[j]);
  }
  wl::WorkloadSource source(workload);
  expect_items_equal(drain(source, 33), arrival_order(workload),
                     "workload-source unsorted");
}

TEST(ArrivalSources, TraceSourceStreamsFileExactly) {
  wl::SyntheticConfig cfg;
  cfg.count = 400;
  wl::Workload workload = wl::generate_synthetic(cfg, 21);
  std::sort(workload.begin(), workload.end(),
            [](const wl::VmRequest& a, const wl::VmRequest& b) {
              return a.arrival < b.arrival;
            });
  const std::string path = testing::TempDir() + "risa_trace_stream.csv";
  wl::save_trace(path, workload);

  // Row order is the trace's generation order: indices are consecutive.
  wl::TraceStreamSource source(path);
  const auto got = drain(source, 57);
  expect_items_equal(got, arrival_order(workload), "trace stream");
  source.rewind();
  expect_items_equal(drain(source, 19), got, "trace rewound");
}

TEST(ArrivalSources, TraceSourceReportsFileLineOnBadRows) {
  const std::string dir = testing::TempDir();
  {
    std::ofstream os(dir + "risa_trace_unsorted.csv");
    os << "vm_id,cores,ram_mb,storage_mb,arrival,lifetime\n"
       << "0,2,2048,4096,5.0,10.0\n"
       << "1,2,2048,4096,3.0,10.0\n";  // line 3: arrival went backwards
  }
  wl::TraceStreamSource unsorted(dir + "risa_trace_unsorted.csv");
  std::vector<wl::ArrivalItem> buf(8);
  try {
    (void)unsorted.next_batch(std::span(buf.data(), buf.size()));
    FAIL() << "out-of-order trace row did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }

  {
    std::ofstream os(dir + "risa_trace_short_row.csv");
    os << "vm_id,cores,ram_mb,storage_mb,arrival,lifetime\n"
       << "0,2,2048,4096,5.0,10.0\n"
       << "\n"                 // blank lines count like an editor counts them
       << "1,2,2048\n";        // line 4: wrong column count
  }
  wl::TraceStreamSource short_row(dir + "risa_trace_short_row.csv");
  try {
    while (short_row.next_batch(std::span(buf.data(), buf.size())) > 0) {
    }
    FAIL() << "short trace row did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(ArrivalSources, MergeSourceOrdersByTimeAndRenumbers) {
  // Two tenants with deliberately colliding ids/indices and interleaved,
  // tying arrival times.
  wl::Workload a, b;
  for (std::uint32_t i = 0; i < 6; ++i) {
    wl::VmRequest vm;
    vm.id = VmId{i};
    vm.cores = 2;
    vm.ram_mb = 2048;
    vm.storage_mb = 4096;
    vm.lifetime = 10.0;
    vm.arrival = static_cast<double>(i * 2);      // 0 2 4 6 8 10
    a.push_back(vm);
    vm.arrival = static_cast<double>(i * 2 + (i % 2));  // 0 3 4 7 8 11
    b.push_back(vm);
  }
  std::vector<std::unique_ptr<wl::ArrivalSource>> children;
  children.push_back(std::make_unique<wl::WorkloadSource>(a));
  children.push_back(std::make_unique<wl::WorkloadSource>(b));
  wl::MergeSource merged(std::move(children));
  EXPECT_EQ(merged.size_hint(), a.size() + b.size());

  const auto got = drain(merged, 5);
  ASSERT_EQ(got.size(), a.size() + b.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Renumbered: fresh consecutive indices and ids in merge order.
    EXPECT_EQ(got[i].index, static_cast<std::uint32_t>(i));
    EXPECT_EQ(got[i].vm.id.value(), static_cast<std::uint32_t>(i));
    if (i > 0) {
      EXPECT_GE(got[i].vm.arrival, got[i - 1].vm.arrival);
    }
  }
  // Equal timestamps break toward the earlier child: both tenants emit at
  // t=0, 4 and 8; child a must come first each time.
  EXPECT_EQ(got[0].vm.arrival, 0.0);
  EXPECT_EQ(got[1].vm.arrival, 0.0);
  EXPECT_EQ(got[0].vm.cores, a[0].cores);

  merged.rewind();
  const auto again = drain(merged, 3);
  ASSERT_EQ(again.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(again[i].vm.arrival, got[i].vm.arrival) << i;
    EXPECT_EQ(again[i].index, got[i].index) << i;
  }
}

// --- Engine equivalence through the pull-based loop -------------------------

TEST(StreamingEngine, FigureMatrixSweepBitIdentical) {
  // The whole figure matrix through the streaming sweep path (synthetic +
  // Azure backends via WorkloadSpec::make_source) against the materialized
  // sweep: every cell fingerprint must match bit-for-bit.
  SweepSpec spec = SweepSpec::figure_matrix(kDefaultSeed);
  const auto materialized = SweepRunner(1).run(spec);
  spec.streaming = true;
  const auto streamed = SweepRunner(1).run(spec);
  ASSERT_EQ(streamed.size(), materialized.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(metrics_fingerprint(streamed[i].metrics),
              metrics_fingerprint(materialized[i].metrics))
        << "cell " << i;
    EXPECT_EQ(streamed[i].metrics.events_executed,
              materialized[i].metrics.events_executed)
        << "cell " << i;
  }
}

void expect_stream_equivalent(const wl::Workload& workload,
                              const std::string& label) {
  const std::string path = testing::TempDir() + "risa_stream_" + label + ".csv";
  for (const char* algo : {"NULB", "NALB", "RISA", "RISA-BF"}) {
    Engine engine(Scenario::paper_defaults(), algo);
    const SimMetrics ref = engine.run(workload, label);

    wl::WorkloadSource adapter(workload);
    const SimMetrics streamed = engine.run_stream(adapter, label);
    EXPECT_EQ(metrics_fingerprint(streamed), metrics_fingerprint(ref))
        << label << " / " << algo << " (WorkloadSource)";

    // Trace backend: only meaningful when the workload is already in
    // (arrival, index) order with positive lifetimes, i.e. what a trace
    // file can actually carry.
    const auto order = arrival_order(workload);
    bool traceable = true;
    for (std::size_t i = 0; traceable && i < order.size(); ++i) {
      traceable = order[i].index == i && workload[i].lifetime > 0.0;
    }
    if (traceable) {
      wl::save_trace(path, workload);
      wl::TraceStreamSource trace(path);
      const SimMetrics traced = engine.run_stream(trace, label);
      EXPECT_EQ(metrics_fingerprint(traced), metrics_fingerprint(ref))
          << label << " / " << algo << " (TraceStreamSource)";
    }
  }
}

TEST(StreamingEngine, TieHeavyWorkloadAllBackends) {
  // Bursts of identical arrivals with departures placed on arrival
  // instants: the merge tie-break rules must behave identically when the
  // arrivals come from a pulled ring instead of a sorted cursor.
  wl::SyntheticConfig cfg;
  cfg.count = 240;
  wl::Workload workload = wl::generate_synthetic(cfg, 99);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    workload[i].arrival = static_cast<double>((i / 8) * 10);
    switch (i % 3) {
      case 0: workload[i].lifetime = 0.5; break;
      case 1: workload[i].lifetime = 10.0; break;   // dep == next burst
      default: workload[i].lifetime = 35.0; break;  // dep between bursts
    }
  }
  expect_stream_equivalent(workload, "ties");
}

TEST(StreamingEngine, UnsortedWorkloadThroughAdapter) {
  wl::SyntheticConfig cfg;
  cfg.count = 300;
  wl::Workload workload = wl::generate_synthetic(cfg, 7);
  Rng rng(13);
  for (std::size_t i = workload.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(workload[i - 1], workload[j]);
  }
  expect_stream_equivalent(workload, "unsorted");
}

TEST(StreamingEngine, RejectsOutOfOrderSource) {
  wl::Workload backwards;
  for (std::uint32_t i = 0; i < 2; ++i) {
    wl::VmRequest vm;
    vm.id = VmId{i};
    vm.cores = 2;
    vm.ram_mb = 2048;
    vm.storage_mb = 4096;
    vm.lifetime = 10.0;
    vm.arrival = 10.0 - i;  // decreasing
    backwards.push_back(vm);
  }
  // WorkloadSource sorts, so violate the contract directly: a merge of
  // pre-sorted children is fine, but a raw adapter around an unsorted
  // vector that *claims* to be sorted is what the engine must catch.
  class Raw final : public wl::ArrivalSource {
   public:
    explicit Raw(const wl::Workload& w) : w_(&w) {}
    std::size_t next_batch(std::span<wl::ArrivalItem> out) override {
      std::size_t n = 0;
      while (n < out.size() && i_ < w_->size()) {
        out[n].vm = (*w_)[i_];
        out[n].index = static_cast<std::uint32_t>(i_);
        ++i_;
        ++n;
      }
      return n;
    }
    void rewind() override { i_ = 0; }
    void save_position(std::ostream&) const override {}
    void restore_position(std::istream&) override {}

   private:
    const wl::Workload* w_;
    std::size_t i_ = 0;
  };
  Raw raw(backwards);
  Engine engine(Scenario::paper_defaults(), "RISA");
  EXPECT_THROW((void)engine.run_stream(raw, "backwards"),
               std::invalid_argument);
}

// --- Checkpoint / resume ----------------------------------------------------

/// Run `count` synthetic VMs streaming with a checkpoint every
/// `every_events` events, then resume each captured checkpoint in a fresh
/// engine and demand the uninterrupted run's exact fingerprint.
void expect_resume_bit_identical(const FaultPlan* faults,
                                 const MigrationPlan* migrations) {
  wl::SyntheticConfig cfg;
  cfg.count = 4000;

  Engine engine(Scenario::paper_defaults(), "RISA");
  engine.set_fault_plan(faults);
  engine.set_migration_plan(migrations);

  std::vector<std::string> checkpoints;
  CheckpointPolicy policy;
  policy.every_events = 1500;
  policy.emit = [&checkpoints](const std::string& bytes) {
    checkpoints.push_back(bytes);
  };

  wl::SyntheticStreamSource source(cfg, kDefaultSeed);
  const SimMetrics full = engine.run_stream(source, "ckpt", &policy);
  const std::string want = metrics_fingerprint(full);
  ASSERT_GE(checkpoints.size(), 2u) << "cadence produced too few checkpoints";

  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    Engine fresh(Scenario::paper_defaults(), "RISA");
    fresh.set_fault_plan(faults);
    fresh.set_migration_plan(migrations);
    wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
    std::istringstream in(checkpoints[c]);
    const SimMetrics resumed = fresh.resume_stream(in, restored);
    EXPECT_EQ(metrics_fingerprint(resumed), want) << "checkpoint " << c;
    EXPECT_EQ(resumed.events_executed, full.events_executed)
        << "checkpoint " << c;
    EXPECT_EQ(resumed.killed, full.killed) << "checkpoint " << c;
    EXPECT_EQ(resumed.migrated, full.migrated) << "checkpoint " << c;
  }
}

TEST(StreamingCheckpoint, ResumeMatchesUninterruptedRun) {
  expect_resume_bit_identical(nullptr, nullptr);
}

TEST(StreamingCheckpoint, ResumeWithFaultsAndMigrations) {
  FaultPlan faults;
  faults.seed = 5;
  faults.retry.max_attempts = 2;
  faults.retry.delay_tu = 3.0;
  FaultAction fail;
  fail.kind = FaultAction::Kind::Fail;
  fail.at_time = 40.0;
  fail.random_boxes = 2;
  faults.actions.push_back(fail);
  FaultAction repair = fail;
  repair.kind = FaultAction::Kind::Repair;
  repair.at_time = 90.0;
  faults.actions.push_back(repair);
  FaultAction link_fail;
  link_fail.kind = FaultAction::Kind::LinkFail;
  link_fail.at_time = 60.0;
  link_fail.random_links = 1;
  faults.actions.push_back(link_fail);
  faults.validate();

  MigrationPlan migrations;
  migrations.period_tu = 25.0;
  migrations.per_sweep_budget = 4;
  migrations.validate();

  expect_resume_bit_identical(&faults, &migrations);
}

TEST(StreamingCheckpoint, PreArenaV1FixtureRestoresBitIdentically) {
  // tests/data/prearena_v1.ckpt is a format-v1 "RSK1" checkpoint captured
  // from the engine BEFORE the VM record table moved from U32Map to
  // SlotArena (DESIGN.md §13), mid-run with boxes offline, a link down,
  // retries pending, and migrations mid-schedule.  The arena swap must be
  // checkpoint-transparent: serialization walks records in ascending-index
  // order, so the bytes are container-independent both ways.  Resuming the
  // committed file must reproduce the uninterrupted run's fingerprint --
  // which is both re-derived live and pinned in the committed
  // prearena_v1.fingerprint to catch drift in the run itself.
  FaultPlan faults;
  faults.seed = 5;
  faults.retry.max_attempts = 2;
  faults.retry.delay_tu = 3.0;
  FaultAction fail;
  fail.kind = FaultAction::Kind::Fail;
  fail.at_time = 20000.0;
  fail.random_boxes = 2;
  faults.actions.push_back(fail);
  FaultAction repair = fail;
  repair.kind = FaultAction::Kind::Repair;
  repair.at_time = 35000.0;
  faults.actions.push_back(repair);
  FaultAction link_fail;
  link_fail.kind = FaultAction::Kind::LinkFail;
  link_fail.at_time = 22000.0;
  link_fail.random_links = 1;
  faults.actions.push_back(link_fail);
  FaultAction link_repair;
  link_repair.kind = FaultAction::Kind::LinkRepair;
  link_repair.at_time = 36000.0;
  link_repair.random_links = 1;
  faults.actions.push_back(link_repair);
  faults.validate();

  MigrationPlan migrations;
  migrations.period_tu = 25.0;
  migrations.per_sweep_budget = 4;
  migrations.validate();

  wl::SyntheticConfig cfg;
  cfg.count = 4000;

  // The uninterrupted run under today's engine.
  Engine full_engine(Scenario::paper_defaults(), "RISA");
  full_engine.set_fault_plan(&faults);
  full_engine.set_migration_plan(&migrations);
  wl::SyntheticStreamSource full_source(cfg, kDefaultSeed);
  const SimMetrics full = full_engine.run_stream(full_source, "prearena");
  const std::string want = metrics_fingerprint(full);

  // The committed fingerprint pins the run configuration itself: if this
  // fails, the engine's simulated behavior drifted (not the checkpoint).
  std::ifstream fp_in(RISA_TEST_DATA_DIR "/prearena_v1.fingerprint");
  ASSERT_TRUE(fp_in.good()) << "missing committed fingerprint fixture";
  std::string committed;
  std::getline(fp_in, committed);
  ASSERT_EQ(want, committed);

  // Resume the pre-arena bytes.
  std::ifstream ckpt(RISA_TEST_DATA_DIR "/prearena_v1.ckpt",
                     std::ios::binary);
  ASSERT_TRUE(ckpt.good()) << "missing committed checkpoint fixture";
  Engine resumed_engine(Scenario::paper_defaults(), "RISA");
  resumed_engine.set_fault_plan(&faults);
  resumed_engine.set_migration_plan(&migrations);
  wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
  const SimMetrics resumed = resumed_engine.resume_stream(ckpt, restored);
  EXPECT_EQ(metrics_fingerprint(resumed), want);
  EXPECT_EQ(resumed.events_executed, full.events_executed);
  EXPECT_EQ(resumed.placed, full.placed);
  EXPECT_EQ(resumed.killed, full.killed);
  EXPECT_EQ(resumed.migrated, full.migrated);
  EXPECT_EQ(resumed.requeued, full.requeued);
  // The fixture really did capture lifecycle machinery in flight.
  EXPECT_GT(full.killed, 0u);
  EXPECT_GT(full.migrated, 0u);
  EXPECT_GT(full.requeued, 0u);
}

/// The PreArenaV1FixtureRestoresBitIdentically configuration: four fault
/// actions (box fail/repair at 20000/35000, link fail/repair at
/// 22000/36000) plus periodic migrations over 4000 synthetic VMs.
struct PreArenaRun {
  FaultPlan faults;
  MigrationPlan migrations;
  wl::SyntheticConfig cfg;

  PreArenaRun() {
    faults.seed = 5;
    faults.retry.max_attempts = 2;
    faults.retry.delay_tu = 3.0;
    const auto add = [&](FaultAction::Kind kind, double at) {
      FaultAction a;
      a.kind = kind;
      a.at_time = at;
      if (a.targets_links()) {
        a.random_links = 1;
      } else {
        a.random_boxes = 2;
      }
      faults.actions.push_back(a);
    };
    add(FaultAction::Kind::Fail, 20000.0);
    add(FaultAction::Kind::Repair, 35000.0);
    add(FaultAction::Kind::LinkFail, 22000.0);
    add(FaultAction::Kind::LinkRepair, 36000.0);
    faults.validate();
    migrations.period_tu = 25.0;
    migrations.per_sweep_budget = 4;
    migrations.validate();
    cfg.count = 4000;
  }

  void arm(Engine& engine) const {
    engine.set_fault_plan(&faults);
    engine.set_migration_plan(&migrations);
  }

  /// Every checkpoint a full run emits at the given cadence.
  [[nodiscard]] std::vector<std::string> checkpoints(
      std::uint64_t every_events) const {
    Engine engine(Scenario::paper_defaults(), "RISA");
    arm(engine);
    std::vector<std::string> out;
    CheckpointPolicy policy;
    policy.every_events = every_events;
    policy.emit = [&out](const std::string& bytes) { out.push_back(bytes); };
    wl::SyntheticStreamSource source(cfg, kDefaultSeed);
    (void)engine.run_stream(source, "prearena", &policy);
    return out;
  }
};

TEST(StreamingCheckpoint, WriterReproducesPreArenaV1FixtureBytes) {
  // The reader is pinned by the fixture test above; this pins the writer,
  // so a codec that drifted on both sides symmetrically still fails.
  std::ifstream in(RISA_TEST_DATA_DIR "/prearena_v1.ckpt", std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing committed checkpoint fixture";
  const std::string fixture((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const std::vector<std::string> emitted = PreArenaRun().checkpoints(2000);
  ASSERT_FALSE(emitted.empty());
  EXPECT_EQ(emitted.front().size(), fixture.size());
  EXPECT_TRUE(emitted.front() == fixture)
      << "first checkpoint differs from tests/data/prearena_v1.ckpt";
}

TEST(StreamingCheckpoint, ResumeRejectsOutOfRangeFaultActionSubject) {
  // A calendar entry's subject indexes the fault plan's actions for the
  // four fault kinds.  Patch the pending 35000.0 Repair entry (action 1)
  // to name an action the plan does not have: the load must reject it
  // instead of indexing past plan.actions when the event fires.
  const PreArenaRun run;
  std::string bytes = run.checkpoints(2000).front();
  // Entry layout: f64 time, u64 seq, u8 kind, u32 subject, u32 epoch.
  const auto time_bits = std::bit_cast<std::uint64_t>(35000.0);
  std::string time_le(8, '\0');
  for (int i = 0; i < 8; ++i) {
    time_le[i] = static_cast<char>((time_bits >> (8 * i)) & 0xFF);
  }
  const auto repair = static_cast<char>(des::LifecycleKind::BoxRepair);
  std::vector<std::size_t> hits;
  for (std::size_t pos = bytes.find(time_le); pos != std::string::npos;
       pos = bytes.find(time_le, pos + 1)) {
    if (pos + 25 <= bytes.size() && bytes[pos + 16] == repair &&
        bytes.compare(pos + 17, 4, std::string("\x01\0\0\0", 4)) == 0) {
      hits.push_back(pos);
    }
  }
  ASSERT_EQ(hits.size(), 1u) << "the pending Repair entry was not found";
  bytes[hits[0] + 17] = static_cast<char>(run.faults.actions.size());

  Engine engine(Scenario::paper_defaults(), "RISA");
  run.arm(engine);
  wl::SyntheticStreamSource source(run.cfg, kDefaultSeed);
  std::istringstream in(bytes);
  EXPECT_THROW((void)engine.resume_stream(in, source), std::runtime_error);
}

TEST(StreamingCheckpoint, ResumeRejectsAlgorithmMismatch) {
  wl::SyntheticConfig cfg;
  cfg.count = 2000;
  Engine engine(Scenario::paper_defaults(), "RISA");
  std::vector<std::string> checkpoints;
  CheckpointPolicy policy;
  policy.every_events = 1000;
  policy.emit = [&checkpoints](const std::string& b) {
    checkpoints.push_back(b);
  };
  wl::SyntheticStreamSource source(cfg, kDefaultSeed);
  (void)engine.run_stream(source, "ckpt", &policy);
  ASSERT_FALSE(checkpoints.empty());

  Engine other(Scenario::paper_defaults(), "NULB");
  wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
  std::istringstream in(checkpoints.front());
  EXPECT_THROW((void)other.resume_stream(in, restored), std::runtime_error);
}

// --- Satellite regressions --------------------------------------------------

TEST(Log2HistogramTest, PercentilesStayResolvedAtScale) {
  Log2Histogram h;
  EXPECT_THROW((void)h.percentile(50.0), std::logic_error);

  // The BENCH_engine 5M-row failure mode: millions of small samples plus a
  // handful of giant outliers.  A range-scaled linear histogram collapses
  // to p50 == p99; log-scale bins must keep them an order of magnitude
  // apart.
  for (int i = 0; i < 5'000'000; ++i) h.add(200.0 + (i % 97));
  for (int i = 0; i < 1'000; ++i) h.add(5.0e9);
  const double p50 = h.percentile(50.0);
  const double p99 = h.percentile(99.0);
  EXPECT_NEAR(p50, 250.0, 250.0 / 16.0 + 16.0);  // 1/sub_bins relative error
  EXPECT_NEAR(p99, 297.0, 297.0 / 16.0 + 16.0);
  EXPECT_LT(p50, p99);
  EXPECT_GT(h.percentile(100.0), 4.0e9);
  EXPECT_EQ(h.total(), 5'001'000);

  // Read-out scaling (the engine's ticks->ns calibration).
  h.set_value_scale(2.0);
  EXPECT_EQ(h.percentile(50.0), 2.0 * p50);
  h.clear();
  EXPECT_EQ(h.total(), 0);
  EXPECT_THROW((void)h.percentile(50.0), std::logic_error);
}

TEST(BoxRestore, RestoresHolePatternsExactly) {
  topo::Box box(BoxId{0}, RackId{0}, ResourceType::Cpu, 0, {4, 4, 4});
  topo::BoxAllocation first, second;
  ASSERT_TRUE(box.allocate_into(4, first));   // fills brick 0
  ASSERT_TRUE(box.allocate_into(4, second));  // fills brick 1
  box.release(first);                         // hole: [4 free, 0, 4 free]
  const std::vector<Units> holes = box.available_by_brick();
  ASSERT_EQ(holes, (std::vector<Units>{4, 0, 4}));

  // A first-fit replay would compact the occupancy into brick 0;
  // restore_bricks must reproduce the recorded holes verbatim.
  topo::Box fresh(BoxId{0}, RackId{0}, ResourceType::Cpu, 0, {4, 4, 4});
  fresh.restore_bricks(holes);
  EXPECT_EQ(fresh.available_by_brick(), holes);
  EXPECT_EQ(fresh.allocated_units(), 4u);
  EXPECT_EQ(fresh.available_units(), 8u);

  EXPECT_THROW(fresh.restore_bricks({4, 0}), std::invalid_argument);
  EXPECT_THROW(fresh.restore_bricks({4, 0, 5}), std::invalid_argument);
}

}  // namespace
}  // namespace risa::sim

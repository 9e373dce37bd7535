#include "workloads.hpp"

#include <array>
#include <span>
#include <vector>

#include "topology/cluster.hpp"
#include "workload/arrival_source.hpp"

namespace perfbench {
namespace {

// Why each workload exists is recorded in perfbench/NOTES.md; in short:
//   risa-steady   -- the paper's operating point, nearly every VM placed
//                    intra-rack (admit path, index writes on every event);
//   risa-overload -- the same layers at 3x load, mostly the reject path
//                    and the SUPER_RACK / inter-rack fallbacks;
//   nulb-faults   -- NULB (no RISA code) with box failures, retries and
//                    migration sweeps: settlement and network heavy.
constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"risa-steady", "RISA", 0.9, false, 200000},
    {"risa-overload", "RISA", 3.0, false, 200000},
    {"nulb-faults", "NULB", 0.9, true, 100000},
}};

constexpr double kMtbfTu = 2000.0;
constexpr double kMttrTu = 4000.0;
constexpr risa::sim::RetryPolicy kRetry{2, 50.0};
constexpr double kMigrationPeriodTu = 500.0;
constexpr std::uint32_t kMigrationBudget = 4;
// Fault draws use their own stream so they never perturb the workload's.
constexpr std::uint64_t kFaultSeedSalt = 0x9e3779b97f4a7c15ULL;

/// E[CPU allocation units per VM] under the stream's uniform core draw.
double mean_cpu_units(const risa::wl::SyntheticConfig& cfg,
                      const risa::UnitScale& scale) {
  double sum = 0.0;
  for (std::int64_t c = cfg.min_cores; c <= cfg.max_cores; ++c) {
    sum += static_cast<double>(scale.to_units(risa::ResourceType::Cpu, c));
  }
  return sum / static_cast<double>(cfg.max_cores - cfg.min_cores + 1);
}

double stream_span(const risa::wl::SyntheticConfig& cfg, std::uint64_t seed) {
  risa::wl::SyntheticStreamSource source(cfg, seed);
  std::vector<risa::wl::ArrivalItem> chunk(4096);
  double last = 0.0;
  while (const std::size_t n = source.next_batch(chunk)) {
    last = chunk[n - 1].vm.arrival;
  }
  return last;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.scenario = risa::sim::Scenario::paper_defaults();

  in.stream.count = spec.count;
  in.stream.arrivals.lifetime_increment_tu = 0.0;  // fixed lifetime
  const risa::topo::Cluster cluster(in.scenario.cluster);
  const auto capacity =
      static_cast<double>(cluster.total_capacity(risa::ResourceType::Cpu));
  in.lifetime_tu = spec.rho * in.stream.arrivals.mean_interarrival_tu *
                   capacity /
                   mean_cpu_units(in.stream, in.scenario.cluster.unit_scale);
  in.stream.arrivals.base_lifetime_tu = in.lifetime_tu;
  in.stream.validate();
  in.span_tu = stream_span(in.stream, seed);

  if (spec.lifecycle) {
    risa::sim::MtbfSpec mtbf;
    mtbf.mtbf_tu = kMtbfTu;
    mtbf.mttr_tu = kMttrTu;
    mtbf.seed = seed ^ kFaultSeedSalt;
    mtbf.horizon_tu = in.span_tu;
    mtbf.num_boxes = static_cast<std::uint32_t>(cluster.num_boxes());
    in.scenario.faults = risa::sim::compile_mtbf_plan(mtbf);
    in.scenario.faults.retry = kRetry;
    in.scenario.migrations.period_tu = kMigrationPeriodTu;
    in.scenario.migrations.per_sweep_budget = kMigrationBudget;
  }
  in.scenario.validate();
  return in;
}

}  // namespace perfbench

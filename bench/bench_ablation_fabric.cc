// Ablations over the fabric design choices DESIGN.md calls out: how the
// data-flow advantage depends on the hardware the paper's vision assumes.
//
//  A. Interconnect generation (PCIe5 vs CXL, §6): latency/bandwidth of the
//     NIC->memory hop for a CPU-centric plan (the hop the offloaded plan
//     barely uses).
//  B. Network speed (§2.2 "the only technology whose speed is doubling
//     consistently"): where the conventional plan's bottleneck moves as the
//     network gets faster — and that pushdown stays ahead at every speed.
//  C. Storage processor speed (§3.3 "the processing capacity might be
//     limited"): the crossover below which offloading to a too-slow
//     accelerator stops paying and the optimizer must fall back.

#include <iostream>

#include "bench_common.h"

namespace dflow::bench {
namespace {

constexpr uint64_t kRows = 300'000;

Engine& EngineWithConfig(const sim::FabricConfig& config) {
  // Every fabric config scans the same immutable table, so it is generated
  // (and encoded, and zone-mapped) once and shared by each new engine.
  static const std::shared_ptr<Table> table = [] {
    LineitemSpec spec;
    spec.rows = kRows;
    return MakeLineitemTable(spec).ValueOrDie();
  }();
  static std::unique_ptr<Engine> engine;
  engine = std::make_unique<Engine>(config);
  DFLOW_CHECK(engine->catalog().Register(table).ok());
  MaybeEnableBenchTracing(*engine);
  return *engine;
}

void BM_Ablation_Interconnect(benchmark::State& state) {
  sim::FabricConfig config;
  config.use_cxl = state.range(0) == 1;
  Engine& engine = EngineWithConfig(config);
  QuerySpec spec = Q6Like(0.5);
  ExecOptions options;
  options.placement = PlacementChoice::kCpuOnly;  // stresses the interconnect
  ExecutionReport report;
  for (auto _ : state) {
    report = Must(engine.Execute(spec, options)).report;
  }
  ReportExecution(state, report,
                  std::string("interconnect/") +
                      (config.use_cxl ? "cxl" : "pcie5"),
                  &engine);
  state.SetLabel(config.use_cxl ? "cxl" : "pcie5");
}

BENCHMARK(BM_Ablation_Interconnect)
    ->DenseRange(0, 1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Ablation_NetworkSpeed(benchmark::State& state) {
  sim::FabricConfig config;
  const double gbps = static_cast<double>(state.range(0));
  config.storage_uplink_gbps = gbps;
  config.network_gbps = gbps;
  Engine& engine = EngineWithConfig(config);
  QuerySpec spec = Q6Like(0.5);
  ExecOptions options;
  options.placement = state.range(1) == 1 ? PlacementChoice::kFullOffload
                                          : PlacementChoice::kCpuOnly;
  ExecutionReport report;
  for (auto _ : state) {
    report = Must(engine.Execute(spec, options)).report;
  }
  ReportExecution(state, report,
                  "network/GBps=" + std::to_string(state.range(0)) +
                      (state.range(1) == 1 ? "/pushdown" : "/cpu"),
                  &engine);
  state.SetLabel(std::string(state.range(1) == 1 ? "pushdown" : "cpu") + "/" +
                 std::to_string(state.range(0)) + "GBps");
}

BENCHMARK(BM_Ablation_NetworkSpeed)
    ->ArgsProduct({{1, 3, 12, 50}, {0, 1}})  // 8..400 Gbps in GB/s
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Ablation_StorageProcSpeed(benchmark::State& state) {
  sim::FabricConfig config;
  config.storage_proc_gbps = static_cast<double>(state.range(0)) / 10.0;
  Engine& engine = EngineWithConfig(config);
  QuerySpec spec = Q6Like(0.5);
  // kAuto: the optimizer decides whether the weak cell is still worth it.
  ExecutionReport report;
  for (auto _ : state) {
    report = Must(engine.Execute(spec)).report;
  }
  ReportExecution(state, report,
                  "storage_cell/GBps10=" + std::to_string(state.range(0)),
                  &engine);
  const bool offloaded =
      report.variant.find("filter@storage") != std::string::npos;
  state.counters["optimizer_offloaded"] = offloaded ? 1 : 0;
  state.SetLabel("cell=" + std::to_string(state.range(0) / 10.0) + "GBps");
}

BENCHMARK(BM_Ablation_StorageProcSpeed)
    ->Arg(5)     // 0.5 GB/s: weaker than a CPU core
    ->Arg(20)    // 2 GB/s
    ->Arg(80)    // 8 GB/s
    ->Arg(160)   // 16 GB/s (default)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dflow::bench

int main(int argc, char** argv) {
  std::cout << "== Ablations: interconnect generation, network speed, "
               "storage-cell speed ==\n";
  dflow::bench::InitBenchIo(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dflow::bench::FinishBenchIo("bench_ablation_fabric");
  benchmark::Shutdown();
  return 0;
}

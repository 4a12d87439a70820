// perfbench: one benchmark for DFLOW on both clocks.
//
//   perfbench --workload <serve_steady|serve_chaos|adhoc|native>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--load <x>] [--spans-out <file>]
//
// Prints provenance, every end-to-end metric of the workload, the digest of
// its virtual-clock reports and (traced runs) the per-layer metrics, then
// as the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the common end-to-end metrics untraced, the per-layer ones
// traced. Exits non-zero without that line if a result differs from its
// Volcano reference, or the build is unoptimised. See README.md.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <unordered_map>

#include "perfbench.h"

namespace perfbench {
namespace {

const int64_t kProcessStartNs = NowNs();

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

/// The process's peak resident set since the last ResetPeakRss (VmHWM).
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  Fail("no VmHWM in /proc/self/status");
}

/// Returns freed heap to the system, then restarts the peak-RSS high-water
/// mark at the current resident set, so a round's peak counts only what
/// that round holds, not heap an earlier round left behind.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  if (!clear.flush()) Fail("cannot reset the peak RSS via /proc/self/clear_refs");
}

volatile uint64_t calibration_sink = 0;

/// Host-speed probe: a fixed memory-bound kernel that shares no code with
/// DFLOW (hash-map updates and a sort over seeded random keys). On a shared
/// host, contention moves DFLOW's own times by 10-30% over seconds to
/// minutes, and this kernel's time moves with it.
double CalibrationMs() {
  const int64_t t0 = NowNs();
  std::mt19937_64 rng(42);
  std::vector<uint64_t> keys(200'000);
  for (uint64_t& k : keys) k = rng();
  std::unordered_map<uint64_t, uint64_t> sums;
  for (uint64_t k : keys) sums[k % 50'000] += k;
  std::sort(keys.begin(), keys.end());
  uint64_t check = keys[keys.size() / 2];
  for (const auto& [k, v] : sums) check ^= k + v;
  calibration_sink = check;
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// CalibrationMs on the reference host (a 4-core Xeon VM).
/// Host times are reported as if measured there: each interval is divided
/// by the host slowdown (the calibration time around it over this one).
constexpr double kReferenceCalibrationMs = 25.0;

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <serve_steady|serve_chaos|adhoc|"
               "native> --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--load <x>] [--spans-out <file>]\n";
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--load") {
        o.load = std::stod(value());
      } else if (arg == "--spans-out") {
        o.spans_out = value();
      } else {
        Usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + arg);
    }
  }
  if (!IsWorkload(o.workload)) Usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0) || !(o.load > 0)) Usage("--seconds/--load must be > 0");
  return o;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Refuses numbers from an unoptimised build or an oversubscribed host.
std::string Provenance(const Options& o, unsigned nproc) {
#ifndef __OPTIMIZE__
  Fail("perfbench was built without optimisation");
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    Fail("dflow build type is " + build_type + ", not an optimised one");
  }
  if (o.workers > nproc) {
    Fail("workers (" + std::to_string(o.workers) + ") exceed nproc (" +
         std::to_string(nproc) + ")");
  }
  std::ostringstream out;
  out << "{\"workload\": " << Quote(o.workload) << ", \"seed\": " << o.seed
      << ", \"seconds\": " << o.seconds << ", \"trace\": " << o.trace
      << ", \"tiny\": " << o.tiny << ", \"load\": " << o.load
      << ", \"nproc\": " << nproc << ", \"workers\": " << o.workers
      << ", \"compiler\": " << Quote(PERFBENCH_CXX_ID)
      << ", \"flags\": " << Quote(PERFBENCH_CXX_FLAGS)
      << ", \"build_type\": " << Quote(build_type) << "}";
  return out.str();
}

/// Per-layer metrics taken from the workload's own timed loop.
const std::pair<const char*, const char*> kLoopLayerMetrics[] = {
    {"serve.run_ms", "ms"},
    {"serve.host_ns_per_event", "ns"},
    {"serve.sim_events", "count"},
    {"serve.admitted", "count"},
    {"serve.shed", "count"},
    {"serve.peak_in_flight", "count"},
    {"compile.cache_hit_frac", "ratio"},
    {"compile.planning_modeled_cold_ms", "ms"},
    {"compile.planning_modeled_warm_ms", "ms"},
    {"lifecycle.retries", "count"},
    {"lifecycle.retry_exhausted", "count"},
    {"lifecycle.breaker_probes", "count"},
    {"lifecycle.brownout_peak", "count"},
    {"exec.retransmits", "count"},
    {"exec.checksum_failures", "count"},
    {"exec.peak_queue_mb", "MiB"},
};

/// Span-derived share of the timed loop spent as self time per layer (the
/// span name's prefix up to the first '.'), and the smallest share of any
/// one query's wall that its layer spans cover.
void SpanShares(const SpanLog& log, MetricSet* layer) {
  const auto& spans = log.spans();
  const std::vector<int64_t> self = log.SelfNs();
  std::map<std::string, double> by_layer;
  double total = 0;
  double min_cover = 100;
  for (size_t i = 0; i < spans.size(); ++i) {
    // Only the timed loop: roots named "query" (adhoc, native) or the
    // service run itself (serve_*).
    int root = static_cast<int>(i);
    while (spans[root].parent >= 0) root = spans[root].parent;
    const std::string& root_name = spans[root].name;
    if (root_name != "query" && root_name != "serve.run") continue;
    const std::string& name = spans[i].name;
    const std::string layer_name =
        name == "query" ? "bench" : name.substr(0, name.find('.'));
    by_layer[layer_name] += static_cast<double>(self[i]);
    total += static_cast<double>(self[i]);
    if (name == "query") {
      const double wall =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      min_cover = std::min(min_cover,
                           100.0 * (1 - static_cast<double>(self[i]) / wall));
    }
  }
  for (const char* l : {"bench", "compile", "sim", "serve", "exec", "parallel"}) {
    layer->Add(std::string("span.") + l + "_pct",
               total > 0 ? 100 * by_layer[l] / total : 0, "%");
  }
  layer->Add("span.covered_min_pct", min_cover, "%");
}

int Run(int argc, char** argv) {
  Options o = Parse(argc, argv);
  const unsigned nproc = Nproc();
  o.workers = std::min(4u, nproc);
  std::cout << "perfbench provenance " << Provenance(o, nproc) << "\n";

  SpanLog spans;
  spans.set_enabled(o.trace);

  // Set-up: process start to first timed call, repeated; the median counts.
  // The host is calibrated between set-ups and rounds, never inside one;
  // an interval's slowdown is the mean of the calibrations around it.
  const int setups = o.tiny ? 1 : 7;
  std::vector<double> setup_s, setup_cal;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < setups; ++k) {
    w.reset();
    const int64_t t0 = k == 0 ? kProcessStartNs : NowNs();
    {
      ScopedSpan span(&spans, "setup");
      w = MakeWorkload(o);
      w->Setup(&spans);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_cal.push_back(CalibrationMs());
  }
  auto slowdown = [](const std::vector<double>& cal, size_t before,
                     size_t after) {
    return (cal[before] + cal[after]) / 2 / kReferenceCalibrationMs;
  };
  std::vector<double> setup_norm, slowdowns;
  for (size_t k = 0; k < setup_s.size(); ++k) {
    const double f = slowdown(setup_cal, k == 0 ? 0 : k - 1, k);
    setup_norm.push_back(setup_s[k] / f);
  }

  const double setup_peak_rss = PeakRssMiB();

  // Timed phase. A traced run alternates span recording on and off per
  // round; the difference is the span overhead. Peak RSS is taken per
  // round and averaged: rounds differ in what they hold at their peak.
  const int64_t budget_ns = static_cast<int64_t>(o.seconds * 1e9);
  const size_t min_rounds = 4;
  std::vector<double> peak_rss;
  int64_t timed_ns = 0;
  std::vector<double> round_s, query_ms;
  uint64_t done = 0, rows = 0;
  std::vector<double> round_cal = {setup_cal.back()};
  uint64_t attempted = 0, failed = 0;
  for (size_t r = 0; timed_ns < budget_ns || r < min_rounds; ++r) {
    const bool record = o.trace && r % 2 == 1;
    spans.set_enabled(record);
    ResetPeakRss();
    const RoundStats round = w->RunRound(&spans, RoundMode::kPlain);
    const double wall_s = static_cast<double>(round.wall_ns) / 1e9;
    timed_ns += round.wall_ns;
    attempted += round.attempted;
    failed += round.attempted - round.done;
    round_s.push_back(wall_s);
    done += round.done;
    rows += round.rows;
    query_ms.insert(query_ms.end(), round.query_ms.begin(),
                    round.query_ms.end());
    peak_rss.push_back(PeakRssMiB());
    round_cal.push_back(CalibrationMs());
  }
  // Rates over the whole timed phase: rounds differ in their queries, so
  // totals average the query mix better than a median of round rates.
  double norm_s = 0;
  std::vector<double> spans_on_s, spans_off_s;  // calibrated round times
  for (size_t r = 0; r < round_s.size(); ++r) {
    const double f = slowdown(round_cal, r, r + 1);
    slowdowns.push_back(f);
    norm_s += round_s[r] / f;
    (o.trace && r % 2 == 1 ? spans_on_s : spans_off_s)
        .push_back(round_s[r] / f);
  }
  spans.set_enabled(false);
  double engine_overhead_pct = 0;
  if (o.trace) {
    // Engine::EnableTracing cost: the same queries again with the engine's
    // event tracer on, against an untraced run of them.
    const RoundStats plain = w->RunRound(nullptr, RoundMode::kPlain);
    round_cal.push_back(CalibrationMs());
    const RoundStats traced = w->RunRound(nullptr, RoundMode::kReplay);
    round_cal.push_back(CalibrationMs());
    const size_t n = round_cal.size();
    const double plain_s = static_cast<double>(plain.wall_ns) /
                           slowdown(round_cal, n - 3, n - 2);
    const double traced_s = static_cast<double>(traced.wall_ns) /
                            slowdown(round_cal, n - 2, n - 1);
    engine_overhead_pct = 100.0 * (traced_s / plain_s - 1);
  }

  // Correctness, outside the timed phase and set-up.
  w->Check();
  WorkloadReport report = w->Report();

  MetricSet e2e;
  e2e.Add("setup_s", Median(setup_norm), "s");
  e2e.Add("peak_rss_mb",
          std::accumulate(peak_rss.begin(), peak_rss.end(), 0.0) /
              static_cast<double>(peak_rss.size()),
          "MiB");
  e2e.Add("queries_per_s", static_cast<double>(done) / norm_s, "1/s");
  e2e.Add("rows_per_s", static_cast<double>(rows) / norm_s, "rows/s");
  MetricSet all = e2e;
  // The same host times as measured here, before calibration.
  all.Add("setup_s_raw", Median(setup_s), "s");
  const double timed_s = static_cast<double>(timed_ns) / 1e9;
  all.Add("queries_per_s_raw", static_cast<double>(done) / timed_s, "1/s");
  all.Add("rows_per_s_raw", static_cast<double>(rows) / timed_s, "rows/s");
  all.Add("host_slowdown", Median(slowdowns), "ratio");
  if (!query_ms.empty()) {
    const double pct = TailPercentile(query_ms.size());
    all.Add("query_ms_p50", Median(query_ms), "ms");
    all.Add("query_ms_tail", Percentile(query_ms, pct / 100), "ms");
    all.Add("query_ms_tail_pct", pct, "%");
    all.Add("query_samples", static_cast<double>(query_ms.size()), "count");
  }
  for (const Metric& m : report.e2e.items()) all.Add(m.name, m.value, m.unit);
  all.Add("failed_frac",
          static_cast<double>(failed) / static_cast<double>(attempted),
          "ratio");
  all.Add("setup_peak_rss_mb", setup_peak_rss, "MiB");
  all.Add("rounds", static_cast<double>(round_s.size()), "count");
  all.Add("timed_s", timed_s, "s");
  std::cout << "perfbench end_to_end " << all.ToJson() << "\n";
  std::cout << "perfbench inputs " << report.inputs << "\n";
  std::cout << "perfbench digest " << report.digest << "\n";

  MetricSet layer;
  if (o.trace) {
    // Layers a workload's loop does not use did no work there: 0.
    for (const auto& [name, unit] : kLoopLayerMetrics) layer.Add(name, 0, unit);
    spans.set_enabled(true);
    w->Probe(&spans, &layer);
    spans.set_enabled(false);
    for (const Metric& m : report.layer.items()) {
      layer.Add(m.name, m.value, m.unit);
    }
    // Table generation per set-up (median over the set-ups).
    std::vector<double> gen_ms(setups, 0.0);
    int setup_index = -1;
    for (const SpanLog::Span& s : spans.spans()) {
      if (s.name == "setup") ++setup_index;
      if (s.name == "workload.gen" && setup_index >= 0) {
        gen_ms[setup_index] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    layer.Add("workload.gen_ms", Median(gen_ms), "ms");
    SpanShares(spans, &layer);
    layer.Add("trace.engine_overhead_pct", engine_overhead_pct, "%");
    layer.Add("bench.span_overhead_pct",
              100.0 * (Median(spans_on_s) / Median(spans_off_s) - 1), "%");
    std::cout << "perfbench per_layer " << layer.ToJson() << "\n";
    if (!o.spans_out.empty()) spans.WriteJson(o.spans_out);
  }

  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": "
            << (o.trace ? layer : e2e).ToJson() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }

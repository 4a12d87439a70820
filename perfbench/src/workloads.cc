// The four workloads. Each generates its inputs from the seed, exposes a
// timed round, and checks every DONE query against a fault-free Volcano
// reference outside the timed phase. README.md says why each was chosen.

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/scan.h"
#include "dflow/plan/fingerprint.h"
#include "dflow/serve/service_loop.h"
#include "dflow/testing/canonical.h"
#include "dflow/trace/report_json.h"
#include "dflow/workload/tpch_like.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using dflow::AggFunc;
using dflow::ArithOp;
using dflow::CompareOp;
using dflow::Engine;
using dflow::ExecMode;
using dflow::ExecOptions;
using dflow::Expr;
using dflow::ExprPtr;
using dflow::QuerySpec;
using dflow::Table;
using dflow::Value;

constexpr size_t kVolcanoPoolPages = 256;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double MiB(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

std::shared_ptr<Table> Lineitem(uint64_t rows, uint64_t orders, uint64_t seed,
                                SpanLog* spans) {
  dflow::LineitemSpec spec;
  spec.rows = rows;
  spec.num_orders = orders;
  spec.seed = seed;
  ScopedSpan span(spans, "workload.gen");
  return Must(dflow::MakeLineitemTable(spec), "MakeLineitemTable");
}

int32_t ShipdateAt(double fraction) {
  return dflow::kShipdateLo +
         static_cast<int32_t>(fraction *
                              (dflow::kShipdateHi - dflow::kShipdateLo));
}

QuerySpec Q6Like(double selectivity) {
  QuerySpec spec;
  spec.table = "lineitem";
  spec.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                          Expr::Lit(Value::Date32(ShipdateAt(selectivity))));
  spec.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                  Expr::Col("l_discount"))};
  spec.projection_names = {"revenue"};
  spec.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
  return spec;
}

QuerySpec Q1Like() {
  QuerySpec spec;
  spec.table = "lineitem";
  spec.group_by = {"l_returnflag", "l_linestatus"};
  spec.aggregates = {{AggFunc::kSum, "l_quantity", "sum_qty"},
                     {AggFunc::kSum, "l_extendedprice", "sum_price"},
                     {AggFunc::kCount, "", "count"}};
  return spec;
}

QuerySpec CountOnly(double selectivity) {
  QuerySpec spec = Q6Like(selectivity);
  spec.projections.clear();
  spec.projection_names.clear();
  spec.aggregates.clear();
  spec.count_only = true;
  return spec;
}

/// Text identifying a generated table: its size and every row group's
/// zone maps (what the seed changes, at no decoding cost).
std::string TableText(const Table& table) {
  std::string text = table.name() + ":" + std::to_string(table.num_rows()) +
                     ":" + std::to_string(table.EncodedBytes());
  for (size_t g = 0; g < table.num_row_groups(); ++g) {
    for (size_t c = 0; c < table.schema().num_fields(); ++c) {
      const dflow::ZoneMap& z = table.row_group(g).zone_map(c);
      text += '|';
      text += z.min.ToString();
      text += ',';
      text += z.max.ToString();
    }
  }
  return text;
}

/// Host time the correctness check spends, outside the timed phase:
/// Volcano reference runs and canonical fingerprints (summed over threads).
struct CheckCost {
  int64_t volcano_ns = 0;
  int64_t fingerprint_ns = 0;

  void Add(const CheckCost& other) {
    volcano_ns += other.volcano_ns;
    fingerprint_ns += other.fingerprint_ns;
  }
  void Report(MetricSet* layer) const {
    layer->Add("volcano.oracle_ms", Ms(volcano_ns), "ms");
    layer->Add("testing.fingerprint_ms", Ms(fingerprint_ns), "ms");
  }
};

std::string Fingerprint(const std::vector<dflow::DataChunk>& chunks,
                        CheckCost* cost) {
  const int64_t t0 = NowNs();
  std::string fp = dflow::testing::CanonicalizeChunks(chunks).fingerprint;
  cost->fingerprint_ns += NowNs() - t0;
  return fp;
}

/// Fault-free Volcano reference fingerprints. One engine per thread.
class Reference {
 public:
  Reference(std::vector<std::shared_ptr<Table>> tables, CheckCost* cost)
      : cost_(cost) {
    for (auto& t : tables) Must(engine_.catalog().Register(t), "Register");
  }
  std::string Query(const QuerySpec& spec) {
    const int64_t t0 = NowNs();
    auto ref = Must(engine_.ExecuteOnVolcano(spec, kVolcanoPoolPages),
                    "ExecuteOnVolcano");
    return Canonical(ref.rows, t0);
  }
  std::string JoinCount(const dflow::JoinSpec& spec) {
    const int64_t t0 = NowNs();
    dflow::VolcanoRunner volcano(engine_.config());
    auto ref = Must(volcano.RunJoinCount(engine_.catalog(), spec,
                                         kVolcanoPoolPages),
                    "RunJoinCount");
    return Canonical(ref.rows, t0);
  }

 private:
  std::string Canonical(const std::vector<dflow::volcano::Row>& rows,
                        int64_t t0) {
    const int64_t t1 = NowNs();
    std::string fp = dflow::testing::CanonicalizeVolcanoRows(rows).fingerprint;
    cost_->volcano_ns += t1 - t0;
    cost_->fingerprint_ns += NowNs() - t1;
    return fp;
  }

  Engine engine_;
  CheckCost* cost_;
};

void CheckEqual(const std::string& got, const std::string& want,
                const std::string& what) {
  if (got != want) {
    Fail("result mismatch for " + what + ": fingerprint " + got +
         " != Volcano reference " + want);
  }
}

// ================================================================ serving

/// Narrow storage uplink: the disaggregation boundary is the scarce
/// resource, so placement and admission decide the serving curve.
dflow::sim::FabricConfig ServeFabric() {
  dflow::sim::FabricConfig config;
  config.store_media_gbps = 32.0;
  config.store_request_latency_ns = 20'000;
  config.storage_proc_gbps = 10.0;
  config.storage_uplink_gbps = 1.0;
  config.network_gbps = 1.0;
  config.cpu_scale = 2.0;
  return config;
}

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const Options& options, bool chaos)
      : options_(options), chaos_(chaos) {}

  void Setup(SpanLog* spans) override {
    const uint64_t rows = options_.tiny ? 20'000 : 200'000;
    lineitem_ = Lineitem(rows, rows / 8, Mix(options_.seed, 1), spans);
    tenants_ = Tenants();
    for (const auto& t : tenants_) {
      for (const auto& m : t.templates) templates_[m.name] = m.spec;
    }
    config_.seed = TraceSeed(0);
    config_.horizon_ns = options_.tiny ? 30'000'000 : 75'000'000;
    config_.placement = dflow::PlacementChoice::kAuto;
    config_.admission.global_max_in_flight = 3;
    // Queues deep enough that the chaos workload's slowest traces (CPU-only
    // fallback during the outage) still shed nothing.
    config_.admission.global_queue_capacity = 16;
    config_.collect_results = true;
    if (chaos_) {
      auto& lc = config_.lifecycle;
      // Breakers re-probe the crashed device instead of quarantining it;
      // retries re-admit crashed and delivery-exhausted work.
      lc.quarantine_on_crash = false;
      lc.retry.retry_device_crash = true;
      lc.retry.retry_delivery_exhausted = true;
      lc.retry.max_attempts = 3;
      lc.retry.backoff_base_ns = 300'000;
      lc.retry.fallback_chain = {dflow::PlacementChoice::kAuto,
                                 dflow::PlacementChoice::kCpuOnly};
      lc.breaker.enabled = true;
      lc.breaker.failure_threshold = 1;
      lc.breaker.cooldown_ns = 6'000'000;
      lc.breaker.max_cooldown_ns = 24'000'000;
      // The ladder escalates while the breaker is open and forces the
      // cheap placement; its dwell outlasts the outage and no tenant's
      // priority reaches shed_priority_min, so it never sheds a query.
      lc.brownout.enabled = true;
      lc.brownout.dwell_ns = config_.horizon_ns / 4;
      lc.brownout.shed_priority_min = 3;
    }
    // Every round builds its own engine (outside its timed Run); set-up
    // includes one build so engine construction counts there.
    ScopedSpan span(spans, "engine.build");
    MakeEngine();
  }

  RoundStats RunRound(SpanLog* spans, RoundMode mode) override {
    // Each round serves its own arrival trace drawn from the seed, so a
    // run averages over as many traces as fit its time; a replay serves
    // the previous round's trace again and must reproduce its reports.
    if (mode == RoundMode::kPlain) trace_ = rounds_++;
    config_.seed = TraceSeed(trace_);
    config_.lifecycle.retry.jitter_seed = config_.seed;
    // A fresh fabric per round: the crash schedule and fault stream
    // restart with the round.
    std::unique_ptr<Engine> engine = MakeEngine();
    if (mode != RoundMode::kPlain) {
      dflow::trace::TraceOptions trace;
      trace.enabled = true;
      engine->EnableTracing(trace);
    }
    dflow::serve::ServiceLoop loop(engine.get(), tenants_, config_);
    RoundStats round;
    dflow::serve::ServiceResult result;
    {
      ScopedSpan span(spans, "serve.run", rounds_);
      const int64_t t0 = NowNs();
      result = Must(loop.Run(), "ServiceLoop::Run");
      round.wall_ns = NowNs() - t0;
    }
    const uint64_t events = engine->fabric().simulator().events_processed();
    round.attempted = result.service.arrivals_total;
    std::map<std::string, uint64_t> done_by_template;
    for (const auto& q : result.outcomes) {
      if (q.outcome != dflow::lifecycle::OutcomeCode::kDone) continue;
      ++round.done;
      ++done_by_template[q.template_name];
      seen_[q.template_name].insert(Fingerprint(q.chunks, &cost_));
    }
    if (template_rows_.empty()) CountTemplateRows();
    for (const auto& [name, n] : done_by_template) {
      round.rows += n * template_rows_.at(name);
    }
    const std::string digest =
        Fnv64Hex(dflow::trace::ServiceReportToJson(result.service) +
                 dflow::trace::ExecutionReportToJson(result.fabric));
    if (mode == RoundMode::kReplay && digest != last_digest_) {
      Fail("virtual-clock report differs between replays of one trace");
    }
    last_digest_ = digest;
    if (digest_.empty()) {
      digest_ = digest;
      first_ = result.service;
      fabric_ = result.fabric;
      events_ = events;
    }
    if (mode == RoundMode::kPlain) {
      run_ms_.push_back(Ms(round.wall_ns));
      ns_per_event_.push_back(static_cast<double>(round.wall_ns) /
                              static_cast<double>(std::max<uint64_t>(events, 1)));
    }
    return round;
  }

  void Check() override {
    Reference reference({lineitem_}, &cost_);
    for (const auto& [name, fps] : seen_) {
      const std::string want = reference.Query(templates_.at(name));
      for (const std::string& fp : fps) CheckEqual(fp, want, name);
    }
  }

  WorkloadReport Report() override {
    WorkloadReport r;
    const auto& s = first_;
    // The interactive tenant is index 0.
    r.e2e.Add("sim_ms_p50", Ms(static_cast<int64_t>(s.tenants[0].p50_ns)),
              "ms");
    r.e2e.Add("sim_ms_tail", Ms(static_cast<int64_t>(s.p99_ns)), "ms");
    r.e2e.Add("sim_ms_tail_pct", 99, "%");
    r.e2e.Add("net_mb_per_query",
              MiB(fabric_.network_bytes) /
                  static_cast<double>(std::max<uint64_t>(s.completed_total, 1)),
              "MiB");
    r.e2e.Add("sim_makespan_ms", Ms(static_cast<int64_t>(s.makespan_ns)),
              "ms");
    r.e2e.Add("shed", static_cast<double>(s.shed_total), "count");
    r.layer.Add("serve.run_ms", Median(run_ms_), "ms");
    r.layer.Add("serve.host_ns_per_event", Median(ns_per_event_), "ns");
    r.layer.Add("serve.sim_events", static_cast<double>(events_), "count");
    r.layer.Add("serve.admitted", static_cast<double>(s.admitted_total),
                "count");
    r.layer.Add("serve.shed", static_cast<double>(s.shed_total), "count");
    r.layer.Add("serve.peak_in_flight", static_cast<double>(s.peak_in_flight),
                "count");
    const uint64_t lookups = s.cache_hits + s.cache_misses + s.cache_recompiles;
    r.layer.Add("compile.cache_hit_frac",
                lookups == 0 ? 0.0
                             : static_cast<double>(s.cache_hits) /
                                   static_cast<double>(lookups),
                "ratio");
    // Modeled (virtual) planning cost, not a host measurement.
    r.layer.Add("compile.planning_modeled_cold_ms",
                Ms(static_cast<int64_t>(s.cache_planning_ns_cold)), "ms");
    r.layer.Add("compile.planning_modeled_warm_ms",
                Ms(static_cast<int64_t>(s.cache_planning_ns_warm)), "ms");
    r.layer.Add("lifecycle.retries", static_cast<double>(s.retries_total),
                "count");
    r.layer.Add("lifecycle.retry_exhausted",
                static_cast<double>(s.retry_exhausted_total), "count");
    r.layer.Add("lifecycle.breaker_probes",
                static_cast<double>(s.breaker_probes), "count");
    r.layer.Add("lifecycle.brownout_peak",
                static_cast<double>(s.brownout_peak_level), "count");
    r.layer.Add("exec.retransmits",
                static_cast<double>(fabric_.fault.retransmits), "count");
    r.layer.Add("exec.checksum_failures",
                static_cast<double>(fabric_.fault.checksum_failures), "count");
    r.layer.Add("exec.peak_queue_mb", MiB(fabric_.peak_queue_bytes), "MiB");
    cost_.Report(&r.layer);
    r.digest = digest_;
    // The open-loop arrival trace the seed generates.
    std::string inputs = TableText(*lineitem_);
    dflow::serve::WorkloadDriver driver(tenants_, TraceSeed(0),
                                        config_.horizon_ns);
    for (const auto& a : driver.OpenLoopArrivals()) {
      inputs += "|" + std::to_string(a.at) + ":" + std::to_string(a.tenant) +
                ":" + std::to_string(a.template_index);
    }
    r.inputs = Fnv64Hex(inputs);
    return r;
  }

  void Probe(SpanLog* spans, MetricSet* layer) override {
    ProbeInputs in;
    in.lineitem = lineitem_;
    in.fabric = ServeFabric();
    for (const auto& [name, spec] : templates_) in.templates.push_back(spec);
    in.workers = options_.workers;
    in.reps = options_.tiny ? 1 : 3;
    RunLayerProbes(in, spans, layer);
  }

 private:
  uint64_t TraceSeed(uint64_t trace) const {
    return Mix(Mix(options_.seed, 2), trace);
  }

  std::vector<dflow::serve::TenantConfig> Tenants() const {
    // --load shortens the arrival slots: it multiplies the offered rate.
    const auto slot_ns =
        static_cast<dflow::sim::SimTime>(1'000'000 / options_.load);
    dflow::serve::TenantConfig interactive;
    interactive.name = "interactive";
    interactive.priority = 0;
    interactive.queue_capacity = 8;
    interactive.slot_ns = slot_ns;
    interactive.arrival_probability = 0.08;
    interactive.templates = {{Q6Like(0.05), "q6-narrow", 3},
                             {CountOnly(0.10), "count", 1}};

    dflow::serve::TenantConfig analytics;
    analytics.name = "analytics";
    analytics.priority = 1;
    analytics.queue_capacity = 4;
    analytics.slot_ns = slot_ns;
    analytics.arrival_probability = 0.04;
    analytics.templates = {{Q6Like(0.3), "q6-wide", 2}, {Q1Like(), "q1", 1}};

    dflow::serve::TenantConfig batch;
    batch.name = "batch";
    batch.priority = 2;
    batch.queue_capacity = 2;
    batch.closed_loop_clients = 2;
    batch.think_time_ns = 4'000'000;
    batch.templates = {{Q1Like(), "q1", 1}};
    return {interactive, analytics, batch};
  }

  /// Rows entering each template's scan: the rows of the row groups its
  /// filter's zone maps keep. Counted once, outside any timed interval.
  void CountTemplateRows() {
    for (const auto& [name, spec] : templates_) {
      auto scan = Must(dflow::TableScanSource::Make(lineitem_, {"l_shipdate"},
                                                    spec.filter),
                       "TableScanSource::Make");
      dflow::TableScanSource::ScanStats stats;
      Must(scan.Produce(&stats), "TableScanSource::Produce");
      template_rows_[name] = stats.rows_produced;
    }
  }

  std::unique_ptr<Engine> MakeEngine() const {
    auto engine = std::make_unique<Engine>(ServeFabric());
    Must(engine->catalog().Register(lineitem_), "Register");
    if (chaos_) {
      dflow::sim::FaultConfig fc;
      fc.seed = Mix(options_.seed, 3);
      fc.drop_prob = 0.002;
      fc.corrupt_prob = 0.002;
      fc.stall_prob = 0.005;
      engine->EnableFaultInjection(fc);
      // The storage accelerator dies mid-run and comes back later.
      const auto h = config_.horizon_ns;
      engine->fault_injector()->CrashDeviceAt("storage_proc", h * 3 / 10);
      engine->fault_injector()->RestoreDeviceAt("storage_proc", h * 6 / 10);
    }
    return engine;
  }

  Options options_;
  bool chaos_;
  std::shared_ptr<Table> lineitem_;
  std::vector<dflow::serve::TenantConfig> tenants_;
  std::map<std::string, QuerySpec> templates_;
  dflow::serve::ServiceConfig config_;
  uint64_t rounds_ = 0;
  uint64_t trace_ = 0;
  std::string last_digest_;

  std::map<std::string, std::set<std::string>> seen_;
  std::map<std::string, uint64_t> template_rows_;
  std::string digest_;
  dflow::serve::ServiceReport first_;
  dflow::ExecutionReport fabric_;
  uint64_t events_ = 0;
  std::vector<double> run_ms_;
  std::vector<double> ns_per_event_;
  CheckCost cost_;
};

// ================================================================= ad hoc

/// Generates a seeded stream of distinct ad-hoc queries over lineitem. The
/// shape cycles through kShapes so every round costs about the same; the
/// seed picks columns, constants, projections, groups and aggregates.
class AdhocGenerator {
 public:
  static constexpr int kShapes = 8;

  explicit AdhocGenerator(uint64_t seed) : rng_(seed) {}

  QuerySpec Next(int shape) {
    while (true) {
      QuerySpec spec = Make(shape);
      if (seen_.insert(dflow::FingerprintQuerySpec(spec)).second) return spec;
    }
  }

 private:
  ExprPtr RandomPredicate() {
    switch (rng_.NextUint64(4)) {
      case 0:
        return Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                         Expr::Lit(Value::Date32(
                             ShipdateAt(rng_.NextDouble(0.05, 0.95)))));
      case 1:
        return Expr::Cmp(CompareOp::kLe, Expr::Col("l_quantity"),
                         Expr::Lit(Value::Double(static_cast<double>(
                             rng_.NextInt64(5, 45)))));
      case 2:
        return Expr::Cmp(CompareOp::kGe, Expr::Col("l_discount"),
                         Expr::Lit(Value::Double(
                             static_cast<double>(rng_.NextInt64(1, 9)) / 100)));
      default:
        return Expr::Cmp(CompareOp::kGt, Expr::Col("l_extendedprice"),
                         Expr::Lit(Value::Double(rng_.NextDouble(100, 40000))));
    }
  }

  std::string NumericColumn() {
    static const char* kCols[] = {"l_quantity", "l_extendedprice",
                                  "l_discount", "l_tax"};
    return kCols[rng_.NextUint64(4)];
  }

  std::vector<dflow::AggSpec> RandomAggregates() {
    std::vector<dflow::AggSpec> aggs = {{AggFunc::kCount, "", "n"}};
    if (rng_.NextBool()) aggs.push_back({AggFunc::kSum, NumericColumn(), "qty"});
    if (rng_.NextBool()) aggs.push_back({AggFunc::kMin, NumericColumn(), "lo"});
    if (rng_.NextBool()) aggs.push_back({AggFunc::kMax, NumericColumn(), "hi"});
    return aggs;
  }

  QuerySpec Make(int shape) {
    QuerySpec spec;
    spec.table = "lineitem";
    switch (shape) {
      case 0:  // filter + scalar aggregates
        spec.filter = RandomPredicate();
        spec.aggregates = RandomAggregates();
        break;
      case 1: {  // group by flag/status subset
        static const std::vector<std::vector<std::string>> kGroups = {
            {"l_returnflag"}, {"l_linestatus"},
            {"l_returnflag", "l_linestatus"}};
        spec.group_by = kGroups[rng_.NextUint64(kGroups.size())];
        if (rng_.NextBool()) spec.filter = RandomPredicate();
        spec.aggregates = RandomAggregates();
        break;
      }
      case 2:  // count-only
        spec.filter = RandomPredicate();
        spec.count_only = true;
        break;
      case 3: {  // selective projection (about 1% of rows)
        const double lo = rng_.NextDouble(0.0, 0.98);
        spec.filter = Expr::And(
            {Expr::Cmp(CompareOp::kGe, Expr::Col("l_shipdate"),
                       Expr::Lit(Value::Date32(ShipdateAt(lo)))),
             Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                       Expr::Lit(Value::Date32(ShipdateAt(lo + 0.01))))});
        spec.projections = {Expr::Col("l_orderkey"), Expr::Col(NumericColumn())};
        spec.projection_names = {"k", "v"};
        break;
      }
      case 4: {  // computed projection + aggregate
        spec.filter = RandomPredicate();
        spec.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_quantity"),
                                        Expr::Col(NumericColumn()))};
        spec.projection_names = {"x"};
        spec.aggregates = {{AggFunc::kMin, "x", "lo"},
                           {AggFunc::kMax, "x", "hi"},
                           {AggFunc::kCount, "", "n"}};
        break;
      }
      case 5: {  // group by supplier, ORDER BY key LIMIT k
        spec.group_by = {"l_suppkey"};
        spec.filter = RandomPredicate();
        spec.aggregates = RandomAggregates();
        dflow::SortSpec sort;
        sort.column = "l_suppkey";
        sort.descending = rng_.NextBool();
        sort.limit = 5 + rng_.NextUint64(50);
        spec.order_by = sort;
        break;
      }
      case 6: {  // top-k rows by price
        spec.filter = RandomPredicate();
        spec.projections = {Expr::Col("l_orderkey"),
                            Expr::Col("l_extendedprice")};
        spec.projection_names = {"k", "price"};
        dflow::SortSpec sort;
        sort.column = "price";
        sort.descending = true;
        sort.limit = 10 + rng_.NextUint64(90);
        spec.order_by = sort;
        break;
      }
      default: {  // string predicate + group by
        static const char* kFlags[] = {"A", "N", "R"};
        spec.filter = Expr::And(
            {Expr::Cmp(CompareOp::kEq, Expr::Col("l_returnflag"),
                       Expr::Lit(Value::String(kFlags[rng_.NextUint64(3)]))),
             RandomPredicate()});
        spec.group_by = {"l_linestatus"};
        spec.aggregates = RandomAggregates();
        break;
      }
    }
    return spec;
  }

  dflow::Random rng_;
  std::set<uint64_t> seen_;
};

class AdhocWorkload : public Workload {
 public:
  static constexpr uint64_t kVirtualRounds = 8;

  explicit AdhocWorkload(const Options& options)
      : options_(options), gen_(Mix(options.seed, 4)) {}

  void Setup(SpanLog* spans) override {
    const uint64_t rows = options_.tiny ? 20'000 : 200'000;
    lineitem_ = Lineitem(rows, rows / 8, Mix(options_.seed, 1), spans);
    ScopedSpan span(spans, "engine.build");
    engine_ = std::make_unique<Engine>(ServeFabric());
    Must(engine_->catalog().Register(lineitem_), "Register");
  }

  RoundStats RunRound(SpanLog* spans, RoundMode mode) override {
    if (mode == RoundMode::kReplay) {
      dflow::trace::TraceOptions trace;
      trace.enabled = true;
      engine_->EnableTracing(trace);
    } else {
      last_round_.clear();
      for (int s = 0; s < AdhocGenerator::kShapes; ++s) {
        last_round_.push_back(gen_.Next(s));
      }
    }
    RoundStats round;
    std::string digest_text;
    for (const QuerySpec& spec : last_round_) {
      const uint64_t id = ++queries_;
      dflow::QueryResult result;
      const int64_t t0 = NowNs();
      {
        ScopedSpan query(spans, "query", id);
        std::shared_ptr<dflow::compile::CompiledQuery> plan;
        {
          ScopedSpan span(spans, "compile.plan", id);
          plan = Must(engine_->CompilePlan(spec), "CompilePlan");
        }
        // kAuto on a healthy fabric: the best-ranked variant.
        dflow::Placement placement = plan->variants.front().placement;
        dflow::compile::ProgramPtr program;
        {
          ScopedSpan span(spans, "compile.variant", id);
          program = Must(engine_->CompileVariant(plan.get(), placement),
                         "CompileVariant");
        }
        {
          ScopedSpan span(spans, "sim.execute", id);
          result = Must(engine_->ExecuteProgram(*program), "ExecuteProgram");
        }
      }
      const int64_t wall = NowNs() - t0;
      round.wall_ns += wall;
      round.query_ms.push_back(Ms(wall));
      ++round.attempted;
      ++round.done;
      round.rows += result.report.scan.rows_produced;
      const std::string fp = Fingerprint(result.chunks, &cost_);
      if (mode == RoundMode::kPlain) checks_.emplace_back(spec, fp);
      // Virtual metrics cover a fixed query set, whatever the host's speed.
      if (mode == RoundMode::kPlain && rounds_ < kVirtualRounds) {
        sim_ms_.push_back(Ms(static_cast<int64_t>(result.report.sim_ns)));
        net_bytes_ += result.report.network_bytes;
        peak_queue_bytes_ =
            std::max(peak_queue_bytes_, result.report.peak_queue_bytes);
        ++completed_;
      }
      if (rounds_ == 0) {
        digest_text += dflow::trace::ExecutionReportToJson(result.report) + fp;
        inputs_text_ +=
            "|" + std::to_string(dflow::FingerprintQuerySpec(spec));
      }
    }
    if (rounds_ == 0) digest_ = Fnv64Hex(digest_text);
    if (mode == RoundMode::kReplay) engine_->DisableTracing();
    ++rounds_;
    return round;
  }

  void Check() override {
    // Every query is distinct, so each needs its own reference run; they
    // are independent, so they run on all workers (one engine each).
    std::vector<std::string> want(checks_.size());
    std::vector<CheckCost> costs(options_.workers);
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < options_.workers; ++t) {
      threads.emplace_back([this, t, &want, &costs] {
        Reference reference({lineitem_}, &costs[t]);
        for (size_t i = t; i < checks_.size(); i += options_.workers) {
          want[i] = reference.Query(checks_[i].first);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const CheckCost& c : costs) cost_.Add(c);
    for (size_t i = 0; i < checks_.size(); ++i) {
      CheckEqual(checks_[i].second, want[i],
                 "ad-hoc query " + std::to_string(i));
    }
  }

  WorkloadReport Report() override {
    WorkloadReport r;
    r.e2e.Add("sim_ms_p50", Median(sim_ms_), "ms");
    const double pct = TailPercentile(sim_ms_.size());
    r.e2e.Add("sim_ms_tail", Percentile(sim_ms_, pct / 100), "ms");
    r.e2e.Add("sim_ms_tail_pct", pct, "%");
    r.e2e.Add("net_mb_per_query",
              MiB(net_bytes_) /
                  static_cast<double>(std::max<uint64_t>(completed_, 1)),
              "MiB");
    r.layer.Add("exec.peak_queue_mb", MiB(peak_queue_bytes_), "MiB");
    cost_.Report(&r.layer);
    r.digest = digest_;
    r.inputs = Fnv64Hex(TableText(*lineitem_) + inputs_text_);
    return r;
  }

  void Probe(SpanLog* spans, MetricSet* layer) override {
    ProbeInputs in;
    in.lineitem = lineitem_;
    in.fabric = ServeFabric();
    AdhocGenerator probe_gen(Mix(options_.seed, 5));
    for (int s = 0; s < AdhocGenerator::kShapes; ++s) {
      in.templates.push_back(probe_gen.Next(s));
    }
    in.workers = options_.workers;
    in.reps = options_.tiny ? 1 : 3;
    RunLayerProbes(in, spans, layer);
  }

 private:
  Options options_;
  AdhocGenerator gen_;
  std::shared_ptr<Table> lineitem_;
  std::unique_ptr<Engine> engine_;
  std::vector<QuerySpec> last_round_;
  uint64_t queries_ = 0;
  uint64_t rounds_ = 0;
  std::vector<std::pair<QuerySpec, std::string>> checks_;
  std::vector<double> sim_ms_;
  uint64_t net_bytes_ = 0;
  uint64_t peak_queue_bytes_ = 0;
  uint64_t completed_ = 0;
  std::string digest_;
  std::string inputs_text_;
  CheckCost cost_;
};

// ================================================================= native

class NativeWorkload : public Workload {
 public:
  explicit NativeWorkload(const Options& options) : options_(options) {}

  void Setup(SpanLog* spans) override {
    const uint64_t rows = options_.tiny ? 50'000 : 1'000'000;
    const uint64_t orders = rows / 5;
    lineitem_ = Lineitem(rows, orders, Mix(options_.seed, 1), spans);
    {
      dflow::OrdersSpec spec;
      spec.rows = orders;
      spec.seed = Mix(options_.seed, 6);
      ScopedSpan span(spans, "workload.gen");
      orders_ = Must(dflow::MakeOrdersTable(spec), "MakeOrdersTable");
    }
    {
      ScopedSpan span(spans, "engine.build");
      engine_ = std::make_unique<Engine>();
      Must(engine_->catalog().Register(lineitem_), "Register");
      Must(engine_->catalog().Register(orders_), "Register");
    }
    join_.build_table = "orders";
    join_.probe_table = "lineitem";
    join_.build_key = "o_orderkey";
    join_.probe_key = "l_orderkey";
    join_.num_nodes = static_cast<int>(options_.workers);
    q1_ = Q1Like();
    q6_ = Q6Like(0.2);
    ScopedSpan span(spans, "warmup");
    RunRound(nullptr, RoundMode::kPlain);
    warm_ = true;
  }

  RoundStats RunRound(SpanLog* spans, RoundMode mode) override {
    ExecOptions options;
    options.mode = ExecMode::kParallel;
    options.parallel_workers = options_.workers;
    if (mode != RoundMode::kPlain) {
      dflow::trace::TraceOptions trace;
      trace.enabled = true;
      options.trace = trace;
    }
    RoundStats round;
    std::string digest_text;
    auto account = [&](const char* name, int64_t wall, uint64_t rows,
                       const dflow::ExecutionReport& report,
                       const dflow::parallel::ParallelExecStats& stats,
                       const std::string& fp) {
      round.wall_ns += wall;
      round.query_ms.push_back(Ms(wall));
      ++round.attempted;
      ++round.done;
      round.rows += rows;
      if (!warm_) return;
      seen_[name].insert(fp);
      if (mode == RoundMode::kPlain) {
        region_ms_.push_back(Ms(static_cast<int64_t>(stats.wall_ns)));
        serial_ms_.push_back(Ms(wall - static_cast<int64_t>(stats.wall_ns)));
        morsels_ += stats.morsels;
        steals_ += stats.steals;
      }
      if (rounds_ == 0) {
        digest_text += dflow::trace::ExecutionReportToJson(report) + fp;
      }
    };

    {
      const uint64_t id = ++queries_;
      dflow::JoinRunResult r;
      const int64_t t0 = NowNs();
      {
        ScopedSpan query(spans, "query", id);
        ScopedSpan span(spans, "exec.partitioned_join", id);
        r = Must(engine_->ExecutePartitionedJoin(join_, options),
                 "ExecutePartitionedJoin");
        if (spans != nullptr) {
          spans->AddMeasuredChild("parallel.region",
                                  static_cast<int64_t>(r.parallel.wall_ns));
        }
      }
      const int64_t wall = NowNs() - t0;
      account("join", wall, orders_->num_rows() + r.report.scan.rows_produced,
              r.report, r.parallel,
              dflow::testing::CanonicalizeCount(r.total_rows).fingerprint);
    }
    for (const auto* q : {&q1_, &q6_}) {
      const uint64_t id = ++queries_;
      dflow::QueryResult r;
      const int64_t t0 = NowNs();
      {
        ScopedSpan query(spans, "query", id);
        ScopedSpan span(spans, "exec.execute", id);
        r = Must(engine_->Execute(*q, options), "Execute(kParallel)");
        if (spans != nullptr) {
          spans->AddMeasuredChild("parallel.region",
                                  static_cast<int64_t>(r.parallel.wall_ns));
        }
      }
      const int64_t wall = NowNs() - t0;
      account(q == &q1_ ? "q1" : "q6", wall, r.report.scan.rows_produced,
              r.report, r.parallel, Fingerprint(r.chunks, &cost_));
    }
    if (warm_) {
      if (rounds_ == 0) digest_ = Fnv64Hex(digest_text);
      ++rounds_;
    }
    return round;
  }

  void Check() override {
    Reference reference({lineitem_, orders_}, &cost_);
    for (const auto& [name, fps] : seen_) {
      const std::string want = name == "join" ? reference.JoinCount(join_)
                               : name == "q1" ? reference.Query(q1_)
                                              : reference.Query(q6_);
      for (const std::string& fp : fps) CheckEqual(fp, want, name);
    }
  }

  WorkloadReport Report() override {
    WorkloadReport r;
    r.layer.Add("parallel.region_ms", Median(region_ms_), "ms");
    r.layer.Add("parallel.serial_ms", Median(serial_ms_), "ms");
    r.layer.Add("parallel.morsels", static_cast<double>(morsels_), "count");
    r.layer.Add("parallel.steals", static_cast<double>(steals_), "count");
    r.layer.Add("parallel.steal_frac",
                morsels_ == 0 ? 0.0
                              : static_cast<double>(steals_) /
                                    static_cast<double>(morsels_),
                "ratio");
    cost_.Report(&r.layer);
    r.digest = digest_;
    r.inputs = Fnv64Hex(TableText(*lineitem_) + TableText(*orders_));
    return r;
  }

  void Probe(SpanLog* spans, MetricSet* layer) override {
    ProbeInputs in;
    in.lineitem = lineitem_;
    in.orders = orders_;
    in.templates = {q1_, q6_};
    in.workers = options_.workers;
    in.reps = options_.tiny ? 1 : 3;
    RunLayerProbes(in, spans, layer);
  }

 private:
  Options options_;
  std::shared_ptr<Table> lineitem_;
  std::shared_ptr<Table> orders_;
  std::unique_ptr<Engine> engine_;
  dflow::JoinSpec join_;
  QuerySpec q1_;
  QuerySpec q6_;
  bool warm_ = false;
  uint64_t queries_ = 0;
  uint64_t rounds_ = 0;
  std::map<std::string, std::set<std::string>> seen_;
  std::vector<double> region_ms_;
  std::vector<double> serial_ms_;
  uint64_t morsels_ = 0;
  uint64_t steals_ = 0;
  std::string digest_;
  CheckCost cost_;
};

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "serve_steady" || name == "serve_chaos" || name == "adhoc" ||
         name == "native";
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "serve_steady") {
    return std::make_unique<ServeWorkload>(options, /*chaos=*/false);
  }
  if (options.workload == "serve_chaos") {
    return std::make_unique<ServeWorkload>(options, /*chaos=*/true);
  }
  if (options.workload == "adhoc") {
    return std::make_unique<AdhocWorkload>(options);
  }
  return std::make_unique<NativeWorkload>(options);
}

}  // namespace perfbench

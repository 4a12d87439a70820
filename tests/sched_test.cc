#include <gtest/gtest.h>

#include <cmath>

#include "dflow/compile/program_cache.h"
#include "dflow/sched/scheduler.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

// A fabric where the media is fast and the storage processor / network are
// the scarce resources — the regime where the contention model actually
// changes decisions (mirrors bench_sec7_scheduling).
class SchedTest : public ::testing::Test {
 protected:
  static sim::FabricConfig Config() {
    sim::FabricConfig config;
    config.store_media_gbps = 32.0;
    config.store_request_latency_ns = 20'000;
    config.storage_proc_gbps = 10.0;
    config.cpu_scale = 2.0;
    return config;
  }

  SchedTest() : engine_(Config()), scheduler_(&engine_) {
    LineitemSpec spec;
    spec.rows = 100'000;
    DFLOW_CHECK(
        engine_.catalog().Register(MakeLineitemTable(spec).ValueOrDie()).ok());
  }

  /// A storage-heavy query whose variants differ meaningfully: selective
  /// scan, arithmetic projection, sum aggregate.
  static QuerySpec Heavy(double selectivity) {
    QuerySpec spec;
    spec.table = "lineitem";
    const int32_t hi =
        kShipdateLo +
        static_cast<int32_t>(selectivity * (kShipdateHi - kShipdateLo));
    spec.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                            Expr::Lit(Value::Date32(hi)));
    spec.projections = {Expr::Arith(ArithOp::kMul,
                                    Expr::Col("l_extendedprice"),
                                    Expr::Col("l_discount"))};
    spec.projection_names = {"revenue"};
    spec.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
    return spec;
  }

  /// A row-returning variant (no aggregate): every placement must ship
  /// the surviving rows across the uplink, so it always uses the network.
  static QuerySpec RowReturning(double selectivity) {
    QuerySpec spec = Heavy(selectivity);
    spec.aggregates.clear();
    return spec;
  }

  double NetworkGbps() const {
    return std::min(engine_.config().storage_uplink_gbps,
                    engine_.config().network_gbps);
  }

  Engine engine_;
  Scheduler scheduler_;
};

TEST_F(SchedTest, NaivePicksIndividualOptimumForEveryQuery) {
  std::vector<QuerySpec> specs(4, Heavy(0.3));
  auto decision = scheduler_.PlanNaive(specs).ValueOrDie();
  ASSERT_EQ(decision.placements.size(), specs.size());
  auto variants = engine_.PlanVariants(specs[0]).ValueOrDie();
  for (const Placement& p : decision.placements) {
    EXPECT_EQ(p.sites, variants.front().placement.sites);
  }
  for (double cap : decision.network_rate_limits_gbps) {
    EXPECT_EQ(cap, 0.0);  // naive never rate-limits
  }
}

TEST_F(SchedTest, PlanDivertsLaterQueriesUnderContention) {
  std::vector<QuerySpec> specs(6, Heavy(0.3));
  auto naive = scheduler_.PlanNaive(specs).ValueOrDie();
  auto smart = scheduler_.Plan(specs).ValueOrDie();
  ASSERT_EQ(smart.placements.size(), specs.size());
  // The naive plan piles everyone onto one variant; the contention model
  // must divert at least one query to an alternative data path.
  bool diverted = false;
  for (size_t q = 0; q < specs.size(); ++q) {
    if (smart.placements[q].sites != naive.placements[q].sites) {
      diverted = true;
    }
  }
  EXPECT_TRUE(diverted);
  int diverted_rationales = 0;
  for (const std::string& why : smart.rationale) {
    if (why.find("diverted") != std::string::npos) ++diverted_rationales;
  }
  EXPECT_GE(diverted_rationales, 1);
}

TEST_F(SchedTest, RationaleNonEmptyForEveryQueryBothPlanners) {
  std::vector<QuerySpec> specs = {Heavy(0.3), RowReturning(0.1), Heavy(0.05)};
  for (const auto& decision : {scheduler_.Plan(specs).ValueOrDie(),
                               scheduler_.PlanNaive(specs).ValueOrDie()}) {
    ASSERT_EQ(decision.rationale.size(), specs.size());
    for (const std::string& why : decision.rationale) {
      EXPECT_FALSE(why.empty());
    }
  }
}

TEST_F(SchedTest, FairShareCapsSumToLinkCapacity) {
  // Row-returning queries keep network demand positive for every variant,
  // so the fair-share branch must engage.
  std::vector<QuerySpec> specs(3, RowReturning(0.3));
  auto decision = scheduler_.Plan(specs).ValueOrDie();
  double sum = 0;
  size_t capped = 0;
  for (double cap : decision.network_rate_limits_gbps) {
    EXPECT_GT(cap, 0.0);
    sum += cap;
    ++capped;
  }
  ASSERT_EQ(capped, specs.size());
  EXPECT_NEAR(sum, NetworkGbps(), 1e-9);
}

// ----------------------------------------------------- incremental PlanOne

TEST_F(SchedTest, PlanOneUncontendedMatchesBatchFront) {
  CommittedDemand ledger;
  auto decision = scheduler_.PlanOne(Heavy(0.3), ledger).ValueOrDie();
  EXPECT_EQ(decision.rationale, "uncontended optimum");
  EXPECT_EQ(decision.network_rate_limit_gbps, 0.0);
  auto variants = engine_.PlanVariants(Heavy(0.3)).ValueOrDie();
  EXPECT_EQ(decision.placement.sites, variants.front().placement.sites);
}

TEST_F(SchedTest, ChargeReleaseRoundTripsLedger) {
  CommittedDemand ledger;
  auto decision =
      scheduler_.PlanOne(RowReturning(0.2), ledger).ValueOrDie();
  ASSERT_GT(decision.cost.network_bytes, 0u);
  scheduler_.Charge(decision.cost, &ledger);
  EXPECT_EQ(ledger.network_users, 1);
  EXPECT_GT(ledger.network_ns, 0.0);
  scheduler_.Release(decision.cost, &ledger);
  EXPECT_EQ(ledger.network_users, 0);
  EXPECT_EQ(ledger.network_ns, 0.0);
  EXPECT_EQ(ledger.network_bytes, 0.0);
  for (double busy : ledger.site_busy_ns) EXPECT_EQ(busy, 0.0);
}

TEST_F(SchedTest, PlanOneAppliesAdmissionTimeFairShare) {
  CommittedDemand ledger;
  auto first = scheduler_.PlanOne(RowReturning(0.2), ledger).ValueOrDie();
  scheduler_.Charge(first.cost, &ledger);
  auto second = scheduler_.PlanOne(RowReturning(0.2), ledger).ValueOrDie();
  // Joining one running network user: capped at half the bottleneck.
  ASSERT_GT(second.cost.network_bytes, 0u);
  EXPECT_NEAR(second.network_rate_limit_gbps, NetworkGbps() / 2, 1e-9);
  EXPECT_NE(second.rationale.find("fair-share"), std::string::npos);
}

TEST_F(SchedTest, PlanOneForcedExtremesResolveAndCost) {
  CommittedDemand ledger;
  auto cpu = scheduler_
                 .PlanOne(Heavy(0.3), ledger, PlacementChoice::kCpuOnly)
                 .ValueOrDie();
  auto off = scheduler_
                 .PlanOne(Heavy(0.3), ledger, PlacementChoice::kFullOffload)
                 .ValueOrDie();
  EXPECT_EQ(cpu.rationale, "forced cpu-only");
  EXPECT_EQ(off.rationale, "forced full-offload");
  EXPECT_NE(cpu.placement.sites, off.placement.sites);
  auto plan = engine_.CompilePlan(Heavy(0.3)).ValueOrDie();
  auto chosen_cpu = engine_.ChoosePlacement(*plan, PlacementChoice::kCpuOnly);
  EXPECT_EQ(cpu.placement.sites, chosen_cpu.sites);
  // The CPU plan pulls the scanned bytes across the uplink; the offloaded
  // plan ships only the aggregate.
  EXPECT_GT(cpu.cost.network_bytes, off.cost.network_bytes);
}

TEST_F(SchedTest, CrashRetryChargesAndReleasesExactlyOncePerAttempt) {
  // The serving layer's crash-retry sequence against the ledger: charge
  // the doomed attempt, release it when the crash is reported, charge the
  // fallback attempt, release it at completion. After every
  // charge/release pair the ledger must return EXACTLY to its prior
  // state — a double charge (or a leaked release) across the retry shows
  // up as residue here and as a DFLOW_INVARIANT failure in
  // ServiceLoop::Run.
  CommittedDemand ledger;
  auto doomed =
      scheduler_.PlanOne(RowReturning(0.2), ledger).ValueOrDie();
  scheduler_.Charge(doomed.cost, &ledger);
  ASSERT_GT(ledger.network_users, 0);

  // Crash: the attempt's demand is released immediately so the re-planned
  // retry is costed against reality, not the dead attempt's claim.
  scheduler_.Release(doomed.cost, &ledger);
  EXPECT_EQ(ledger.network_users, 0);
  EXPECT_EQ(ledger.network_ns, 0.0);
  EXPECT_EQ(ledger.network_bytes, 0.0);
  for (double busy : ledger.site_busy_ns) EXPECT_EQ(busy, 0.0);

  auto retry =
      scheduler_
          .PlanOne(RowReturning(0.2), ledger, PlacementChoice::kCpuOnly)
          .ValueOrDie();
  scheduler_.Charge(retry.cost, &ledger);
  scheduler_.Release(retry.cost, &ledger);
  EXPECT_EQ(ledger.network_users, 0);
  EXPECT_EQ(ledger.network_ns, 0.0);
  EXPECT_EQ(ledger.network_bytes, 0.0);
  for (double busy : ledger.site_busy_ns) EXPECT_EQ(busy, 0.0);

  // Release clamps at zero rather than going negative — which means a
  // double release is silently absorbed here. That is exactly why the
  // service loop ALSO counts charges vs releases and pins their equality
  // with DFLOW_INVARIANT at drain: the clamp must never be what hides an
  // accounting bug.
  scheduler_.Release(retry.cost, &ledger);
  EXPECT_EQ(ledger.network_ns, 0.0);
  for (double busy : ledger.site_busy_ns) EXPECT_GE(busy, 0.0);
}

TEST_F(SchedTest, PlacementFilterVetoesDevicesButNeverStarves) {
  CommittedDemand ledger;
  // Veto every placement that touches the storage processor (an open
  // circuit breaker would): the chosen plan must avoid the device.
  Scheduler::PlacementFilter no_storage_proc =
      [this](const Placement& p) {
        for (Site s : p.sites) {
          sim::Device* d = engine_.SiteDevice(s, 0);
          if (d != nullptr && d->name() == "storage_proc") return false;
        }
        return true;
      };
  auto filtered = scheduler_
                      .PlanOne(Heavy(0.3), ledger, PlacementChoice::kAuto,
                               no_storage_proc)
                      .ValueOrDie();
  for (const std::string& dev :
       engine_.PlacementDevices(filtered.placement, 0)) {
    EXPECT_NE(dev, "storage_proc");
  }

  // A filter that rejects everything is advisory: PlanOne still returns a
  // plan (the caller decides whether to launch), it never starves.
  Scheduler::PlacementFilter reject_all = [](const Placement&) {
    return false;
  };
  auto unfiltered =
      scheduler_
          .PlanOne(Heavy(0.3), ledger, PlacementChoice::kAuto, reject_all)
          .ValueOrDie();
  EXPECT_FALSE(unfiltered.placement.sites.empty());
}

TEST_F(SchedTest, ExecuteConcurrentHonoursStartOffsets) {
  std::vector<QuerySpec> specs(2, Heavy(0.2));
  auto variants = engine_.PlanVariants(specs[0]).ValueOrDie();
  std::vector<Placement> placements(2, variants.front().placement);
  const sim::SimTime offset = 5'000'000;
  auto result =
      engine_
          .ExecuteConcurrent(specs, placements, {}, {0, offset})
          .ValueOrDie();
  ASSERT_EQ(result.completion_ns.size(), 2u);
  EXPECT_GT(result.completion_ns[0], 0u);
  // The delayed query cannot finish before it was allowed to start.
  EXPECT_GE(result.completion_ns[1], offset);
  EXPECT_GE(result.makespan_ns, result.completion_ns[1]);
  EXPECT_EQ(result.result_rows[0], result.result_rows[1]);
}

}  // namespace
}  // namespace dflow

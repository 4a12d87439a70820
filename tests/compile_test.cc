#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dflow/compile/compiler.h"
#include "dflow/compile/fuse.h"
#include "dflow/compile/program.h"
#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/plan/fingerprint.h"
#include "dflow/plan/parser.h"
#include "dflow/serve/service_loop.h"
#include "dflow/serve/service_report.h"
#include "dflow/serve/workload.h"
#include "dflow/testing/canonical.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

using compile::CacheKey;
using compile::CompiledQuery;
using compile::DflowProgram;
using compile::FuseMode;
using compile::ProgramCache;
using compile::ProgramPtr;

struct CataloguedPlan {
  std::string name;
  QuerySpec spec;
};

// The same six plan shapes tools/verify_plans.cc gates statically — the
// catalogue the byte-identical-serialization requirement is stated over.
std::vector<CataloguedPlan> BuildCatalogue() {
  std::vector<CataloguedPlan> plans;
  {
    QuerySpec q6;
    q6.table = "lineitem";
    q6.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                          Expr::Lit(Value::Date32(8400)));
    q6.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                  Expr::Col("l_discount"))};
    q6.projection_names = {"revenue"};
    q6.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
    plans.push_back({"q6", std::move(q6)});
  }
  plans.push_back(
      {"q1_sql",
       ParseQuery("SELECT l_returnflag, l_linestatus, "
                  "SUM(l_quantity) AS sum_qty, "
                  "SUM(l_extendedprice) AS sum_price, COUNT(*) AS n "
                  "FROM lineitem GROUP BY l_returnflag, l_linestatus")
           .ValueOrDie()});
  {
    QuerySpec count;
    count.table = "lineitem";
    count.count_only = true;
    count.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                             Expr::Lit(Value::Date32(8400)));
    plans.push_back({"count_only", std::move(count)});
  }
  plans.push_back({"sort_limit_sql",
                   ParseQuery("SELECT l_orderkey, l_extendedprice "
                              "FROM lineitem WHERE l_discount > 0.05 "
                              "ORDER BY l_extendedprice DESC LIMIT 10")
                       .ValueOrDie()});
  {
    QuerySpec compress;
    compress.table = "lineitem";
    compress.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                                Expr::Lit(Value::Date32(8400)));
    compress.projections = {Expr::Col("l_extendedprice"),
                            Expr::Col("l_discount")};
    compress.projection_names = {"price", "discount"};
    compress.compress_uplink = true;
    plans.push_back({"compress_uplink", std::move(compress)});
  }
  plans.push_back({"select_sql",
                   ParseQuery("SELECT l_orderkey, l_quantity FROM lineitem "
                              "WHERE l_quantity >= 10")
                       .ValueOrDie()});
  return plans;
}

std::unique_ptr<Engine> MakeEngine() {
  auto engine = std::make_unique<Engine>(sim::FabricConfig{});
  LineitemSpec spec;
  spec.rows = 20'000;
  spec.row_group_size = 8'192;
  DFLOW_CHECK(
      engine->catalog().Register(MakeLineitemTable(spec).ValueOrDie()).ok());
  return engine;
}

class CompileTest : public ::testing::Test {
 protected:
  CompileTest() : engine_(MakeEngine()) {}

  ProgramPtr MustCompile(const QuerySpec& spec,
                         PlacementChoice choice = PlacementChoice::kAuto,
                         FuseMode fuse = FuseMode::kOn) {
    auto program =
        engine_->Compile(spec, choice, verify::VerifyMode::kStrict, fuse);
    DFLOW_CHECK(program.ok());
    return program.ValueOrDie();
  }

  std::string RunProgramFingerprint(const DflowProgram& program) {
    ExecOptions options;
    options.verify = verify::VerifyMode::kStrict;
    auto result = engine_->ExecuteProgram(program, options);
    DFLOW_CHECK(result.ok());
    return testing::CanonicalizeChunks(result.ValueOrDie().chunks).fingerprint;
  }

  // The independent oracle: the conventional (Volcano) engine.
  std::string RunVolcanoFingerprint(const QuerySpec& spec) {
    auto result = engine_->ExecuteOnVolcano(spec, /*pool_pages=*/256);
    DFLOW_CHECK(result.ok());
    return testing::CanonicalizeVolcanoRows(result.ValueOrDie().rows)
        .fingerprint;
  }

  std::unique_ptr<Engine> engine_;
};

// ------------------------------------------------- serialization identity --

// The core determinism gate: compiling the same plan in two independent
// engine instances (fresh catalogs, fresh fabrics — a stand-in for two
// process runs) must yield byte-identical serialized programs and equal
// fingerprints, for every shape in the catalogue and for both extremes.
TEST_F(CompileTest, SerializationByteIdenticalAcrossEngineInstances) {
  auto other = MakeEngine();
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    SCOPED_TRACE(plan.name);
    for (PlacementChoice choice :
         {PlacementChoice::kAuto, PlacementChoice::kCpuOnly}) {
      ProgramPtr a = MustCompile(plan.spec, choice);
      auto b_or =
          other->Compile(plan.spec, choice, verify::VerifyMode::kStrict);
      ASSERT_TRUE(b_or.ok()) << b_or.status().ToString();
      ProgramPtr b = b_or.ValueOrDie();
      EXPECT_EQ(a->SerializeToString(), b->SerializeToString());
      EXPECT_EQ(a->fingerprint(), b->fingerprint());
      EXPECT_EQ(a->plan_fingerprint(), FingerprintQuerySpec(plan.spec));
    }
  }
}

// Each catalogue plan is a distinct artifact: six plans, six fingerprints.
TEST_F(CompileTest, CataloguePlansHaveDistinctFingerprints) {
  std::set<uint64_t> program_fps;
  std::set<uint64_t> plan_fps;
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    ProgramPtr p = MustCompile(plan.spec);
    program_fps.insert(p->fingerprint());
    plan_fps.insert(p->plan_fingerprint());
  }
  EXPECT_EQ(program_fps.size(), 6u);
  EXPECT_EQ(plan_fps.size(), 6u);
}

// Fusion is part of the artifact: the CPU-only q6 pipeline has an adjacent
// same-site filter -> project run, so fuse-on collapses it into a group
// and the serialized bytes (and fingerprint) differ from fuse-off.
TEST_F(CompileTest, FusionChangesArtifactAndIsRecorded) {
  const QuerySpec q6 = BuildCatalogue()[0].spec;
  ProgramPtr fused = MustCompile(q6, PlacementChoice::kCpuOnly, FuseMode::kOn);
  ProgramPtr plain = MustCompile(q6, PlacementChoice::kCpuOnly, FuseMode::kOff);
  EXPECT_GE(fused->fused_groups().size(), 1u);
  EXPECT_TRUE(plain->fused_groups().empty());
  EXPECT_NE(fused->SerializeToString(), plain->SerializeToString());
  EXPECT_NE(fused->fingerprint(), plain->fingerprint());
  // Fusion never changes the op list itself, only the grouping.
  ASSERT_EQ(fused->ops().size(), plain->ops().size());
  for (size_t i = 0; i < fused->ops().size(); ++i) {
    EXPECT_EQ(fused->ops()[i].label, plain->ops()[i].label);
    EXPECT_EQ(fused->ops()[i].site, plain->ops()[i].site);
  }
}

// A strict-mode compile embeds a clean verifier stamp; no re-verification
// happens at execution time, so the stamp must already be error-free.
TEST_F(CompileTest, StrictCompileEmbedsCleanVerifyStamp) {
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    SCOPED_TRACE(plan.name);
    ProgramPtr p = MustCompile(plan.spec);
    EXPECT_TRUE(p->verify_stamp().ok()) << p->verify_stamp().ToString();
    EXPECT_GT(p->compile_cost_ns(), 0u);
    EXPECT_EQ(p->verifier_version(), verify::kVerifierVersion);
  }
}

// --------------------------------------------------- result equivalence --

// Fused and unfused programs must agree with the Volcano reference on
// every catalogue plan, at auto placement and forced CPU-only.
TEST_F(CompileTest, FusedAndUnfusedResultsAgree) {
  for (const CataloguedPlan& plan : BuildCatalogue()) {
    SCOPED_TRACE(plan.name);
    const std::string reference = RunVolcanoFingerprint(plan.spec);
    for (PlacementChoice choice :
         {PlacementChoice::kAuto, PlacementChoice::kCpuOnly}) {
      ProgramPtr fused = MustCompile(plan.spec, choice, FuseMode::kOn);
      ProgramPtr plain = MustCompile(plan.spec, choice, FuseMode::kOff);
      EXPECT_EQ(RunProgramFingerprint(*fused), reference);
      EXPECT_EQ(RunProgramFingerprint(*plain), reference);
    }
  }
}

// ------------------------------------------------------ cache state machine --

CacheKey KeyOf(uint64_t fp, uint64_t epoch = 0, int version = 1) {
  return CacheKey{fp, epoch, version};
}

std::shared_ptr<CompiledQuery> EntryOf(const CacheKey& key) {
  auto entry = std::make_shared<CompiledQuery>();
  entry->plan_fingerprint = key.plan_fingerprint;
  entry->fabric_epoch = key.fabric_epoch;
  return entry;
}

TEST(ProgramCacheTest, LruEvictsLeastRecentlyUsed) {
  ProgramCache cache(/*capacity=*/2);
  const CacheKey k1 = KeyOf(1), k2 = KeyOf(2), k3 = KeyOf(3);
  cache.Insert(k1, EntryOf(k1));
  cache.Insert(k2, EntryOf(k2));
  EXPECT_EQ(cache.size(), 2u);

  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, EntryOf(k3));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_NE(cache.Lookup(k3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(ProgramCacheTest, InsertReplacesWithoutEviction) {
  ProgramCache cache(/*capacity=*/2);
  const CacheKey k1 = KeyOf(1);
  cache.Insert(k1, EntryOf(k1));
  auto replacement = EntryOf(k1);
  cache.Insert(k1, replacement);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(k1), replacement);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ProgramCacheTest, EpochInvalidationSweepsStaleEntriesOnly) {
  ProgramCache cache(/*capacity=*/8);
  const CacheKey old1 = KeyOf(1, /*epoch=*/0), old2 = KeyOf(2, /*epoch=*/0);
  const CacheKey fresh = KeyOf(3, /*epoch=*/1);
  cache.Insert(old1, EntryOf(old1));
  cache.Insert(old2, EntryOf(old2));
  cache.Insert(fresh, EntryOf(fresh));

  cache.InvalidateStaleEpochs(/*current_epoch=*/1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(old1), nullptr);
  EXPECT_EQ(cache.Lookup(old2), nullptr);
  EXPECT_NE(cache.Lookup(fresh), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Idempotent: nothing left to sweep.
  cache.InvalidateStaleEpochs(1);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(ProgramCacheTest, VerifierVersionIsPartOfTheKey) {
  ProgramCache cache(/*capacity=*/4);
  const CacheKey v1 = KeyOf(1, 0, /*version=*/1);
  cache.Insert(v1, EntryOf(v1));
  EXPECT_EQ(cache.Lookup(KeyOf(1, 0, /*version=*/2)), nullptr);
  EXPECT_NE(cache.Lookup(v1), nullptr);
}

TEST(ProgramCacheTest, OutcomeCountersAreCallerClassified) {
  ProgramCache cache(4);
  cache.CountMiss();
  cache.CountHit();
  cache.CountHit();
  cache.CountRecompile();
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().recompiles, 1u);
}

// ------------------------------------------------------------ fabric epoch --

TEST_F(CompileTest, FabricEpochBumpsOnlyOnActualHealthChanges) {
  EXPECT_EQ(engine_->fabric_epoch(), 0u);
  engine_->MarkDeviceUnhealthy("storage_proc");
  EXPECT_EQ(engine_->fabric_epoch(), 1u);
  engine_->MarkDeviceUnhealthy("storage_proc");  // already unhealthy: no bump
  EXPECT_EQ(engine_->fabric_epoch(), 1u);
  engine_->MarkDeviceUnhealthy("compute_nic");
  EXPECT_EQ(engine_->fabric_epoch(), 2u);
  engine_->ClearDeviceHealth();
  EXPECT_EQ(engine_->fabric_epoch(), 3u);
  engine_->ClearDeviceHealth();  // nothing to clear: no bump
  EXPECT_EQ(engine_->fabric_epoch(), 3u);
}

// Lazy variant compilation through the cache entry: CompilePlan enumerates
// once, CompileVariant fills programs one placement at a time, and a repeat
// request for a compiled variant returns the identical object.
TEST_F(CompileTest, CompileVariantIsLazyAndMemoized) {
  const QuerySpec q6 = BuildCatalogue()[0].spec;
  auto plan = engine_->CompilePlan(q6).ValueOrDie();
  EXPECT_GE(plan->variants.size(), 2u);
  EXPECT_GT(plan->plan_cost_ns, 0u);
  EXPECT_TRUE(plan->programs.empty());

  auto first = engine_->CompileVariant(plan.get(), plan->cpu_only,
                                       verify::VerifyMode::kStrict);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(plan->programs.size(), 1u);

  auto again = engine_->CompileVariant(plan.get(), plan->cpu_only,
                                       verify::VerifyMode::kStrict);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.ValueOrDie().get(), again.ValueOrDie().get());
  EXPECT_EQ(plan->programs.size(), 1u);
  EXPECT_EQ(plan->ProgramFor(plan->cpu_only.name), first.ValueOrDie());
}

// ---------------------------------------------------- compile-time data --

// Planning and compile-time verification read row-group metadata only.
// Against a table whose every column payload is cut after its metadata was
// recorded, CompilePlan, strict CompileVariant and Engine::Verify succeed
// and serialize the intact twin's programs; only execution decodes, and it
// returns the decode error.
TEST_F(CompileTest, CompileNeverDecodes) {
  LineitemSpec spec;
  spec.rows = 20'000;
  spec.row_group_size = 8'192;
  std::shared_ptr<Table> cut = MakeLineitemTable(spec).ValueOrDie();
  for (size_t g = 0; g < cut->num_row_groups(); ++g) {
    const RowGroup& rg = cut->row_group(g);
    for (size_t c = 0; c < rg.num_columns(); ++c) {
      // Well defined: the Table object itself is not const.
      const_cast<EncodedColumn&>(rg.encoded_column(c)).data.resize(1);
    }
  }
  Engine broken{sim::FabricConfig{}};
  ASSERT_TRUE(broken.catalog().Register(cut).ok());

  for (const CataloguedPlan& plan : BuildCatalogue()) {
    SCOPED_TRACE(plan.name);
    auto intact_plan = engine_->CompilePlan(plan.spec).ValueOrDie();
    auto cut_plan_or = broken.CompilePlan(plan.spec);
    ASSERT_TRUE(cut_plan_or.ok()) << cut_plan_or.status().ToString();
    auto cut_plan = cut_plan_or.ValueOrDie();
    ASSERT_EQ(cut_plan->variants.size(), intact_plan->variants.size());
    for (const Placement* placement :
         {&intact_plan->variants.front().placement, &intact_plan->cpu_only}) {
      SCOPED_TRACE(placement->name);
      ProgramPtr want = engine_
                            ->CompileVariant(intact_plan.get(), *placement,
                                             verify::VerifyMode::kStrict)
                            .ValueOrDie();
      auto got = broken.CompileVariant(cut_plan.get(), *placement,
                                       verify::VerifyMode::kStrict);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.ValueOrDie()->SerializeToString(),
                want->SerializeToString());

      auto verified = broken.Verify(plan.spec, *placement);
      ASSERT_TRUE(verified.ok()) << verified.status().ToString();
      EXPECT_EQ(verified.ValueOrDie().ToString(),
                engine_->Verify(plan.spec, *placement).ValueOrDie().ToString());

      auto run = broken.ExecuteProgram(*got.ValueOrDie());
      ASSERT_FALSE(run.ok());
      EXPECT_TRUE(run.status().IsOutOfRange()) << run.status().ToString();
    }
  }
}

// --------------------------------------------------- serving integration --

class CompileServeTest : public ::testing::Test {
 protected:
  CompileServeTest() : engine_(MakeEngine()) {}

  static QuerySpec SmallQ6() {
    QuerySpec spec;
    spec.table = "lineitem";
    spec.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                            Expr::Lit(Value::Date32(kShipdateLo + 400)));
    spec.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                    Expr::Col("l_discount"))};
    spec.projection_names = {"revenue"};
    spec.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
    return spec;
  }

  std::vector<serve::TenantConfig> RepeatTenant() {
    serve::TenantConfig open;
    open.name = "open";
    open.priority = 0;
    open.queue_capacity = 4;
    open.arrival_probability = 0.6;
    open.templates = {{SmallQ6(), "q6", 1}};
    return {open};
  }

  std::unique_ptr<Engine> engine_;
};

// Repeat admissions of the same template: one cold miss pays planning +
// lowering, every subsequent admission is a cache hit, and the warm-path
// planning cost per admission is a small constant (the lookup) — the
// compile-once, serve-millions property the subsystem exists for.
TEST_F(CompileServeTest, RepeatAdmissionsHitTheProgramCache) {
  serve::ServiceConfig config;
  config.seed = 42;
  config.horizon_ns = 15'000'000;
  config.admission.global_max_in_flight = 2;
  config.admission.global_queue_capacity = 4;

  serve::ServiceLoop loop(engine_.get(), RepeatTenant(), config);
  auto result = loop.Run().ValueOrDie();
  const serve::ServiceReport& r = result.service;

  EXPECT_GT(r.completed_total, 1u);
  EXPECT_EQ(r.cache_misses, 1u);  // one template, one cold compile
  EXPECT_GE(r.cache_hits, r.completed_total - 1 - r.cache_recompiles);
  EXPECT_EQ(r.cache_invalidations, 0u);
  EXPECT_GT(r.cache_planning_ns_cold, 0u);

  // Warm admissions pay only the lookup constant; cold pays planning +
  // lowering + verification. The per-admission gap is the whole point.
  ASSERT_GT(r.cache_hits, 0u);
  const uint64_t warm_per_admission = r.cache_planning_ns_warm / r.cache_hits;
  EXPECT_EQ(warm_per_admission, compile::kCacheLookupCostNs);
  EXPECT_GE(r.cache_planning_ns_cold, 10 * warm_per_admission);
}

// Same seed, same config: the cache counters (like everything else in the
// report) are deterministic.
TEST_F(CompileServeTest, CacheCountersAreDeterministic) {
  serve::ServiceConfig config;
  config.seed = 7;
  config.horizon_ns = 10'000'000;
  config.admission.global_max_in_flight = 2;

  serve::ServiceLoop a(engine_.get(), RepeatTenant(), config);
  auto ra = a.Run().ValueOrDie();
  auto fresh = MakeEngine();
  serve::ServiceLoop b(fresh.get(), RepeatTenant(), config);
  auto rb = b.Run().ValueOrDie();

  EXPECT_EQ(ra.service.cache_hits, rb.service.cache_hits);
  EXPECT_EQ(ra.service.cache_misses, rb.service.cache_misses);
  EXPECT_EQ(ra.service.cache_recompiles, rb.service.cache_recompiles);
  EXPECT_EQ(ra.service.cache_planning_ns_cold,
            rb.service.cache_planning_ns_cold);
  EXPECT_EQ(ra.service.cache_planning_ns_warm,
            rb.service.cache_planning_ns_warm);
}

// A mid-run device crash forces retries onto the CPU-only fallback. The
// retry path must reuse the cached variant table — the fallback lowering
// counts as a recompile, never as a fresh miss — and the service still
// completes everything.
TEST_F(CompileServeTest, RetryAfterCrashRecompilesWithoutReMiss) {
  sim::FaultConfig fc;
  engine_->EnableFaultInjection(fc);
  engine_->fault_injector()->CrashDeviceAt("storage_proc", 2'000'000);
  engine_->fault_injector()->RestoreDeviceAt("storage_proc", 8'000'000);

  auto tenants = RepeatTenant();
  tenants[0].arrival_probability = 0.8;

  serve::ServiceConfig config;
  config.seed = 42;
  config.horizon_ns = 20'000'000;
  config.admission.global_max_in_flight = 2;
  config.placement = PlacementChoice::kFullOffload;
  config.lifecycle.quarantine_on_crash = false;
  config.lifecycle.breaker.enabled = true;
  config.lifecycle.breaker.failure_threshold = 1;
  config.lifecycle.breaker.cooldown_ns = 3'000'000;
  config.lifecycle.retry.retry_device_crash = true;
  config.lifecycle.retry.fallback_chain = {PlacementChoice::kCpuOnly};

  serve::ServiceLoop loop(engine_.get(), tenants, config);
  auto result = loop.Run().ValueOrDie();
  const serve::ServiceReport& r = result.service;

  EXPECT_GE(r.retries_total, 1u);
  EXPECT_EQ(r.failed_total, 0u);
  // The fallback variant was lowered from the cached plan, not re-planned:
  // the single template misses exactly once no matter how many retries.
  EXPECT_EQ(r.cache_misses, 1u);
  EXPECT_GE(r.cache_recompiles, 1u);
}

}  // namespace
}  // namespace dflow

// Cross-executor equivalence properties: the same query must produce the
// same multiset of rows no matter (a) which data-path variant runs it,
// (b) how many credits the edges carry, (c) whether the wire is compressed,
// and (d) whether the legacy Volcano engine runs it instead. Placement and
// flow control are performance decisions; these tests pin down that they
// are never semantic ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "dflow/engine/engine.h"
#include "dflow/exec/local_executor.h"
#include "dflow/sched/scheduler.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

// Canonical form of a result set: sorted vector of row strings.
std::vector<std::string> Canonical(const std::vector<DataChunk>& chunks) {
  std::vector<std::string> rows;
  for (const DataChunk& chunk : chunks) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        const Value v = chunk.GetValue(r, c);
        if (v.type() == DataType::kDouble && !v.is_null()) {
          // Stable rounding: double sums accumulate in different orders on
          // different paths.
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.6g", v.double_value());
          row += buf;
        } else {
          row += v.ToString();
        }
        row += "|";
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> Canonical(const std::vector<volcano::Row>& rows_in,
                                   const Schema* = nullptr) {
  std::vector<std::string> rows;
  for (const volcano::Row& row : rows_in) {
    std::string s;
    for (const Value& v : row) {
      if (v.type() == DataType::kDouble && !v.is_null()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.double_value());
        s += buf;
      } else {
        s += v.ToString();
      }
      s += "|";
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class EquivalenceTest : public ::testing::Test {
 protected:
  EquivalenceTest() {
    sim::FabricConfig config;
    config.num_compute_nodes = 2;
    engine_ = std::make_unique<Engine>(config);
    LineitemSpec spec;
    spec.rows = 12'000;
    spec.num_orders = 2'000;
    spec.row_group_size = 4'096;
    DFLOW_CHECK(engine_->catalog()
                    .Register(MakeLineitemTable(spec).ValueOrDie())
                    .ok());
  }

  std::unique_ptr<Engine> engine_;
};

// A zoo of query shapes, each exercised across all variants below.
std::vector<QuerySpec> QueryZoo() {
  std::vector<QuerySpec> zoo;
  {
    QuerySpec q;  // selective filter, row-returning
    q.table = "lineitem";
    q.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                         Expr::Lit(Value::Date32(kShipdateLo + 300)));
    q.projections = {Expr::Col("l_orderkey"), Expr::Col("l_quantity")};
    q.projection_names = {"l_orderkey", "l_quantity"};
    zoo.push_back(std::move(q));
  }
  {
    QuerySpec q;  // LIKE + computed projection
    q.table = "lineitem";
    q.filter = Expr::Like(Expr::Col("l_comment"), "%special%");
    q.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                 Expr::Col("l_discount"))};
    q.projection_names = {"v"};
    zoo.push_back(std::move(q));
  }
  {
    QuerySpec q;  // group-by with several aggregates
    q.table = "lineitem";
    q.group_by = {"l_returnflag", "l_linestatus"};
    q.aggregates = {{AggFunc::kSum, "l_quantity", "s"},
                    {AggFunc::kMin, "l_discount", "lo"},
                    {AggFunc::kMax, "l_discount", "hi"},
                    {AggFunc::kCount, "", "n"}};
    zoo.push_back(std::move(q));
  }
  {
    QuerySpec q;  // count(*) with predicate
    q.table = "lineitem";
    q.filter = Expr::Cmp(CompareOp::kGe, Expr::Col("l_quantity"),
                         Expr::Lit(Value::Double(25.0)));
    q.count_only = true;
    zoo.push_back(std::move(q));
  }
  {
    QuerySpec q;  // disjunctive filter
    q.table = "lineitem";
    q.filter = Expr::Or(
        {Expr::Cmp(CompareOp::kEq, Expr::Col("l_returnflag"),
                   Expr::Lit(Value::String("R"))),
         Expr::Cmp(CompareOp::kGt, Expr::Col("l_discount"),
                   Expr::Lit(Value::Double(0.09)))});
    q.projections = {Expr::Col("l_returnflag"), Expr::Col("l_discount")};
    q.projection_names = {"f", "d"};
    zoo.push_back(std::move(q));
  }
  return zoo;
}

TEST_F(EquivalenceTest, EveryVariantProducesTheSameRows) {
  for (const QuerySpec& spec : QueryZoo()) {
    auto variants = engine_->PlanVariants(spec).ValueOrDie();
    ASSERT_FALSE(variants.empty());
    std::vector<std::string> reference;
    // Exhaustively run up to 8 distinct variants (first/last/spread).
    const size_t step = std::max<size_t>(1, variants.size() / 8);
    for (size_t v = 0; v < variants.size(); v += step) {
      auto result =
          engine_->ExecuteWithPlacement(spec, variants[v].placement);
      ASSERT_TRUE(result.ok()) << result.status().ToString() << " variant "
                               << variants[v].placement.name;
      auto rows = Canonical(result.ValueOrDie().chunks);
      if (v == 0) {
        reference = std::move(rows);
        EXPECT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(rows, reference)
            << "variant " << variants[v].placement.name << " diverged";
      }
    }
  }
}

TEST_F(EquivalenceTest, VolcanoMatchesDataflow) {
  for (const QuerySpec& spec : QueryZoo()) {
    auto flow = engine_->Execute(spec).ValueOrDie();
    auto legacy = engine_->ExecuteOnVolcano(spec, 512).ValueOrDie();
    EXPECT_EQ(Canonical(flow.chunks), Canonical(legacy.rows))
        << "query with filter "
        << (spec.filter ? spec.filter->ToString() : "<none>");
  }
}

TEST_F(EquivalenceTest, CreditBudgetNeverChangesResults) {
  const QuerySpec spec = QueryZoo()[2];  // group-by
  std::vector<std::string> reference;
  std::map<uint32_t, uint64_t> peak_queue_bytes;
  for (uint32_t credits : {1u, 2u, 7u, 64u}) {
    ExecOptions options;
    options.credits = credits;
    auto result = engine_->Execute(spec, options).ValueOrDie();
    peak_queue_bytes[credits] = result.report.peak_queue_bytes;
    auto rows = Canonical(result.chunks);
    if (reference.empty()) {
      reference = std::move(rows);
    } else {
      EXPECT_EQ(rows, reference) << "credits=" << credits;
    }
  }
  // The budget must actually reach the graph's edges: a tighter window
  // buffers less.
  EXPECT_LT(peak_queue_bytes[1], peak_queue_bytes[64]);
}

TEST_F(EquivalenceTest, CompressionNeverChangesResults) {
  for (QuerySpec spec : QueryZoo()) {
    ExecOptions offload;
    offload.placement = PlacementChoice::kFullOffload;
    auto plain = engine_->Execute(spec, offload).ValueOrDie();
    spec.compress_uplink = true;
    auto compressed = engine_->Execute(spec, offload).ValueOrDie();
    EXPECT_EQ(Canonical(plain.chunks), Canonical(compressed.chunks));
  }
}

TEST_F(EquivalenceTest, RateLimitNeverChangesResults) {
  QuerySpec spec = QueryZoo()[0];
  ExecOptions options;
  options.placement = PlacementChoice::kCpuOnly;
  auto fast = engine_->Execute(spec, options).ValueOrDie();
  options.network_rate_limit_gbps = 0.5;
  auto slow = engine_->Execute(spec, options).ValueOrDie();
  EXPECT_EQ(Canonical(fast.chunks), Canonical(slow.chunks));
  EXPECT_GT(slow.report.sim_ns, fast.report.sim_ns);
}

TEST_F(EquivalenceTest, PreaggBudgetNeverChangesResults) {
  QuerySpec spec = QueryZoo()[2];
  ExecOptions offload;
  offload.placement = PlacementChoice::kFullOffload;
  std::vector<std::string> reference;
  for (size_t budget : {2ul, 16ul, 4096ul}) {
    spec.preagg_budget = budget;
    auto result = engine_->Execute(spec, offload).ValueOrDie();
    auto rows = Canonical(result.chunks);
    if (reference.empty()) {
      reference = std::move(rows);
    } else {
      EXPECT_EQ(rows, reference) << "budget=" << budget;
    }
  }
}

TEST_F(EquivalenceTest, SimulationIsDeterministic) {
  const QuerySpec spec = QueryZoo()[1];
  auto a = engine_->Execute(spec).ValueOrDie();
  auto b = engine_->Execute(spec).ValueOrDie();
  EXPECT_EQ(a.report.sim_ns, b.report.sim_ns);
  EXPECT_EQ(a.report.network_bytes, b.report.network_bytes);
  EXPECT_EQ(Canonical(a.chunks), Canonical(b.chunks));
}

TEST_F(EquivalenceTest, ConcurrentExecutionMatchesIsolated) {
  // Running two queries together must not corrupt either result.
  std::vector<QuerySpec> specs = {QueryZoo()[0], QueryZoo()[3]};
  auto v0 = engine_->PlanVariants(specs[0]).ValueOrDie();
  auto v1 = engine_->PlanVariants(specs[1]).ValueOrDie();
  auto iso0 = engine_->Execute(specs[0]).ValueOrDie();
  auto iso1 = engine_->Execute(specs[1]).ValueOrDie();
  auto both = engine_
                  ->ExecuteConcurrent(specs,
                                      {v0[0].placement, v1[0].placement})
                  .ValueOrDie();
  EXPECT_EQ(both.result_rows[0], iso0.report.result_rows);
  EXPECT_EQ(both.result_rows[1], iso1.report.result_rows);
  // And the shared fabric stretches at least one of them.
  EXPECT_GE(both.makespan_ns,
            std::max(iso0.report.sim_ns, iso1.report.sim_ns));
}

}  // namespace
}  // namespace dflow

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dflow/common/random.h"
#include "dflow/compile/fuse.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/join.h"
#include "dflow/exec/local_executor.h"
#include "dflow/exec/misc_ops.h"
#include "dflow/exec/partition.h"
#include "dflow/exec/project.h"
#include "dflow/plan/expr.h"
#include "dflow/storage/table.h"
#include "dflow/testing/canonical.h"
#include "dflow/vector/kernels.h"

namespace dflow {
namespace {

Schema SalesSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"region", DataType::kString},
                 {"amount", DataType::kDouble}});
}

DataChunk SalesChunk() {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1, 2, 3, 4, 5, 6}));
  chunk.AddColumn(ColumnVector::FromString(
      {"east", "west", "east", "west", "east", "north"}));
  chunk.AddColumn(
      ColumnVector::FromDouble({10.0, 20.0, 30.0, 40.0, 50.0, 60.0}));
  return chunk;
}

ExprPtr Resolved(ExprPtr e, const Schema& s) {
  return Expr::Resolve(e, s).ValueOrDie();
}

TEST(FilterOperatorTest, SelectsMatchingRows) {
  auto pred = Resolved(Expr::Cmp(CompareOp::kGt, Expr::Col("amount"),
                                 Expr::Lit(Value::Double(25.0))),
                       SalesSchema());
  auto op = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 4u);
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 3);
}

TEST(FilterOperatorTest, AllPassIsPassthrough) {
  auto pred = Resolved(Expr::Cmp(CompareOp::kGt, Expr::Col("amount"),
                                 Expr::Lit(Value::Double(0.0))),
                       SalesSchema());
  auto op = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 6u);
}

TEST(FilterOperatorTest, NonePassEmitsNothing) {
  auto pred = Resolved(Expr::Cmp(CompareOp::kLt, Expr::Col("amount"),
                                 Expr::Lit(Value::Double(0.0))),
                       SalesSchema());
  auto op = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 0u);
}

TEST(FilterOperatorTest, RejectsNonPredicate) {
  auto expr = Resolved(Expr::Arith(ArithOp::kAdd, Expr::Col("id"),
                                   Expr::Lit(Value::Int64(1))),
                       SalesSchema());
  EXPECT_FALSE(FilterOperator::Make(expr, SalesSchema()).ok());
}

TEST(FilterOperatorTest, TraitsAreStreamingStateless) {
  auto pred = Resolved(Expr::Like(Expr::Col("region"), "e%"), SalesSchema());
  auto op = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  EXPECT_TRUE(op->traits().streaming);
  EXPECT_TRUE(op->traits().stateless);
  EXPECT_EQ(op->traits().cost_class, sim::CostClass::kFilter);
}

TEST(ProjectOperatorTest, SelectAndCompute) {
  auto op = ProjectOperator::Make(
                {Resolved(Expr::Col("region"), SalesSchema()),
                 Resolved(Expr::Arith(ArithOp::kMul, Expr::Col("amount"),
                                      Expr::Lit(Value::Double(0.5))),
                          SalesSchema())},
                {"region", "half"}, SalesSchema())
                .ValueOrDie();
  EXPECT_EQ(op->output_schema().field(1).name, "half");
  EXPECT_EQ(op->output_schema().field(1).type, DataType::kDouble);
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(out[0].num_columns(), 2u);
  EXPECT_DOUBLE_EQ(out[0].GetValue(1, 1).double_value(), 10.0);
}

TEST(ProjectOperatorTest, NarrowingReducesBytes) {
  auto op = ProjectOperator::Make({Resolved(Expr::Col("id"), SalesSchema())},
                                  {"id"}, SalesSchema())
                .ValueOrDie();
  DataChunk input = SalesChunk();
  auto out = RunLocalPipeline({input}, {op.get()}).ValueOrDie();
  EXPECT_LT(TotalBytes(out), input.ByteSize());
  EXPECT_LT(op->traits().reduction_hint, 1.0);
}

TEST(AggregateTest, CompleteGroupBy) {
  auto op = HashAggregateOperator::Make(
                SalesSchema(), {"region"},
                {{AggFunc::kSum, "amount", "total"},
                 {AggFunc::kCount, "", "n"}},
                AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  DataChunk all = ConcatChunks(out);
  ASSERT_EQ(all.num_rows(), 3u);
  // Find the "east" row.
  double east_total = 0;
  int64_t east_n = 0;
  for (size_t r = 0; r < all.num_rows(); ++r) {
    if (all.GetValue(r, 0).string_value() == "east") {
      east_total = all.GetValue(r, 1).double_value();
      east_n = all.GetValue(r, 2).int64_value();
    }
  }
  EXPECT_DOUBLE_EQ(east_total, 90.0);
  EXPECT_EQ(east_n, 3);
}

TEST(AggregateTest, MinMax) {
  auto op = HashAggregateOperator::Make(
                SalesSchema(), {},
                {{AggFunc::kMin, "amount", "lo"},
                 {AggFunc::kMax, "amount", "hi"}},
                AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  ASSERT_EQ(TotalRows(out), 1u);
  EXPECT_DOUBLE_EQ(out[0].GetValue(0, 0).double_value(), 10.0);
  EXPECT_DOUBLE_EQ(out[0].GetValue(0, 1).double_value(), 60.0);
}

TEST(AggregateTest, EmptyInputScalarAggregate) {
  auto op = HashAggregateOperator::Make(SalesSchema(), {},
                                        {{AggFunc::kCount, "", "n"},
                                         {AggFunc::kSum, "amount", "s"}},
                                        AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({}, {op.get()}).ValueOrDie();
  ASSERT_EQ(TotalRows(out), 1u);
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 0);
  EXPECT_TRUE(out[0].GetValue(0, 1).is_null());
}

TEST(AggregateTest, AggregatesSkipNulls) {
  DataChunk chunk = SalesChunk();
  chunk.column(2).SetNull(0);
  auto op = HashAggregateOperator::Make(SalesSchema(), {},
                                        {{AggFunc::kCount, "amount", "n"},
                                         {AggFunc::kSum, "amount", "s"}},
                                        AggMode::kComplete)
                .ValueOrDie();
  auto out = RunLocalPipeline({chunk}, {op.get()}).ValueOrDie();
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 5);
  EXPECT_DOUBLE_EQ(out[0].GetValue(0, 1).double_value(), 200.0);
}

TEST(AggregateTest, PartialThenFinalMatchesComplete) {
  // Two-stage aggregation (the NIC pre-aggregation pipeline) must be exact.
  auto partial = HashAggregateOperator::Make(
                     SalesSchema(), {"region"},
                     {{AggFunc::kSum, "amount", "total"},
                      {AggFunc::kCount, "", "n"}},
                     AggMode::kPartial)
                     .ValueOrDie();
  auto* partial_agg = static_cast<HashAggregateOperator*>(partial.get());
  auto final_op = HashAggregateOperator::Make(
                      partial_agg->output_schema(), {"region"},
                      MakeMergeSpecs({{AggFunc::kSum, "amount", "total"},
                                      {AggFunc::kCount, "", "n"}}),
                      AggMode::kFinal)
                      .ValueOrDie();
  auto out =
      RunLocalPipeline({SalesChunk()}, {partial.get(), final_op.get()})
          .ValueOrDie();
  DataChunk all = ConcatChunks(out);
  ASSERT_EQ(all.num_rows(), 3u);
  for (size_t r = 0; r < all.num_rows(); ++r) {
    if (all.GetValue(r, 0).string_value() == "west") {
      EXPECT_DOUBLE_EQ(all.GetValue(r, 1).double_value(), 60.0);
      EXPECT_EQ(all.GetValue(r, 2).int64_value(), 2);
    }
  }
}

TEST(AggregateTest, BoundedPartialFlushesAndStaysExact) {
  // A partial aggregate with a 2-group budget over 26 distinct keys must
  // flush repeatedly yet still produce exact totals after the final stage.
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  Random rng(3);
  DataChunk chunk;
  std::vector<int64_t> keys, vals;
  int64_t expected_total = 0;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.NextInt64(0, 25));
    vals.push_back(i);
    expected_total += i;
  }
  chunk.AddColumn(ColumnVector::FromInt64(keys));
  chunk.AddColumn(ColumnVector::FromInt64(vals));

  auto partial = HashAggregateOperator::Make(
                     schema, {"k"}, {{AggFunc::kSum, "v", "s"}},
                     AggMode::kPartial, /*max_groups=*/2)
                     .ValueOrDie();
  auto* partial_agg = static_cast<HashAggregateOperator*>(partial.get());
  auto final_op =
      HashAggregateOperator::Make(partial_agg->output_schema(), {"k"},
                                  MakeMergeSpecs({{AggFunc::kSum, "v", "s"}}),
                                  AggMode::kFinal)
          .ValueOrDie();
  auto out = RunLocalPipeline({chunk}, {partial.get(), final_op.get()})
                 .ValueOrDie();
  DataChunk all = ConcatChunks(out);
  EXPECT_EQ(all.num_rows(), 26u);
  int64_t total = 0;
  for (size_t r = 0; r < all.num_rows(); ++r) {
    total += all.GetValue(r, 1).int64_value();
  }
  EXPECT_EQ(total, expected_total);
  EXPECT_GT(partial_agg->partial_flushes(), 0u);
}

TEST(AggregateTest, BoundedTableRequiresPartialMode) {
  EXPECT_FALSE(HashAggregateOperator::Make(SalesSchema(), {"region"},
                                           {{AggFunc::kCount, "", "n"}},
                                           AggMode::kComplete, 10)
                   .ok());
}

TEST(JoinTest, HashTableInsertAndProbe) {
  Schema build_schema({{"k", DataType::kInt64}, {"payload", DataType::kString}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  DataChunk build;
  build.AddColumn(ColumnVector::FromInt64({1, 2, 2}));
  build.AddColumn(ColumnVector::FromString({"a", "b", "c"}));
  ASSERT_TRUE(table->Insert(build).ok());
  EXPECT_EQ(table->num_rows(), 3u);

  std::vector<std::pair<uint32_t, uint32_t>> matches;
  ASSERT_TRUE(
      table->Probe(ColumnVector::FromInt64({2, 9, 1}), &matches).ok());
  // key 2 matches two build rows, key 9 none, key 1 one.
  EXPECT_EQ(matches.size(), 3u);
}

TEST(JoinTest, NullKeysNeverJoin) {
  Schema build_schema({{"k", DataType::kInt64}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  DataChunk build;
  ColumnVector keys = ColumnVector::FromInt64({1, 2});
  keys.SetNull(0);
  build.AddColumn(keys);
  ASSERT_TRUE(table->Insert(build).ok());
  ColumnVector probe = ColumnVector::FromInt64({1, 2});
  probe.SetNull(1);
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  ASSERT_TRUE(table->Probe(probe, &matches).ok());
  EXPECT_TRUE(matches.empty());
}

TEST(JoinTest, ProbeOperatorEmitsJoinedRows) {
  Schema build_schema({{"id", DataType::kInt64}, {"cust", DataType::kString}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  DataChunk build;
  build.AddColumn(ColumnVector::FromInt64({1, 2, 3}));
  build.AddColumn(ColumnVector::FromString({"ann", "bob", "cat"}));
  ASSERT_TRUE(table->Insert(build).ok());

  auto probe_op =
      HashJoinProbeOperator::Make(table, SalesSchema(), 0).ValueOrDie();
  // Output: id, region, amount, b_id, cust.
  EXPECT_EQ(probe_op->output_schema().num_fields(), 5u);
  EXPECT_EQ(probe_op->output_schema().field(3).name, "b_id");
  auto out = RunLocalPipeline({SalesChunk()}, {probe_op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 3u);  // sales ids 1..6, build has 1..3
  DataChunk all = ConcatChunks(out);
  EXPECT_EQ(all.GetValue(0, 4).string_value(), "ann");
}

TEST(JoinTest, BuildOperatorFillsSharedTable) {
  Schema build_schema({{"id", DataType::kInt64}});
  auto table = std::make_shared<JoinHashTable>(build_schema, 0);
  auto op = JoinBuildOperator::Make(table).ValueOrDie();
  DataChunk build;
  build.AddColumn(ColumnVector::FromInt64({7, 8}));
  auto out = RunLocalPipeline({build}, {op.get()}).ValueOrDie();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_FALSE(op->traits().streaming);
}

TEST(PartitionTest, SplitsAllRowsDisjointly) {
  HashPartitioner part(0, 4);
  std::vector<DataChunk> outs;
  ASSERT_TRUE(part.Split(SalesChunk(), &outs).ok());
  ASSERT_EQ(outs.size(), 4u);
  size_t total = 0;
  for (const DataChunk& c : outs) total += c.num_rows();
  EXPECT_EQ(total, 6u);
}

TEST(PartitionTest, SameKeySamePartition) {
  // Determinism across separately-constructed partitioners (NIC vs CPU).
  HashPartitioner a(0, 8), b(0, 8);
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({42, 42, 42}));
  std::vector<DataChunk> outs_a, outs_b;
  ASSERT_TRUE(a.Split(chunk, &outs_a).ok());
  ASSERT_TRUE(b.Split(chunk, &outs_b).ok());
  for (size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(outs_a[p].num_rows(), outs_b[p].num_rows());
  }
}

TEST(PartitionTest, RoughlyBalancedOnUniformKeys) {
  Random rng(11);
  std::vector<int64_t> keys(20000);
  for (auto& k : keys) k = static_cast<int64_t>(rng.Next());
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64(keys));
  HashPartitioner part(0, 4);
  std::vector<DataChunk> outs;
  ASSERT_TRUE(part.Split(chunk, &outs).ok());
  for (const DataChunk& c : outs) {
    EXPECT_GT(c.num_rows(), 4000u);
    EXPECT_LT(c.num_rows(), 6000u);
  }
}

TEST(CountOperatorTest, CountsAndDiscards) {
  CountOperator op;
  std::vector<DataChunk> out;
  ASSERT_TRUE(op.Push(SalesChunk(), &out).ok());
  ASSERT_TRUE(op.Push(SalesChunk(), &out).ok());
  EXPECT_TRUE(out.empty());  // nothing flows until Finish
  ASSERT_TRUE(op.Finish(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 12);
  EXPECT_TRUE(op.traits().bounded_state);
}

TEST(LimitOperatorTest, CutsAtLimit) {
  LimitOperator op(SalesSchema(), 4);
  auto out = RunLocalPipeline({SalesChunk(), SalesChunk()}, {&op}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 4u);
}

TEST(SortOperatorTest, SortsAscendingAndDescending) {
  auto asc = SortOperator::Make(SalesSchema(), "amount").ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {asc.get()}).ValueOrDie();
  DataChunk all = ConcatChunks(out);
  EXPECT_DOUBLE_EQ(all.GetValue(0, 2).double_value(), 10.0);
  EXPECT_DOUBLE_EQ(all.GetValue(5, 2).double_value(), 60.0);

  auto desc =
      SortOperator::Make(SalesSchema(), "amount", /*descending=*/true)
          .ValueOrDie();
  out = RunLocalPipeline({SalesChunk()}, {desc.get()}).ValueOrDie();
  all = ConcatChunks(out);
  EXPECT_DOUBLE_EQ(all.GetValue(0, 2).double_value(), 60.0);
}

TEST(SortOperatorTest, TopNLimit) {
  auto op = SortOperator::Make(SalesSchema(), "amount", true, 2).ValueOrDie();
  auto out = RunLocalPipeline({SalesChunk()}, {op.get()}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 2u);
  EXPECT_FALSE(op->traits().streaming);
}

TEST(EncodeOperatorTest, WireBytesShrinkOnCompressibleData) {
  Schema schema({{"flag", DataType::kString}});
  EncodeOperator op(schema);
  DataChunk chunk;
  std::vector<std::string> flags(2000, "RETURN");
  chunk.AddColumn(ColumnVector::FromString(std::move(flags)));
  EXPECT_LT(op.OutputWireBytes(chunk), chunk.ByteSize() / 2);
}

TEST(DecodeOperatorTest, IdentityOnData) {
  DecodeOperator op(SalesSchema());
  auto out = RunLocalPipeline({SalesChunk()}, {&op}).ValueOrDie();
  EXPECT_EQ(TotalRows(out), 6u);
  EXPECT_EQ(op.OutputWireBytes(out[0]), out[0].ByteSize());
}

TEST(DecodeOperatorTest, PushMovesInputThrough) {
  DecodeOperator op(SalesSchema());
  DataChunk chunk = SalesChunk();
  const int64_t* ids = chunk.column(0).i64().data();
  std::vector<DataChunk> out;
  ASSERT_TRUE(op.Push(std::move(chunk), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].column(0).i64().data(), ids);
  EXPECT_EQ(out[0].num_rows(), 6u);
}

TEST(LocalExecutorTest, ChainsOperators) {
  auto pred = Resolved(Expr::Cmp(CompareOp::kGe, Expr::Col("amount"),
                                 Expr::Lit(Value::Double(30.0))),
                       SalesSchema());
  auto filter = FilterOperator::Make(pred, SalesSchema()).ValueOrDie();
  CountOperator count;
  auto out =
      RunLocalPipeline({SalesChunk()}, {filter.get(), &count}).ValueOrDie();
  EXPECT_EQ(out[0].GetValue(0, 0).int64_value(), 4);
}

// ------------------------------------------- group keys of every type --

// One group-key column per physical type, an int64 and an int32 value
// column, and about one NULL in eight in every column.
Schema KeyTypesSchema() {
  return Schema({{"kb", DataType::kBool},
                 {"ki", DataType::kInt32},
                 {"kd", DataType::kDate32},
                 {"kl", DataType::kInt64},
                 {"kf", DataType::kDouble},
                 {"ks", DataType::kString},
                 {"v", DataType::kInt64},
                 {"q", DataType::kInt32}});
}

// Four values per column: 0.0 and -0.0 among the doubles (equal under
// Value::Compare, different hashes), "" among the strings, int64 values
// beyond the int32 range.
DataChunk KeyTypesChunk(size_t rows, uint64_t seed) {
  Random rng(seed);
  DataChunk chunk = DataChunk::EmptyFromSchema(KeyTypesSchema());
  const double doubles[] = {0.0, -0.0, 1.5, -2.25};
  const char* strings[] = {"", "a", "ab", "b"};
  for (size_t r = 0; r < rows; ++r) {
    for (ColumnVector& col : chunk.columns()) {
      if (rng.NextUint64(8) == 0) {
        col.AppendNull();
        continue;
      }
      const uint64_t k = rng.NextUint64(4);
      switch (col.type()) {
        case DataType::kBool:
          col.AppendValue(Value::Bool((k & 1) != 0));
          break;
        case DataType::kInt32:
          col.AppendValue(Value::Int32(static_cast<int32_t>(k) - 1));
          break;
        case DataType::kDate32:
          col.AppendValue(Value::Date32(8000 + static_cast<int32_t>(k)));
          break;
        case DataType::kInt64:
          col.AppendValue(
              Value::Int64(static_cast<int64_t>(k) * 3'000'000'000LL - 1));
          break;
        case DataType::kDouble:
          col.AppendValue(Value::Double(doubles[k]));
          break;
        case DataType::kString:
          col.AppendValue(Value::String(strings[k]));
          break;
      }
    }
  }
  return chunk;
}

std::vector<AggSpec> KeyTypesAggs() {
  return {{AggFunc::kCount, "", "n"},      {AggFunc::kCount, "v", "nv"},
          {AggFunc::kSum, "v", "sv"},      {AggFunc::kSum, "q", "sq"},
          {AggFunc::kMin, "ks", "min_s"},  {AggFunc::kMax, "kf", "max_f"},
          {AggFunc::kMin, "kd", "min_d"},  {AggFunc::kMax, "kb", "max_b"}};
}

// An independent boxed group-by over KeyTypesAggs(): a linear scan of the
// groups, matched by the key's HashColumn value (so 0.0 and -0.0 stay
// apart, as in any hash table) and Value::Compare(...) == 0.
std::vector<volcano::Row> BoxedGroupBy(const std::vector<DataChunk>& chunks,
                                       size_t key_col) {
  const Schema schema = KeyTypesSchema();
  const size_t v = schema.FieldIndex("v").ValueOrDie();
  const size_t q = schema.FieldIndex("q").ValueOrDie();
  const size_t ks = schema.FieldIndex("ks").ValueOrDie();
  const size_t kf = schema.FieldIndex("kf").ValueOrDie();
  const size_t kd = schema.FieldIndex("kd").ValueOrDie();
  const size_t kb = schema.FieldIndex("kb").ValueOrDie();
  struct Group {
    Value key;
    uint64_t hash = 0;
    int64_t n = 0;
    int64_t nv = 0;
    std::optional<int64_t> sv;
    std::optional<int64_t> sq;
    Value min_s = Value::Null(DataType::kString);
    Value max_f = Value::Null(DataType::kDouble);
    Value min_d = Value::Null(DataType::kDate32);
    Value max_b = Value::Null(DataType::kBool);
  };
  auto keep_min = [](Value* acc, const Value& x) {
    if (!x.is_null() && (acc->is_null() || x.Compare(*acc) < 0)) *acc = x;
  };
  auto keep_max = [](Value* acc, const Value& x) {
    if (!x.is_null() && (acc->is_null() || x.Compare(*acc) > 0)) *acc = x;
  };
  std::vector<Group> groups;
  for (const DataChunk& chunk : chunks) {
    std::vector<uint64_t> hashes;
    DFLOW_CHECK(HashColumn(chunk.column(key_col), &hashes).ok());
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      const Value key = chunk.GetValue(r, key_col);
      Group* g = nullptr;
      for (Group& candidate : groups) {
        if (candidate.hash == hashes[r] && candidate.key.Compare(key) == 0) {
          g = &candidate;
          break;
        }
      }
      if (g == nullptr) {
        Group fresh;
        fresh.key = key;
        fresh.hash = hashes[r];
        groups.push_back(std::move(fresh));
        g = &groups.back();
      }
      g->n += 1;
      const Value vv = chunk.GetValue(r, v);
      if (!vv.is_null()) {
        g->nv += 1;
        g->sv = g->sv.value_or(0) + vv.AsInt64();
      }
      const Value qv = chunk.GetValue(r, q);
      if (!qv.is_null()) g->sq = g->sq.value_or(0) + qv.AsInt64();
      keep_min(&g->min_s, chunk.GetValue(r, ks));
      keep_max(&g->max_f, chunk.GetValue(r, kf));
      keep_min(&g->min_d, chunk.GetValue(r, kd));
      keep_max(&g->max_b, chunk.GetValue(r, kb));
    }
  }
  auto sum = [](const std::optional<int64_t>& s) {
    return s.has_value() ? Value::Int64(*s) : Value::Null(DataType::kInt64);
  };
  std::vector<volcano::Row> rows;
  for (const Group& g : groups) {
    rows.push_back({g.key, Value::Int64(g.n), Value::Int64(g.nv), sum(g.sv),
                    sum(g.sq), g.min_s, g.max_f, g.min_d, g.max_b});
  }
  return rows;
}

// Group keys are matched against the typed column slots without boxing.
// That must agree with Value::Compare for every key type, NULL keys
// included, in a complete aggregate and in a bounded partial one that
// evicts; the boxed reference above and the Volcano engine both check it.
TEST(AggregateTest, UnboxedKeyMatchingAgreesWithValueCompare) {
  const Schema schema = KeyTypesSchema();
  TableBuilder builder("keys", schema, /*row_group_size=*/4096);
  ASSERT_TRUE(builder.Append(KeyTypesChunk(5000, /*seed=*/17)).ok());
  auto table = std::make_shared<Table>(builder.Finish().ValueOrDie());
  const std::vector<DataChunk> chunks = table->ToChunks().ValueOrDie();
  ASSERT_GT(chunks.size(), 2u);
  Engine engine{sim::FabricConfig{}};
  ASSERT_TRUE(engine.catalog().Register(table).ok());

  for (const char* key : {"kb", "ki", "kd", "kl", "kf", "ks"}) {
    SCOPED_TRACE(key);
    const std::string expected =
        testing::CanonicalizeVolcanoRows(
            BoxedGroupBy(chunks, schema.FieldIndex(key).ValueOrDie()))
            .fingerprint;

    QuerySpec spec;
    spec.table = "keys";
    spec.group_by = {key};
    spec.aggregates = KeyTypesAggs();
    auto volcano = engine.ExecuteOnVolcano(spec, /*pool_pages=*/256);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    EXPECT_EQ(
        testing::CanonicalizeVolcanoRows(volcano.ValueOrDie().rows).fingerprint,
        expected);

    auto complete = HashAggregateOperator::Make(schema, {key}, KeyTypesAggs(),
                                                AggMode::kComplete)
                        .ValueOrDie();
    EXPECT_EQ(testing::CanonicalizeChunks(
                  RunLocalPipeline(chunks, {complete.get()}).ValueOrDie())
                  .fingerprint,
              expected);

    auto partial = HashAggregateOperator::Make(schema, {key}, KeyTypesAggs(),
                                               AggMode::kPartial,
                                               /*max_groups=*/2)
                       .ValueOrDie();
    auto final_op =
        HashAggregateOperator::Make(partial->output_schema(), {key},
                                    MakeMergeSpecs(KeyTypesAggs()),
                                    AggMode::kFinal)
            .ValueOrDie();
    EXPECT_EQ(testing::CanonicalizeChunks(
                  RunLocalPipeline(chunks, {partial.get(), final_op.get()})
                      .ValueOrDie())
                  .fingerprint,
              expected);
    EXPECT_GT(static_cast<HashAggregateOperator*>(partial.get())
                  ->partial_flushes(),
              0u);
  }
}

// ---------------------------------------------------------- typed sort --

// One row as text, in column order; `id` makes equal keys distinguishable,
// so the comparison below sees the exact permutation (stability included).
std::string RowText(const std::vector<Value>& row) {
  std::string text;
  for (const Value& v : row) text += testing::FormatValueTagged(v) + "|";
  return text;
}

// SortOperator compares typed key slots. Every comparison must give
// Value::Compare's answer, so the stable permutation equals that of a boxed
// stable sort and of the Volcano engine's boxed SortIterator: for every key
// type, both directions, with and without a limit, over NULLs, duplicate
// keys and 0.0/-0.0 ties (NaN is excluded: no comparator orders it).
TEST(SortOperatorTest, TypedKeysMatchBoxedCompareAndVolcano) {
  std::vector<Field> fields = KeyTypesSchema().fields();
  fields.push_back({"id", DataType::kInt64});
  const Schema schema(fields);
  const size_t rows = 5000;
  DataChunk input = KeyTypesChunk(rows, /*seed=*/23);
  std::vector<int64_t> ids(rows);
  for (size_t i = 0; i < rows; ++i) ids[i] = static_cast<int64_t>(i);
  input.AddColumn(ColumnVector::FromInt64(std::move(ids)));
  TableBuilder builder("sorted", schema, /*row_group_size=*/4096);
  ASSERT_TRUE(builder.Append(input).ok());
  auto table = std::make_shared<Table>(builder.Finish().ValueOrDie());
  const std::vector<DataChunk> chunks = table->ToChunks().ValueOrDie();
  Engine engine{sim::FabricConfig{}};
  ASSERT_TRUE(engine.catalog().Register(table).ok());

  std::vector<std::vector<Value>> boxed;
  for (const DataChunk& chunk : chunks) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        row.push_back(chunk.GetValue(r, c));
      }
      boxed.push_back(std::move(row));
    }
  }
  auto texts = [](const std::vector<DataChunk>& out) {
    std::vector<std::string> lines;
    for (const DataChunk& chunk : out) {
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        std::vector<Value> row;
        for (size_t c = 0; c < chunk.num_columns(); ++c) {
          row.push_back(chunk.GetValue(r, c));
        }
        lines.push_back(RowText(row));
      }
    }
    return lines;
  };

  for (const char* key : {"kb", "ki", "kd", "kl", "kf", "ks"}) {
    for (bool descending : {false, true}) {
      for (uint64_t limit : {uint64_t{0}, uint64_t{37}}) {
        SCOPED_TRACE(std::string(key) + (descending ? " desc" : " asc") +
                     " limit=" + std::to_string(limit));
        const size_t k = schema.FieldIndex(key).ValueOrDie();
        std::vector<std::vector<Value>> sorted = boxed;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [&](const std::vector<Value>& a,
                             const std::vector<Value>& b) {
                           const int cmp = a[k].Compare(b[k]);
                           return descending ? cmp > 0 : cmp < 0;
                         });
        if (limit > 0) sorted.resize(limit);
        std::vector<std::string> expected;
        for (const auto& row : sorted) expected.push_back(RowText(row));

        auto op = SortOperator::Make(schema, key, descending, limit)
                      .ValueOrDie();
        EXPECT_EQ(texts(RunLocalPipeline(chunks, {op.get()}).ValueOrDie()),
                  expected);

        QuerySpec spec;
        spec.table = "sorted";
        spec.order_by = SortSpec{key, descending, limit};
        auto volcano = engine.ExecuteOnVolcano(spec, /*pool_pages=*/256);
        ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
        std::vector<std::string> volcano_rows;
        for (const volcano::Row& row : volcano.ValueOrDie().rows) {
          volcano_rows.push_back(RowText(row));
        }
        EXPECT_EQ(volcano_rows, expected);

        auto dataflow = engine.Execute(spec);
        ASSERT_TRUE(dataflow.ok()) << dataflow.status().ToString();
        EXPECT_EQ(texts(dataflow.ValueOrDie().chunks), expected);
      }
    }
  }
}

// ------------------------------------------------------------- fusion --

// A fused kernel moves each chunk through its members; its output must be
// chunk-for-chunk the unfused chain's.
TEST(FusedOperatorTest, OutputEqualsUnfusedChain) {
  const Schema schema = KeyTypesSchema();
  TableBuilder builder("keys", schema, /*row_group_size=*/4096);
  ASSERT_TRUE(builder.Append(KeyTypesChunk(5000, /*seed=*/5)).ok());
  const std::vector<DataChunk> chunks =
      builder.Finish().ValueOrDie().ToChunks().ValueOrDie();
  auto make_chain = [&] {
    std::vector<OperatorPtr> ops;
    ops.push_back(
        FilterOperator::Make(
            Resolved(Expr::Cmp(CompareOp::kGt, Expr::Col("q"),
                               Expr::Lit(Value::Int32(0))),
                     schema),
            schema)
            .ValueOrDie());
    ops.push_back(ProjectOperator::Make({Resolved(Expr::Col("ks"), schema),
                                         Resolved(Expr::Col("v"), schema)},
                                        {"ks", "v"}, schema)
                      .ValueOrDie());
    ops.push_back(HashAggregateOperator::Make(
                      ops.back()->output_schema(), {"ks"},
                      {{AggFunc::kSum, "v", "sv"}, {AggFunc::kCount, "", "n"}},
                      AggMode::kPartial, /*max_groups=*/2)
                      .ValueOrDie());
    return ops;
  };
  std::vector<OperatorPtr> plain = make_chain();
  const std::vector<DataChunk> unfused =
      RunLocalPipeline(chunks, {plain[0].get(), plain[1].get(),
                                plain[2].get()})
          .ValueOrDie();
  OperatorPtr fused = compile::FusedOperator::Make(make_chain()).ValueOrDie();
  const std::vector<DataChunk> out =
      RunLocalPipeline(chunks, {fused.get()}).ValueOrDie();
  ASSERT_GT(unfused.size(), 1u);
  ASSERT_EQ(out.size(), unfused.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].ToString(kVectorSize), unfused[i].ToString(kVectorSize));
    EXPECT_EQ(out[i].ByteSize(), unfused[i].ByteSize());
  }
}

}  // namespace
}  // namespace dflow

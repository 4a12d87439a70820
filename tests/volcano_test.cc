#include <gtest/gtest.h>

#include "dflow/common/logging.h"
#include "dflow/volcano/buffer_pool.h"
#include "dflow/volcano/heap_file.h"
#include "dflow/volcano/iterators.h"
#include "dflow/workload/tpch_like.h"

namespace dflow::volcano {
namespace {

Schema KvSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"name", DataType::kString}});
}

Table MakeKv(size_t rows) {
  TableBuilder builder("kv", KvSchema(), 10'000);
  DataChunk chunk;
  std::vector<int64_t> ks, vs;
  std::vector<std::string> names;
  for (size_t i = 0; i < rows; ++i) {
    ks.push_back(static_cast<int64_t>(i));
    vs.push_back(static_cast<int64_t>(i % 10));
    names.push_back(i % 2 ? "odd" : "even");
  }
  chunk.AddColumn(ColumnVector::FromInt64(ks));
  chunk.AddColumn(ColumnVector::FromInt64(vs));
  chunk.AddColumn(ColumnVector::FromString(names));
  DFLOW_CHECK(builder.Append(chunk).ok());
  return builder.Finish().ValueOrDie();
}

TEST(RowSerdeTest, Roundtrip) {
  Schema schema = KvSchema();
  Row row = {Value::Int64(7), Value::Int64(3), Value::String("hello")};
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  SerializeRow(schema, row, &w);
  EXPECT_EQ(buf.size(), SerializedRowBytes(schema, row));
  ByteReader r(buf);
  Row back;
  ASSERT_TRUE(DeserializeRow(schema, &r, &back).ok());
  EXPECT_EQ(back[0].int64_value(), 7);
  EXPECT_EQ(back[2].string_value(), "hello");
}

TEST(RowSerdeTest, NullsRoundtrip) {
  Schema schema = KvSchema();
  Row row = {Value::Null(DataType::kInt64), Value::Int64(1),
             Value::Null(DataType::kString)};
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  SerializeRow(schema, row, &w);
  ByteReader r(buf);
  Row back;
  ASSERT_TRUE(DeserializeRow(schema, &r, &back).ok());
  EXPECT_TRUE(back[0].is_null());
  EXPECT_TRUE(back[2].is_null());
}

TEST(HeapFileTest, PagesHoldAllRows) {
  Table table = MakeKv(5'000);
  HeapFile file = HeapFile::FromTable(table).ValueOrDie();
  EXPECT_EQ(file.num_rows(), 5'000u);
  EXPECT_GT(file.num_pages(), 1u);
  size_t rows = 0;
  for (size_t p = 0; p < file.num_pages(); ++p) {
    EXPECT_LE(file.page(p).byte_size(), kPageBytes);
    rows += file.page(p).num_rows();
  }
  EXPECT_EQ(rows, 5'000u);
}

TEST(BufferPoolTest, HitsAndMisses) {
  Table table = MakeKv(2'000);
  HeapFile file = HeapFile::FromTable(table).ValueOrDie();
  sim::FabricConfig config;
  CostMeter meter(config);
  BufferPool pool(4, &meter);
  ASSERT_TRUE(pool.GetPage(&file, 0).ok());
  ASSERT_TRUE(pool.GetPage(&file, 0).ok());
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_GT(meter.bytes_fetched(), 0u);
}

TEST(BufferPoolTest, LruEvicts) {
  Table table = MakeKv(20'000);
  HeapFile file = HeapFile::FromTable(table).ValueOrDie();
  ASSERT_GE(file.num_pages(), 5u);
  sim::FabricConfig config;
  CostMeter meter(config);
  BufferPool pool(2, &meter);
  (void)pool.GetPage(&file, 0);
  (void)pool.GetPage(&file, 1);
  (void)pool.GetPage(&file, 2);  // evicts page 0
  EXPECT_GT(pool.evictions(), 0u);
  (void)pool.GetPage(&file, 0);  // miss again
  EXPECT_EQ(pool.misses(), 4u);
  EXPECT_LE(pool.resident_pages(), 2u);
}

TEST(BufferPoolTest, ResidentBytesTracked) {
  Table table = MakeKv(20'000);
  HeapFile file = HeapFile::FromTable(table).ValueOrDie();
  sim::FabricConfig config;
  CostMeter meter(config);
  BufferPool pool(3, &meter);
  (void)pool.GetPage(&file, 0);
  (void)pool.GetPage(&file, 1);
  EXPECT_GT(pool.resident_bytes(), 0u);
  EXPECT_GE(pool.peak_resident_bytes(), pool.resident_bytes());
  pool.Clear();
  EXPECT_EQ(pool.resident_bytes(), 0u);
}

// A scan holds its page's rows: evicting the frame leaves them readable and
// unchanged, and a later miss decodes a fresh copy.
TEST(BufferPoolTest, PageRowsOutliveEviction) {
  Table table = MakeKv(20'000);
  HeapFile file = HeapFile::FromTable(table).ValueOrDie();
  ASSERT_GE(file.num_pages(), 2u);
  DecodedPage want;
  ASSERT_TRUE(file.page(0).ReadRows(file.schema(), &want).ok());
  ASSERT_EQ(want.num_rows(), file.page(0).num_rows());
  sim::FabricConfig config;
  CostMeter meter(config);
  BufferPool pool(1, &meter);
  BufferPool::PageRows held = pool.GetPage(&file, 0).ValueOrDie();
  ASSERT_TRUE(pool.GetPage(&file, 1).ok());  // evicts page 0
  EXPECT_EQ(pool.evictions(), 1u);
  auto same_rows = [&](const DecodedPage& rows) {
    ASSERT_EQ(rows.num_rows(), want.num_rows());
    Row got, expected;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      rows.CopyRow(r, &got);
      want.CopyRow(r, &expected);
      ASSERT_EQ(got.size(), file.schema().num_fields());
      ASSERT_EQ(got.size(), expected.size());
      for (size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(got[c].Compare(expected[c]), 0) << r << "," << c;
      }
    }
  };
  same_rows(*held);
  BufferPool::PageRows again = pool.GetPage(&file, 0).ValueOrDie();
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_NE(again.get(), held.get());
  same_rows(*again);
}

TEST(CostMeterTest, ChargesAccumulate) {
  sim::FabricConfig config;
  CostMeter meter(config);
  meter.ChargePageFetch(8192);
  const auto after_fetch = meter.total_ns();
  EXPECT_GT(after_fetch, 0u);
  meter.ChargeCpu(8192, sim::CostClass::kFilter);
  EXPECT_GT(meter.total_ns(), after_fetch);
  meter.ChargeRows(1000);
  EXPECT_GT(meter.cpu_busy_ns(), 0u);
}

struct VolcanoFixture {
  Table table = MakeKv(8'000);
  HeapFile file = HeapFile::FromTable(table).ValueOrDie();
  sim::FabricConfig config;
  CostMeter meter{config};
  BufferPool pool{64, &meter};
  VolcanoContext ctx;

  VolcanoFixture() {
    ctx.pool = &pool;
    ctx.meter = &meter;
  }
};

TEST(IteratorTest, SeqScanProducesAllRows) {
  VolcanoFixture fx;
  SeqScanIterator scan(&fx.file, &fx.ctx);
  auto rows = DrainIterator(&scan).ValueOrDie();
  EXPECT_EQ(rows.size(), 8'000u);
  EXPECT_EQ(rows[5][0].int64_value(), 5);
}

TEST(IteratorTest, FilterKeepsMatching) {
  VolcanoFixture fx;
  auto pred = Expr::Resolve(
                  Expr::Cmp(CompareOp::kLt, Expr::Col("v"),
                            Expr::Lit(Value::Int64(3))),
                  fx.file.schema())
                  .ValueOrDie();
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  FilterIterator filter(std::move(scan), pred, &fx.ctx);
  auto rows = DrainIterator(&filter).ValueOrDie();
  EXPECT_EQ(rows.size(), 8'000u * 3 / 10);
}

TEST(IteratorTest, ProjectComputes) {
  VolcanoFixture fx;
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  auto doubled = Expr::Resolve(
                     Expr::Arith(ArithOp::kMul, Expr::Col("k"),
                                 Expr::Lit(Value::Int64(2))),
                     fx.file.schema())
                     .ValueOrDie();
  auto proj =
      ProjectIterator::Make(std::move(scan), {doubled}, {"k2"}, &fx.ctx)
          .ValueOrDie();
  auto rows = DrainIterator(proj.get()).ValueOrDie();
  EXPECT_EQ(rows[3][0].int64_value(), 6);
  EXPECT_EQ(proj->schema().field(0).name, "k2");
}

TEST(IteratorTest, HashAggMatchesExpectation) {
  VolcanoFixture fx;
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  auto agg = HashAggIterator::Make(std::move(scan), {"name"},
                                   {{AggFunc::kCount, "", "n"}}, &fx.ctx)
                 .ValueOrDie();
  auto rows = DrainIterator(agg.get()).ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].int64_value() + rows[1][1].int64_value(), 8'000);
  EXPECT_GT(fx.ctx.peak_operator_state_bytes, 0u);
}

TEST(IteratorTest, HashJoinJoins) {
  VolcanoFixture fx;
  // Join the table with itself on k: 8000 matches.
  RowIteratorPtr build(new SeqScanIterator(&fx.file, &fx.ctx));
  RowIteratorPtr probe(new SeqScanIterator(&fx.file, &fx.ctx));
  HashJoinIterator join(std::move(build), std::move(probe), 0, 0, &fx.ctx);
  auto rows = DrainIterator(&join).ValueOrDie();
  EXPECT_EQ(rows.size(), 8'000u);
  EXPECT_EQ(rows[0].size(), 6u);  // probe cols + build cols
  EXPECT_EQ(join.schema().field(3).name, "b_k");
}

TEST(IteratorTest, SortAndLimit) {
  VolcanoFixture fx;
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  auto sort =
      SortIterator::Make(std::move(scan), "k", /*descending=*/true, 5, &fx.ctx)
          .ValueOrDie();
  auto rows = DrainIterator(sort.get()).ValueOrDie();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0].int64_value(), 7999);
}

// ------------------------------------------------ hand-computed tiny tables
//
// Every operator pinned against a table small enough to verify by eye:
//
//   k | v  | name          k: 1..6, v: amounts, name: group tag
//   --+----+-----          (one row group, one page)
//   1 | 10 | red
//   2 | 20 | blue
//   3 | 30 | red
//   4 | 40 | blue
//   5 | 50 | red
//   6 | 60 | blue

struct TinyFixture {
  Table table;
  HeapFile file;
  sim::FabricConfig config;
  CostMeter meter{config};
  BufferPool pool{8, &meter};
  VolcanoContext ctx;

  static Table Make() {
    TableBuilder builder("tiny", KvSchema(), 10'000);
    DataChunk chunk;
    chunk.AddColumn(ColumnVector::FromInt64({1, 2, 3, 4, 5, 6}));
    chunk.AddColumn(ColumnVector::FromInt64({10, 20, 30, 40, 50, 60}));
    chunk.AddColumn(ColumnVector::FromString(
        {"red", "blue", "red", "blue", "red", "blue"}));
    DFLOW_CHECK(builder.Append(chunk).ok());
    return builder.Finish().ValueOrDie();
  }

  TinyFixture() : table(Make()), file(HeapFile::FromTable(table).ValueOrDie()) {
    ctx.pool = &pool;
    ctx.meter = &meter;
  }
};

TEST(TinyTableTest, SeqScanPreservesRowOrderAndValues) {
  TinyFixture fx;
  SeqScanIterator scan(&fx.file, &fx.ctx);
  auto rows = DrainIterator(&scan).ValueOrDie();
  ASSERT_EQ(rows.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(rows[i][0].int64_value(), static_cast<int64_t>(i + 1));
    EXPECT_EQ(rows[i][1].int64_value(), static_cast<int64_t>((i + 1) * 10));
  }
  EXPECT_EQ(rows[0][2].string_value(), "red");
  EXPECT_EQ(rows[5][2].string_value(), "blue");
}

TEST(TinyTableTest, FilterKeepsExactlyTheMatchingRows) {
  TinyFixture fx;
  // v > 25 AND name = 'red'  ->  rows k=3 (v=30) and k=5 (v=50).
  auto pred =
      Expr::Resolve(Expr::And({Expr::Cmp(CompareOp::kGt, Expr::Col("v"),
                                         Expr::Lit(Value::Int64(25))),
                               Expr::Cmp(CompareOp::kEq, Expr::Col("name"),
                                         Expr::Lit(Value::String("red")))}),
                    fx.file.schema())
          .ValueOrDie();
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  FilterIterator filter(std::move(scan), pred, &fx.ctx);
  auto rows = DrainIterator(&filter).ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int64_value(), 3);
  EXPECT_EQ(rows[1][0].int64_value(), 5);
}

TEST(TinyTableTest, ProjectComputesExactArithmetic) {
  TinyFixture fx;
  // v - k: 9, 18, 27, 36, 45, 54.
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  auto diff = Expr::Resolve(
                  Expr::Arith(ArithOp::kSub, Expr::Col("v"), Expr::Col("k")),
                  fx.file.schema())
                  .ValueOrDie();
  auto proj =
      ProjectIterator::Make(std::move(scan), {diff}, {"d"}, &fx.ctx)
          .ValueOrDie();
  auto rows = DrainIterator(proj.get()).ValueOrDie();
  ASSERT_EQ(rows.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(rows[i][0].int64_value(), static_cast<int64_t>(9 * (i + 1)));
  }
}

TEST(TinyTableTest, GroupedAggregatesMatchHandComputation) {
  TinyFixture fx;
  // red:  v in {10, 30, 50} -> sum 90,  min 10, max 50, count 3
  // blue: v in {20, 40, 60} -> sum 120, min 20, max 60, count 3
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  auto agg = HashAggIterator::Make(std::move(scan), {"name"},
                                   {{AggFunc::kSum, "v", "s"},
                                    {AggFunc::kMin, "v", "lo"},
                                    {AggFunc::kMax, "v", "hi"},
                                    {AggFunc::kCount, "", "n"}},
                                   &fx.ctx)
                 .ValueOrDie();
  auto rows = DrainIterator(agg.get()).ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& row : rows) {
    if (row[0].string_value() == "red") {
      EXPECT_EQ(row[1].int64_value(), 90);
      EXPECT_EQ(row[2].int64_value(), 10);
      EXPECT_EQ(row[3].int64_value(), 50);
      EXPECT_EQ(row[4].int64_value(), 3);
    } else {
      EXPECT_EQ(row[0].string_value(), "blue");
      EXPECT_EQ(row[1].int64_value(), 120);
      EXPECT_EQ(row[2].int64_value(), 20);
      EXPECT_EQ(row[3].int64_value(), 60);
      EXPECT_EQ(row[4].int64_value(), 3);
    }
  }
}

TEST(TinyTableTest, UngroupedAggregatesOverEmptyInput) {
  TinyFixture fx;
  // A filter nothing passes: SUM/MIN/MAX are NULL, COUNT is 0.
  auto pred = Expr::Resolve(Expr::Cmp(CompareOp::kGt, Expr::Col("v"),
                                      Expr::Lit(Value::Int64(1000))),
                            fx.file.schema())
                  .ValueOrDie();
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  RowIteratorPtr filter(
      new FilterIterator(std::move(scan), std::move(pred), &fx.ctx));
  auto agg = HashAggIterator::Make(std::move(filter), {},
                                   {{AggFunc::kSum, "v", "s"},
                                    {AggFunc::kMin, "v", "lo"},
                                    {AggFunc::kCount, "", "n"}},
                                   &fx.ctx)
                 .ValueOrDie();
  auto rows = DrainIterator(agg.get()).ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_EQ(rows[0][2].int64_value(), 0);
}

TEST(TinyTableTest, HashJoinMatchesExactPairs) {
  TinyFixture fx;
  // Build side: k in {2, 4, 6} (name = blue). Probe side: all six rows on
  // k = k -> exactly the three blue rows join.
  auto blue = Expr::Resolve(Expr::Cmp(CompareOp::kEq, Expr::Col("name"),
                                      Expr::Lit(Value::String("blue"))),
                            fx.file.schema())
                  .ValueOrDie();
  RowIteratorPtr build_scan(new SeqScanIterator(&fx.file, &fx.ctx));
  RowIteratorPtr build(
      new FilterIterator(std::move(build_scan), std::move(blue), &fx.ctx));
  RowIteratorPtr probe(new SeqScanIterator(&fx.file, &fx.ctx));
  HashJoinIterator join(std::move(build), std::move(probe), 0, 0, &fx.ctx);
  auto rows = DrainIterator(&join).ValueOrDie();
  ASSERT_EQ(rows.size(), 3u);
  // Probe order is preserved: k = 2, 4, 6.
  EXPECT_EQ(rows[0][0].int64_value(), 2);
  EXPECT_EQ(rows[1][0].int64_value(), 4);
  EXPECT_EQ(rows[2][0].int64_value(), 6);
}

TEST(TinyTableTest, SortDescendingWithLimitPinsTopRows) {
  TinyFixture fx;
  RowIteratorPtr scan(new SeqScanIterator(&fx.file, &fx.ctx));
  auto sort =
      SortIterator::Make(std::move(scan), "v", /*descending=*/true, 2, &fx.ctx)
          .ValueOrDie();
  auto rows = DrainIterator(sort.get()).ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].int64_value(), 60);
  EXPECT_EQ(rows[1][1].int64_value(), 50);
}

TEST(IteratorTest, EvalOnRowMatchesKernelSemantics) {
  Row row = {Value::Int64(4), Value::Null(DataType::kInt64),
             Value::String("promo pack")};
  auto lt = Expr::Cmp(CompareOp::kLt, Expr::ColAt(0),
                      Expr::Lit(Value::Int64(5)));
  EXPECT_TRUE(EvalOnRow(*lt, row).ValueOrDie().bool_value());
  // NULL comparisons are false.
  auto null_cmp = Expr::Cmp(CompareOp::kEq, Expr::ColAt(1),
                            Expr::Lit(Value::Int64(0)));
  EXPECT_FALSE(EvalOnRow(*null_cmp, row).ValueOrDie().bool_value());
  auto like = Expr::Like(Expr::ColAt(2), "promo%");
  EXPECT_TRUE(EvalOnRow(*like, row).ValueOrDie().bool_value());
  // Integer division by zero is NULL.
  auto div = Expr::Arith(ArithOp::kDiv, Expr::ColAt(0),
                         Expr::Lit(Value::Int64(0)));
  EXPECT_TRUE(EvalOnRow(*div, row).ValueOrDie().is_null());
}

// Operands read in place (columns, literals) and computed ones (nested
// expressions) give the same answers, and a bad column still fails.
TEST(IteratorTest, EvalOnRowOperandsInPlaceAndComputed) {
  Row row = {Value::Int64(4), Value::Double(2.5), Value::String("abc"),
             Value::Null(DataType::kString)};
  auto eval = [&](const ExprPtr& e) { return EvalOnRow(*e, row); };
  // Literal on the left, column on the right; two columns.
  EXPECT_TRUE(eval(Expr::Cmp(CompareOp::kGt, Expr::Lit(Value::Int64(5)),
                             Expr::ColAt(0)))
                  .ValueOrDie()
                  .bool_value());
  EXPECT_FALSE(eval(Expr::Cmp(CompareOp::kEq, Expr::ColAt(0), Expr::ColAt(1)))
                   .ValueOrDie()
                   .bool_value());
  // Computed operands: (k * 2) > (v + 5.0) is 8 > 7.5.
  auto lhs = Expr::Arith(ArithOp::kMul, Expr::ColAt(0),
                         Expr::Lit(Value::Int64(2)));
  auto rhs = Expr::Arith(ArithOp::kAdd, Expr::ColAt(1),
                         Expr::Lit(Value::Double(5.0)));
  EXPECT_TRUE(eval(Expr::Cmp(CompareOp::kGt, lhs, rhs))
                  .ValueOrDie()
                  .bool_value());
  const Value sum = eval(Expr::Arith(ArithOp::kAdd, lhs, rhs)).ValueOrDie();
  EXPECT_EQ(sum.double_value(), 15.5);
  // NULL operands: a compare is false, LIKE is false.
  EXPECT_FALSE(eval(Expr::Cmp(CompareOp::kEq, Expr::ColAt(3),
                              Expr::Lit(Value::String("abc"))))
                   .ValueOrDie()
                   .bool_value());
  EXPECT_FALSE(eval(Expr::Like(Expr::ColAt(3), "%")).ValueOrDie().bool_value());
  EXPECT_TRUE(
      eval(Expr::Like(Expr::ColAt(2), "a_c")).ValueOrDie().bool_value());
  // A column past the row and an unresolved column fail as operands too.
  EXPECT_EQ(eval(Expr::Cmp(CompareOp::kEq, Expr::ColAt(9), Expr::ColAt(0)))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(eval(Expr::Arith(ArithOp::kAdd, Expr::ColAt(0), Expr::Col("x")))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(eval(Expr::Like(Expr::ColAt(0), "%")).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dflow::volcano

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "dflow/common/random.h"
#include "dflow/storage/catalog.h"
#include "dflow/storage/object_store.h"
#include "dflow/storage/table.h"
#include "dflow/storage/table_io.h"
#include "dflow/storage/zone_map.h"
#include "dflow/testing/plan_gen.h"

namespace dflow {
namespace {

DataChunk MakeChunk(const std::vector<int64_t>& ids,
                    const std::vector<std::string>& names) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64(ids));
  chunk.AddColumn(ColumnVector::FromString(names));
  return chunk;
}

Schema TwoColSchema() {
  return Schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
}

TEST(ZoneMapTest, ComputeMinMax) {
  ZoneMap zm = ZoneMap::Compute(ColumnVector::FromInt64({5, -2, 9, 3}));
  ASSERT_TRUE(zm.valid);
  EXPECT_EQ(zm.min.int64_value(), -2);
  EXPECT_EQ(zm.max.int64_value(), 9);
  EXPECT_FALSE(zm.has_nulls);
}

TEST(ZoneMapTest, NullTracking) {
  ColumnVector c = ColumnVector::FromInt64({1, 2});
  c.SetNull(0);
  ZoneMap zm = ZoneMap::Compute(c);
  EXPECT_TRUE(zm.has_nulls);
  EXPECT_EQ(zm.min.int64_value(), 2);
}

TEST(ZoneMapTest, MayMatchPrunes) {
  ZoneMap zm = ZoneMap::Compute(ColumnVector::FromInt64({10, 20, 30}));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kEq, Value::Int64(20)));
  EXPECT_FALSE(zm.MayMatch(CompareOp::kEq, Value::Int64(5)));
  EXPECT_FALSE(zm.MayMatch(CompareOp::kLt, Value::Int64(10)));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kLe, Value::Int64(10)));
  EXPECT_FALSE(zm.MayMatch(CompareOp::kGt, Value::Int64(30)));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kGe, Value::Int64(30)));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kNe, Value::Int64(20)));
}

TEST(ZoneMapTest, NeOnConstantZone) {
  ZoneMap zm = ZoneMap::Compute(ColumnVector::FromInt64({7, 7, 7}));
  EXPECT_FALSE(zm.MayMatch(CompareOp::kNe, Value::Int64(7)));
  EXPECT_TRUE(zm.MayMatch(CompareOp::kNe, Value::Int64(8)));
}

TEST(ZoneMapTest, MergeWidens) {
  ZoneMap a = ZoneMap::Compute(ColumnVector::FromInt64({1, 2}));
  ZoneMap b = ZoneMap::Compute(ColumnVector::FromInt64({10, 20}));
  a.Merge(b);
  EXPECT_EQ(a.min.int64_value(), 1);
  EXPECT_EQ(a.max.int64_value(), 20);
}

// The boxed zone-map loop ZoneMap::Compute replaced: every valid slot is
// boxed and compared with Value::Compare; the first value seen wins ties.
ZoneMap BoxedZoneMap(const ColumnVector& col) {
  ZoneMap zm;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsValid(i)) {
      zm.has_nulls = true;
      continue;
    }
    Value v = col.GetValue(i);
    if (!zm.valid) {
      zm.min = v;
      zm.max = v;
      zm.valid = true;
    } else {
      if (v.Compare(zm.min) < 0) zm.min = v;
      if (v.Compare(zm.max) > 0) zm.max = std::move(v);
    }
  }
  return zm;
}

// Identical values: same type and NULL-ness, and for doubles the same bits,
// which tells -0.0 from 0.0 and keeps NaN apart from every number.
void ExpectSameBound(const Value& a, const Value& b) {
  ASSERT_EQ(a.is_null(), b.is_null());
  if (a.is_null()) return;
  ASSERT_EQ(a.type(), b.type());
  if (a.type() == DataType::kDouble) {
    const double da = a.double_value(), db = b.double_value();
    EXPECT_EQ(std::memcmp(&da, &db, sizeof(double)), 0) << da << " vs " << db;
  } else {
    EXPECT_EQ(a.Compare(b), 0) << a.ToString() << " vs " << b.ToString();
  }
}

void ExpectZoneMapMatchesBoxed(const ColumnVector& col) {
  const ZoneMap typed = ZoneMap::Compute(col);
  const ZoneMap boxed = BoxedZoneMap(col);
  EXPECT_EQ(typed.valid, boxed.valid);
  EXPECT_EQ(typed.has_nulls, boxed.has_nulls);
  ExpectSameBound(typed.min, boxed.min);
  ExpectSameBound(typed.max, boxed.max);
}

TEST(ZoneMapTest, TypedComputeMatchesBoxedLoop) {
  for (DataType type : {DataType::kBool, DataType::kInt32, DataType::kInt64,
                        DataType::kDouble, DataType::kString,
                        DataType::kDate32}) {
    SCOPED_TRACE(std::string(DataTypeToString(type)));
    Random rng(0x20ULL);
    for (double null_prob : {0.0, 0.3, 1.0}) {
      ExpectZoneMapMatchesBoxed(
          testing::PlanGen::RandomColumn(&rng, type, 200, null_prob));
    }
    ExpectZoneMapMatchesBoxed(ColumnVector(type));
  }
}

TEST(ZoneMapTest, TypedComputeKeepsFirstOfTiesAndIgnoresNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> doubles = {
      {0.0, -0.0, 1.0, -0.0, 1.0},  // ±0.0 tie for the minimum
      {-0.0, 0.0, -1.0, 0.0},       // ... and for the maximum
      {nan, 1.0, -1.0},             // a leading NaN is never replaced
      {1.0, nan, -1.0, 2.0, nan},   // a later NaN never replaces a bound
      {nan, nan}};
  for (const std::vector<double>& values : doubles) {
    ExpectZoneMapMatchesBoxed(ColumnVector::FromDouble(values));
    ColumnVector with_nulls = ColumnVector::FromDouble(values);
    with_nulls.SetNull(0);
    ExpectZoneMapMatchesBoxed(with_nulls);
  }

  // Duplicate minima and maxima.
  ExpectZoneMapMatchesBoxed(ColumnVector::FromInt64({3, 1, 1, 5, 5, 3}));
  ExpectZoneMapMatchesBoxed(ColumnVector::FromInt32({-4, 7, -4, 7}));
  ExpectZoneMapMatchesBoxed(ColumnVector::FromDate32({100, 100, 99, 101}));
  ExpectZoneMapMatchesBoxed(
      ColumnVector::FromString({"b", "a", "", "c", "c", ""}));

  // Bools: mixed, one value only, and partly NULL.
  ExpectZoneMapMatchesBoxed(ColumnVector::FromBool({1, 0, 1, 0}));
  ExpectZoneMapMatchesBoxed(ColumnVector::FromBool({1, 1, 1}));
  ColumnVector bools = ColumnVector::FromBool({0, 1, 0});
  bools.SetNull(1);
  ExpectZoneMapMatchesBoxed(bools);
  const ZoneMap zm = ZoneMap::Compute(bools);
  EXPECT_FALSE(zm.max.bool_value());
}

TEST(TableBuilderTest, BuildsRowGroups) {
  TableBuilder builder("t", TwoColSchema(), /*row_group_size=*/4);
  ASSERT_TRUE(builder.Append(MakeChunk({1, 2, 3}, {"a", "b", "c"})).ok());
  ASSERT_TRUE(builder.Append(MakeChunk({4, 5, 6}, {"d", "e", "f"})).ok());
  Table table = builder.Finish().ValueOrDie();
  EXPECT_EQ(table.num_rows(), 6u);
  EXPECT_EQ(table.num_row_groups(), 2u);
  EXPECT_EQ(table.row_group(0).num_rows(), 4u);
  EXPECT_EQ(table.row_group(1).num_rows(), 2u);
}

TEST(TableBuilderTest, RejectsSchemaMismatch) {
  TableBuilder builder("t", TwoColSchema());
  DataChunk bad;
  bad.AddColumn(ColumnVector::FromInt64({1}));
  EXPECT_TRUE(builder.Append(bad).IsInvalidArgument());

  DataChunk bad_type;
  bad_type.AddColumn(ColumnVector::FromDouble({1.0}));
  bad_type.AddColumn(ColumnVector::FromString({"x"}));
  EXPECT_TRUE(builder.Append(bad_type).IsInvalidArgument());
}

TEST(TableTest, RoundtripThroughChunks) {
  TableBuilder builder("t", TwoColSchema(), 1000);
  ASSERT_TRUE(builder.Append(MakeChunk({1, 2, 3}, {"a", "b", "c"})).ok());
  Table table = builder.Finish().ValueOrDie();
  auto chunks = table.ToChunks().ValueOrDie();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].num_rows(), 3u);
  EXPECT_EQ(chunks[0].GetValue(1, 1).string_value(), "b");
}

TEST(TableTest, TableZoneMapsMergeRowGroups) {
  TableBuilder builder("t", TwoColSchema(), 2);
  ASSERT_TRUE(
      builder.Append(MakeChunk({5, 1, 100, 7}, {"a", "b", "c", "d"})).ok());
  Table table = builder.Finish().ValueOrDie();
  EXPECT_EQ(table.table_zone_map(0).min.int64_value(), 1);
  EXPECT_EQ(table.table_zone_map(0).max.int64_value(), 100);
}

TEST(TableTest, RowGroupColumnPruningBytes) {
  TableBuilder builder("t", TwoColSchema(), 1000);
  std::vector<int64_t> ids;
  std::vector<std::string> names;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(i);
    names.push_back("row_" + std::to_string(i));
  }
  ASSERT_TRUE(builder.Append(MakeChunk(ids, names)).ok());
  Table table = builder.Finish().ValueOrDie();
  const RowGroup& rg = table.row_group(0);
  EXPECT_LT(rg.EncodedBytes({0}), rg.EncodedBytes());
  EXPECT_EQ(rg.EncodedBytes({0}) + rg.EncodedBytes({1}), rg.EncodedBytes());
}

TEST(TableTest, DecodeChunksSelectsColumns) {
  TableBuilder builder("t", TwoColSchema(), 1000);
  ASSERT_TRUE(builder.Append(MakeChunk({1, 2}, {"a", "b"})).ok());
  Table table = builder.Finish().ValueOrDie();
  auto chunks = table.row_group(0).DecodeChunks({1}).ValueOrDie();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].num_columns(), 1u);
  EXPECT_EQ(chunks[0].GetValue(0, 0).string_value(), "a");
}

// DecodeChunks slices each decoded column instead of gathering row by row.
// A slice keeps the validity mask of its whole column, even where it holds
// no NULL: ByteSize() (and so every wire byte) counts the mask.
TEST(TableTest, DecodeChunksSlicesMatchGather) {
  const size_t rows = 2 * kVectorSize + kVectorSize / 2;
  std::vector<int64_t> ids;
  std::vector<std::string> names;
  for (size_t i = 0; i < rows; ++i) {
    ids.push_back(static_cast<int64_t>(i * 7 % 1000));
    names.push_back("n" + std::to_string(i % 13));
  }
  DataChunk chunk = MakeChunk(ids, names);
  chunk.column(0).SetNull(rows - 1);  // NULLs in the last slice only
  chunk.column(1).SetNull(rows - 3);
  TableBuilder builder("t", TwoColSchema(), rows);
  ASSERT_TRUE(builder.Append(chunk).ok());
  Table table = builder.Finish().ValueOrDie();
  const RowGroup& rg = table.row_group(0);
  ASSERT_EQ(rg.num_rows(), rows);

  const auto chunks = rg.DecodeChunks({0, 1}).ValueOrDie();
  ASSERT_EQ(chunks.size(), 3u);
  const ColumnVector ids_col = rg.DecodeColumnAt(0).ValueOrDie();
  const ColumnVector names_col = rg.DecodeColumnAt(1).ValueOrDie();
  ASSERT_TRUE(ids_col.HasNulls());
  ASSERT_TRUE(names_col.HasNulls());
  for (size_t i = 0; i < chunks.size(); ++i) {
    SCOPED_TRACE(i);
    SelectionVector sel;
    for (size_t r = i * kVectorSize; r < std::min(rows, (i + 1) * kVectorSize);
         ++r) {
      sel.Append(static_cast<uint32_t>(r));
    }
    const DataChunk gathered({ids_col.Gather(sel), names_col.Gather(sel)});
    EXPECT_TRUE(chunks[i].column(0).HasNulls());
    EXPECT_TRUE(chunks[i].column(1).HasNulls());
    EXPECT_EQ(chunks[i].ByteSize(), gathered.ByteSize());
    EXPECT_EQ(chunks[i].ToString(kVectorSize), gathered.ToString(kVectorSize));
  }

  // A row group of one chunk comes back as one slice with the same masks.
  TableBuilder small("s", TwoColSchema(), 1000);
  DataChunk few = MakeChunk({1, 2, 3}, {"a", "b", "c"});
  few.column(0).SetNull(1);
  ASSERT_TRUE(small.Append(few).ok());
  const auto one = small.Finish().ValueOrDie().row_group(0).DecodeChunks({0, 1})
                       .ValueOrDie();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one[0].column(0).HasNulls());
  EXPECT_FALSE(one[0].column(1).HasNulls());
  EXPECT_EQ(one[0].ByteSize(), few.ByteSize());
}

TEST(ObjectStoreTest, PutGetRoundtrip) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", {1, 2, 3}).ok());
  auto data = store.Get("k").ValueOrDie();
  EXPECT_EQ(data, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
}

TEST(ObjectStoreTest, RangedGet) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", {0, 1, 2, 3, 4, 5}).ok());
  auto range = store.GetRange("k", 2, 3).ValueOrDie();
  EXPECT_EQ(range, (std::vector<uint8_t>{2, 3, 4}));
  EXPECT_TRUE(store.GetRange("k", 4, 10).status().IsOutOfRange());
}

TEST(ObjectStoreTest, StatsCountBytesAndRequests) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", std::vector<uint8_t>(100, 7)).ok());
  (void)store.Get("k");
  (void)store.GetRange("k", 0, 10);
  EXPECT_EQ(store.stats().put_requests, 1u);
  EXPECT_EQ(store.stats().get_requests, 2u);
  EXPECT_EQ(store.stats().bytes_written, 100u);
  EXPECT_EQ(store.stats().bytes_read, 110u);
  store.ResetStats();
  EXPECT_EQ(store.stats().get_requests, 0u);
}

TEST(ObjectStoreTest, ListByPrefix) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("tables/a/meta", {1}).ok());
  ASSERT_TRUE(store.Put("tables/a/rg0", {1}).ok());
  ASSERT_TRUE(store.Put("tables/b/meta", {1}).ok());
  auto keys = store.List("tables/a/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "tables/a/meta");
}

TEST(ObjectStoreTest, DeleteRemoves) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", {1}).ok());
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_FALSE(store.Exists("k"));
  EXPECT_TRUE(store.Delete("k").IsNotFound());
}

Table MakeBigTable(size_t rows, size_t row_group_size = 1000) {
  TableBuilder builder("big", TwoColSchema(), row_group_size);
  Random rng(5);
  std::vector<int64_t> ids;
  std::vector<std::string> names;
  for (size_t i = 0; i < rows; ++i) {
    ids.push_back(static_cast<int64_t>(i));
    names.push_back(rng.NextBool() ? "alpha" : "beta");
  }
  EXPECT_TRUE(builder.Append(MakeChunk(ids, names)).ok());
  return builder.Finish().ValueOrDie();
}

TEST(TableIoTest, WriteAndReadBack) {
  ObjectStore store;
  Table table = MakeBigTable(2500);
  ASSERT_TRUE(WriteTableToStore(table, &store).ok());
  Table loaded = ReadTableFromStore(store, "big").ValueOrDie();
  EXPECT_EQ(loaded.num_rows(), 2500u);
  EXPECT_EQ(loaded.num_row_groups(), 3u);
  EXPECT_TRUE(loaded.schema() == table.schema());
  // Content equality on a sample.
  auto orig = table.ToChunks().ValueOrDie();
  auto back = loaded.ToChunks().ValueOrDie();
  ASSERT_EQ(orig.size(), back.size());
  EXPECT_EQ(orig[0].GetValue(5, 1).string_value(),
            back[0].GetValue(5, 1).string_value());
}

// Row groups record each column's decoded size when they are built, both
// by TableBuilder and when a stored table is loaded; it must be exactly
// what decoding the column (or the row group's chunks) yields.
TEST(TableIoTest, DecodedBytesMetadataSurvivesRoundTrip) {
  const Schema schema({{"b", DataType::kBool},
                       {"i", DataType::kInt32},
                       {"l", DataType::kInt64},
                       {"f", DataType::kDouble},
                       {"s", DataType::kString},
                       {"d", DataType::kDate32}});
  Random rng(11);
  std::vector<ColumnVector> cols;
  for (const Field& field : schema.fields()) {
    cols.push_back(testing::PlanGen::RandomColumn(&rng, field.type, 2500,
                                                  /*null_prob=*/0.1));
  }
  TableBuilder builder("types", schema, 1000);
  ASSERT_TRUE(builder.Append(DataChunk(std::move(cols))).ok());
  Table table = builder.Finish().ValueOrDie();
  ObjectStore store;
  ASSERT_TRUE(WriteTableToStore(table, &store).ok());
  Table loaded = ReadTableFromStore(store, "types").ValueOrDie();
  ASSERT_EQ(loaded.num_row_groups(), 3u);

  const std::vector<size_t> all = {0, 1, 2, 3, 4, 5};
  for (size_t g = 0; g < loaded.num_row_groups(); ++g) {
    SCOPED_TRACE(g);
    const RowGroup& rg = loaded.row_group(g);
    for (size_t c : all) {
      SCOPED_TRACE(c);
      EXPECT_EQ(rg.DecodedBytes({c}),
                rg.DecodeColumnAt(c).ValueOrDie().ByteSize());
      EXPECT_EQ(rg.DecodedBytes({c}), table.row_group(g).DecodedBytes({c}));
    }
    const std::vector<DataChunk> chunks = rg.DecodeChunks(all).ValueOrDie();
    uint64_t chunk_bytes = 0;
    for (const DataChunk& chunk : chunks) chunk_bytes += chunk.ByteSize();
    EXPECT_EQ(rg.DecodedBytes(all), chunk_bytes);
  }
}

TEST(TableIoTest, ColumnGranularReadTouchesFewerBytes) {
  ObjectStore store;
  Table table = MakeBigTable(5000);
  ASSERT_TRUE(WriteTableToStore(table, &store).ok());
  store.ResetStats();

  auto reader = StoredTableReader::Open(&store, "big").ValueOrDie();
  // Read only the narrow id column of row group 0.
  ASSERT_TRUE(reader.ReadColumn(0, 0).ok());
  const uint64_t id_only = store.stats().bytes_read;

  store.ResetStats();
  (void)store.Get("tables/big/rg0");
  const uint64_t whole_rg = store.stats().bytes_read;
  EXPECT_LT(id_only, whole_rg);
}

TEST(TableIoTest, StoredZoneMapsSurvive) {
  ObjectStore store;
  Table table = MakeBigTable(1000);
  ASSERT_TRUE(WriteTableToStore(table, &store).ok());
  auto reader = StoredTableReader::Open(&store, "big").ValueOrDie();
  const ZoneMap& zm = reader.row_group_meta(0).zones[0];
  ASSERT_TRUE(zm.valid);
  EXPECT_EQ(zm.min.int64_value(), 0);
  EXPECT_EQ(zm.max.int64_value(), 999);
}

TEST(TableIoTest, OpenMissingTableIsNotFound) {
  ObjectStore store;
  EXPECT_TRUE(StoredTableReader::Open(&store, "nope").status().IsNotFound());
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  auto table = std::make_shared<Table>(MakeBigTable(10));
  ASSERT_TRUE(catalog.Register(table).ok());
  EXPECT_TRUE(catalog.Has("big"));
  EXPECT_EQ(catalog.Lookup("big").ValueOrDie()->num_rows(), 10u);
  EXPECT_TRUE(catalog.Lookup("other").status().IsNotFound());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
}

TEST(CatalogTest, RejectsNullAndUnnamed) {
  Catalog catalog;
  EXPECT_TRUE(catalog.Register(nullptr).IsInvalidArgument());
}

}  // namespace
}  // namespace dflow

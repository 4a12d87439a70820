#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dflow/common/hash.h"
#include "dflow/common/random.h"
#include "dflow/common/string_util.h"
#include "dflow/testing/plan_gen.h"
#include "dflow/vector/column_vector.h"
#include "dflow/vector/data_chunk.h"
#include "dflow/vector/kernels.h"

namespace dflow {
namespace {

TEST(ColumnVectorTest, TypedFactoriesRoundtrip) {
  ColumnVector c = ColumnVector::FromInt64({1, 2, 3});
  EXPECT_EQ(c.type(), DataType::kInt64);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.i64()[1], 2);
  EXPECT_EQ(c.GetValue(2).int64_value(), 3);
}

TEST(ColumnVectorTest, NullsAreLazy) {
  ColumnVector c = ColumnVector::FromInt32({1, 2, 3});
  EXPECT_FALSE(c.HasNulls());
  c.SetNull(1);
  EXPECT_TRUE(c.HasNulls());
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_FALSE(c.IsValid(1));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnVectorTest, AppendValueAndNull) {
  ColumnVector c(DataType::kString);
  c.AppendValue(Value::String("a"));
  c.AppendNull();
  c.AppendValue(Value::String("b"));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetValue(0).string_value(), "a");
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_EQ(c.GetValue(2).string_value(), "b");
}

TEST(ColumnVectorTest, GatherPreservesOrderAndNulls) {
  ColumnVector c = ColumnVector::FromInt64({10, 20, 30, 40});
  c.SetNull(2);
  SelectionVector sel({3, 2, 0});
  ColumnVector g = c.Gather(sel);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.i64()[0], 40);
  EXPECT_TRUE(g.GetValue(1).is_null());
  EXPECT_EQ(g.i64()[2], 10);
}

TEST(ColumnVectorTest, ByteSizeFixedWidth) {
  ColumnVector c = ColumnVector::FromInt64({1, 2, 3, 4});
  EXPECT_EQ(c.ByteSize(), 4u * 8u);
  c.SetNull(0);
  EXPECT_EQ(c.ByteSize(), 4u * 8u + 4u);  // + validity bytes
}

TEST(ColumnVectorTest, ByteSizeStrings) {
  ColumnVector c = ColumnVector::FromString({"ab", "cde"});
  EXPECT_EQ(c.ByteSize(), (2u + 4u) + (3u + 4u));
}

TEST(ColumnVectorTest, AppendFromCopiesValue) {
  ColumnVector src = ColumnVector::FromDouble({1.5, 2.5});
  src.SetNull(0);
  ColumnVector dst(DataType::kDouble);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_TRUE(dst.GetValue(0).is_null());
  EXPECT_DOUBLE_EQ(dst.GetValue(1).double_value(), 2.5);
}

TEST(DataChunkTest, BasicShape) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1, 2, 3}));
  chunk.AddColumn(ColumnVector::FromString({"a", "b", "c"}));
  EXPECT_EQ(chunk.num_rows(), 3u);
  EXPECT_EQ(chunk.num_columns(), 2u);
  EXPECT_TRUE(chunk.IsWellFormed());
}

TEST(DataChunkTest, EmptyFromSchema) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  DataChunk chunk = DataChunk::EmptyFromSchema(schema);
  EXPECT_EQ(chunk.num_columns(), 2u);
  EXPECT_EQ(chunk.num_rows(), 0u);
  EXPECT_EQ(chunk.column(1).type(), DataType::kDouble);
}

TEST(DataChunkTest, GatherAllColumns) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1, 2, 3, 4}));
  chunk.AddColumn(ColumnVector::FromDouble({0.1, 0.2, 0.3, 0.4}));
  SelectionVector sel({1, 3});
  DataChunk out = chunk.Gather(sel);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).i64()[0], 2);
  EXPECT_DOUBLE_EQ(out.column(1).f64()[1], 0.4);
}

TEST(DataChunkTest, SelectColumnsReorders) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({1}));
  chunk.AddColumn(ColumnVector::FromString({"x"}));
  DataChunk out = chunk.SelectColumns({1, 0});
  EXPECT_EQ(out.column(0).type(), DataType::kString);
  EXPECT_EQ(out.column(1).type(), DataType::kInt64);
}

TEST(DataChunkTest, AppendRowFrom) {
  DataChunk src;
  src.AddColumn(ColumnVector::FromInt64({7, 8}));
  DataChunk dst;
  dst.AddColumn(ColumnVector(DataType::kInt64));
  dst.AppendRowFrom(src, 1);
  EXPECT_EQ(dst.num_rows(), 1u);
  EXPECT_EQ(dst.column(0).i64()[0], 8);
}

// -------------------------------------------------------- string arena ----

// A string column as one std::string per row plus a NULL flag per row: the
// storage the arena replaced. Each arena test checks the column against
// what this reference gives, with the pre-arena formulas written out.
struct RefStrings {
  std::vector<std::string> values;
  std::vector<bool> nulls;  // same length as values
  bool has_mask = false;    // the column carries a validity mask

  void Add(std::string s) {
    values.push_back(std::move(s));
    nulls.push_back(false);
  }
  void AddNull() {
    values.emplace_back();
    nulls.push_back(true);
    has_mask = true;
  }
  void SetNull(size_t i) {
    nulls[i] = true;  // the slot keeps its bytes
    has_mask = true;
  }

  // Sum of each row's bytes plus its 4-byte length, plus the mask.
  uint64_t ByteSize() const {
    uint64_t bytes = 0;
    for (const std::string& s : values) bytes += s.size() + 4;
    return bytes + (has_mask ? values.size() : 0);
  }

  // ChecksumChunk of a one-column chunk, hashing each std::string.
  uint64_t Checksum() const {
    uint64_t h = HashInt64(1);
    h = HashCombine(h, static_cast<uint64_t>(DataType::kString));
    h = HashCombine(h, values.size());
    for (const std::string& s : values) h = HashCombine(h, HashString(s));
    for (size_t i = 0; i < values.size(); ++i) {
      if (nulls[i]) h = HashCombine(h, i);
    }
    return h;
  }

  std::vector<uint64_t> Hashes() const {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < values.size(); ++i) {
      out.push_back(nulls[i] ? 0x7ull : HashString(values[i]));
    }
    return out;
  }

  ColumnVector Build() const {
    ColumnVector col = ColumnVector::FromString(values);
    for (size_t i = 0; i < values.size(); ++i) {
      if (nulls[i]) col.SetNull(i);
    }
    return col;
  }
};

// Every row's bytes (NULL slots included), validity, byte size, checksum
// and hashes of `col` match `ref`.
void ExpectMatches(const ColumnVector& col, const RefStrings& ref) {
  ASSERT_EQ(col.type(), DataType::kString);
  ASSERT_EQ(col.size(), ref.values.size());
  for (size_t i = 0; i < ref.values.size(); ++i) {
    EXPECT_EQ(col.strs()[i], ref.values[i]) << "row " << i;
    EXPECT_EQ(col.IsValid(i), !ref.nulls[i]) << "row " << i;
  }
  EXPECT_EQ(col.HasNulls(), ref.has_mask);
  EXPECT_EQ(col.ByteSize(), ref.ByteSize());
  DataChunk chunk;
  chunk.AddColumn(col);
  EXPECT_EQ(ChecksumChunk(chunk), ref.Checksum());
  std::vector<uint64_t> hashes;
  ASSERT_TRUE(HashColumn(col, &hashes).ok());
  EXPECT_EQ(hashes, ref.Hashes());
}

// Rows with empty strings, long strings, a NULL appended as a placeholder
// and a non-empty slot set NULL afterwards (which keeps its bytes).
RefStrings MixedStrings() {
  RefStrings ref;
  ref.Add("alpha");
  ref.Add("");
  ref.AddNull();
  ref.Add(std::string(300, 'x'));
  ref.Add("beta");
  ref.Add("");
  ref.Add("gamma ray");
  ref.SetNull(4);
  return ref;
}

TEST(StringArenaTest, ByteSizeChecksumAndHashesMatchPerRowStrings) {
  const RefStrings ref = MixedStrings();
  ExpectMatches(ref.Build(), ref);

  // The same column built by appends instead of a factory.
  ColumnVector appended(DataType::kString);
  for (size_t i = 0; i < ref.values.size(); ++i) {
    if (i == 2) {
      appended.AppendNull();
    } else {
      appended.AppendValue(Value::String(ref.values[i]));
    }
  }
  appended.SetNull(4);
  ExpectMatches(appended, ref);

  // A column with no rows, and one of only empty strings.
  ExpectMatches(ColumnVector(DataType::kString), RefStrings());
  RefStrings empties;
  for (int i = 0; i < 3; ++i) empties.Add("");
  ExpectMatches(empties.Build(), empties);
}

TEST(StringArenaTest, TakeRangeAtBothEnds) {
  const RefStrings ref = MixedStrings();
  const ColumnVector col = ref.Build();
  const size_t n = ref.values.size();
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {0, 3}, {n - 3, 3}, {0, n}, {0, 0}, {n, 0}, {2, 1}};
  for (const auto& [start, count] : ranges) {
    SCOPED_TRACE("start " + std::to_string(start) + " count " +
                 std::to_string(count));
    RefStrings slice;
    slice.has_mask = ref.has_mask && count > 0;  // no rows, no mask bytes
    for (size_t i = start; i < start + count; ++i) {
      slice.values.push_back(ref.values[i]);
      slice.nulls.push_back(ref.nulls[i]);
    }
    ExpectMatches(col.TakeRange(start, count), slice);
  }
  ExpectMatches(col, ref);  // the source is left as it was
}

TEST(StringArenaTest, GatherRepeatedAndOutOfOrderRows) {
  const RefStrings ref = MixedStrings();
  const ColumnVector col = ref.Build();
  const std::vector<uint32_t> rows = {6, 0, 4, 4, 2, 3, 0, 1, 6};
  RefStrings expect;
  expect.has_mask = true;
  for (uint32_t r : rows) {
    expect.values.push_back(ref.values[r]);
    expect.nulls.push_back(ref.nulls[r]);
  }
  ExpectMatches(col.Gather(SelectionVector(rows)), expect);
}

// The column AppendFrom leaves for each of `src`'s rows in order.
ColumnVector AppendEachRow(ColumnVector dst, const ColumnVector& src,
                           size_t start, size_t count) {
  for (size_t i = start; i < start + count; ++i) dst.AppendFrom(src, i);
  return dst;
}

// Same rows, same placeholder bytes under NULLs, same mask.
void ExpectSameColumn(const ColumnVector& a, const ColumnVector& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.HasNulls(), b.HasNulls());
  EXPECT_EQ(a.ByteSize(), b.ByteSize());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.IsValid(i), b.IsValid(i)) << "row " << i;
    EXPECT_EQ(a.GetValue(i).Compare(b.GetValue(i)), 0) << "row " << i;
  }
  DataChunk ca, cb;
  ca.AddColumn(a);
  cb.AddColumn(b);
  EXPECT_EQ(ChecksumChunk(ca), ChecksumChunk(cb));
}

TEST(StringArenaTest, AppendFromBulkAppendAndClearReuse) {
  const RefStrings ref = MixedStrings();
  const ColumnVector src = ref.Build();

  // AppendFrom turns a NULL slot into an empty placeholder.
  RefStrings expect;
  for (size_t i = 0; i < ref.values.size(); ++i) {
    if (ref.nulls[i]) {
      expect.AddNull();
    } else {
      expect.Add(ref.values[i]);
    }
  }
  ColumnVector one_by_one = AppendEachRow(ColumnVector(DataType::kString), src,
                                          0, src.size());
  ExpectMatches(one_by_one, expect);

  ColumnVector bulk(DataType::kString);
  bulk.Append(src);
  ExpectMatches(bulk, expect);

  // Clear empties the column; it is then reused as a fresh one.
  bulk.Clear();
  ExpectMatches(bulk, RefStrings());
  bulk.Append(ColumnVector::FromString({"re", "", "used"}));
  RefStrings reused;
  for (const char* s : {"re", "", "used"}) reused.Add(s);
  ExpectMatches(bulk, reused);
}

TEST(StringArenaTest, BulkAppendEqualsAppendFromOnEveryType) {
  for (DataType type : {DataType::kBool, DataType::kInt32, DataType::kInt64,
                        DataType::kDouble, DataType::kString,
                        DataType::kDate32}) {
    SCOPED_TRACE(std::string(DataTypeToString(type)));
    Random rng(0xA4ULL);
    ColumnVector src = testing::PlanGen::RandomColumn(&rng, type, 96, 0.2);
    src.SetNull(5);  // a slot set NULL after it held a value
    const ColumnVector clean = testing::PlanGen::RandomColumn(&rng, type, 40);
    ColumnVector masked_clean = clean;
    masked_clean.SetNull(39);
    masked_clean = masked_clean.TakeRange(0, 39);  // a mask with no NULL

    const std::vector<const ColumnVector*> sources = {&src, &clean,
                                                      &masked_clean};
    for (const ColumnVector* dst_seed : sources) {
      for (const ColumnVector* from : sources) {
        for (const auto& [start, count] :
             std::vector<std::pair<size_t, size_t>>{
                 {0, from->size()}, {3, 20}, {from->size() - 7, 7}, {9, 0}}) {
          ColumnVector bulk = *dst_seed;
          bulk.AppendRange(*from, start, count);
          ExpectSameColumn(bulk,
                           AppendEachRow(*dst_seed, *from, start, count));
        }
      }
    }
  }
}

TEST(StringArenaTest, DataChunkAppendEqualsAppendRowFrom) {
  Random rng(0xA5ULL);
  DataChunk src;
  src.AddColumn(testing::PlanGen::RandomColumn(&rng, DataType::kString, 50, 0.3));
  src.AddColumn(testing::PlanGen::RandomColumn(&rng, DataType::kInt64, 50, 0.3));
  DataChunk bulk = DataChunk::EmptyFromSchema(
      Schema({{"s", DataType::kString}, {"i", DataType::kInt64}}));
  DataChunk rows = bulk;
  bulk.Append(src);
  bulk.AppendRange(src, 10, 15);
  for (size_t r = 0; r < src.num_rows(); ++r) rows.AppendRowFrom(src, r);
  for (size_t r = 10; r < 25; ++r) rows.AppendRowFrom(src, r);
  EXPECT_EQ(ChecksumChunk(bulk), ChecksumChunk(rows));
  EXPECT_EQ(bulk.ByteSize(), rows.ByteSize());
}

// Kernel masks over arena views equal the same predicate on std::string.
TEST(StringArenaTest, CompareAndLikeKernelsMatchStdString) {
  const RefStrings ref = MixedStrings();
  const ColumnVector col = ref.Build();
  const size_t n = ref.values.size();
  for (const char* constant : {"", "alpha", "beta", "zzz", "gamma"}) {
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                         CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
      Mask mask;
      ASSERT_TRUE(
          CompareToConstant(col, op, Value::String(constant), &mask).ok());
      for (size_t i = 0; i < n; ++i) {
        const int c = ref.values[i].compare(constant);
        const bool want =
            !ref.nulls[i] &&
            (op == CompareOp::kEq   ? c == 0
             : op == CompareOp::kNe ? c != 0
             : op == CompareOp::kLt ? c < 0
             : op == CompareOp::kLe ? c <= 0
             : op == CompareOp::kGt ? c > 0
                                    : c >= 0);
        EXPECT_EQ(mask[i], want ? 1 : 0)
            << "row " << i << " " << CompareOpToString(op) << " '"
            << constant << "'";
      }
    }
  }

  RefStrings other_ref;
  for (const char* s : {"alpha", "a", "", "x", "beta", "", "gamma"}) {
    other_ref.Add(s);
  }
  other_ref.AddNull();
  other_ref.values.resize(n);
  other_ref.nulls.resize(n);
  const ColumnVector other = other_ref.Build();
  Mask mask;
  ASSERT_TRUE(CompareColumns(col, CompareOp::kLt, other, &mask).ok());
  for (size_t i = 0; i < n; ++i) {
    const bool want = !ref.nulls[i] && !other_ref.nulls[i] &&
                      ref.values[i] < other_ref.values[i];
    EXPECT_EQ(mask[i], want ? 1 : 0) << "row " << i;
  }

  for (const char* pattern : {"%a%", "_eta", "", "%", "x%"}) {
    ASSERT_TRUE(ComputeLikeMask(col, pattern, &mask).ok());
    for (size_t i = 0; i < n; ++i) {
      const bool want = !ref.nulls[i] && LikeMatch(ref.values[i], pattern);
      EXPECT_EQ(mask[i], want ? 1 : 0) << "row " << i << " " << pattern;
    }
  }
}

// ------------------------------------------------------------- kernels ----

TEST(KernelsTest, CompareToConstantInt) {
  ColumnVector c = ColumnVector::FromInt64({1, 5, 3, 5});
  Mask mask;
  ASSERT_TRUE(CompareToConstant(c, CompareOp::kEq, Value::Int64(5), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 0, 1}));
  ASSERT_TRUE(CompareToConstant(c, CompareOp::kLt, Value::Int64(4), &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 0, 1, 0}));
}

TEST(KernelsTest, CompareIntColumnWithDoubleConstant) {
  ColumnVector c = ColumnVector::FromInt64({1, 2, 3});
  Mask mask;
  ASSERT_TRUE(
      CompareToConstant(c, CompareOp::kGt, Value::Double(1.5), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 1}));
}

TEST(KernelsTest, CompareStringColumn) {
  ColumnVector c = ColumnVector::FromString({"a", "b", "c"});
  Mask mask;
  ASSERT_TRUE(
      CompareToConstant(c, CompareOp::kGe, Value::String("b"), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 1}));
}

TEST(KernelsTest, CompareTypeMismatchIsError) {
  ColumnVector c = ColumnVector::FromInt64({1});
  Mask mask;
  EXPECT_TRUE(CompareToConstant(c, CompareOp::kEq, Value::String("x"), &mask)
                  .IsInvalidArgument());
}

TEST(KernelsTest, NullsNeverMatch) {
  ColumnVector c = ColumnVector::FromInt64({1, 2});
  c.SetNull(0);
  Mask mask;
  ASSERT_TRUE(CompareToConstant(c, CompareOp::kGe, Value::Int64(0), &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1}));
}

TEST(KernelsTest, CompareWithNullConstantIsAllFalse) {
  ColumnVector c = ColumnVector::FromInt64({1, 2});
  Mask mask;
  ASSERT_TRUE(
      CompareToConstant(c, CompareOp::kEq, Value::Null(DataType::kInt64), &mask)
          .ok());
  EXPECT_EQ(mask, (Mask{0, 0}));
}

TEST(KernelsTest, CompareColumns) {
  ColumnVector a = ColumnVector::FromInt64({1, 5, 3});
  ColumnVector b = ColumnVector::FromInt64({2, 5, 1});
  Mask mask;
  ASSERT_TRUE(CompareColumns(a, CompareOp::kLt, b, &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 0, 0}));
  ASSERT_TRUE(CompareColumns(a, CompareOp::kEq, b, &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1, 0}));
}

TEST(KernelsTest, CompareColumnsMixedIntDouble) {
  ColumnVector a = ColumnVector::FromInt64({1, 2});
  ColumnVector b = ColumnVector::FromDouble({1.5, 1.5});
  Mask mask;
  ASSERT_TRUE(CompareColumns(a, CompareOp::kGt, b, &mask).ok());
  EXPECT_EQ(mask, (Mask{0, 1}));
}

TEST(KernelsTest, LikeMask) {
  ColumnVector c =
      ColumnVector::FromString({"promo pack", "standard", "promo deal"});
  Mask mask;
  ASSERT_TRUE(ComputeLikeMask(c, "promo%", &mask).ok());
  EXPECT_EQ(mask, (Mask{1, 0, 1}));
}

TEST(KernelsTest, MaskCombinators) {
  Mask a{1, 1, 0, 0};
  Mask b{1, 0, 1, 0};
  Mask m = a;
  AndMasks(b, &m);
  EXPECT_EQ(m, (Mask{1, 0, 0, 0}));
  m = a;
  OrMasks(b, &m);
  EXPECT_EQ(m, (Mask{1, 1, 1, 0}));
  NotMask(&m);
  EXPECT_EQ(m, (Mask{0, 0, 0, 1}));
}

TEST(KernelsTest, MaskToSelectionAndPopCount) {
  Mask m{0, 1, 1, 0, 1};
  SelectionVector sel = MaskToSelection(m);
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[2], 4u);
  EXPECT_EQ(MaskPopCount(m), 3u);
}

TEST(KernelsTest, ArithmeticIntInt) {
  ColumnVector a = ColumnVector::FromInt64({10, 20});
  ColumnVector b = ColumnVector::FromInt64({3, 4});
  ColumnVector out;
  ASSERT_TRUE(Arithmetic(a, ArithOp::kAdd, b, &out).ok());
  EXPECT_EQ(out.type(), DataType::kInt64);
  EXPECT_EQ(out.i64()[0], 13);
  ASSERT_TRUE(Arithmetic(a, ArithOp::kMul, b, &out).ok());
  EXPECT_EQ(out.i64()[1], 80);
}

TEST(KernelsTest, ArithmeticPromotesToDouble) {
  ColumnVector a = ColumnVector::FromInt64({10});
  ColumnVector b = ColumnVector::FromDouble({4.0});
  ColumnVector out;
  ASSERT_TRUE(Arithmetic(a, ArithOp::kDiv, b, &out).ok());
  EXPECT_EQ(out.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(out.f64()[0], 2.5);
}

TEST(KernelsTest, IntegerDivisionByZeroIsNull) {
  ColumnVector a = ColumnVector::FromInt64({10, 20});
  ColumnVector b = ColumnVector::FromInt64({0, 5});
  ColumnVector out;
  ASSERT_TRUE(Arithmetic(a, ArithOp::kDiv, b, &out).ok());
  EXPECT_TRUE(out.GetValue(0).is_null());
  EXPECT_EQ(out.i64()[1], 4);
}

TEST(KernelsTest, ArithmeticPropagatesNulls) {
  ColumnVector a = ColumnVector::FromInt64({1, 2});
  a.SetNull(0);
  ColumnVector b = ColumnVector::FromInt64({1, 1});
  ColumnVector out;
  ASSERT_TRUE(Arithmetic(a, ArithOp::kAdd, b, &out).ok());
  EXPECT_TRUE(out.GetValue(0).is_null());
  EXPECT_EQ(out.i64()[1], 3);
}

TEST(KernelsTest, ArithmeticConstBroadcast) {
  ColumnVector a = ColumnVector::FromDouble({1.0, 2.0});
  ColumnVector out;
  ASSERT_TRUE(ArithmeticConst(a, ArithOp::kMul, Value::Double(0.5), &out).ok());
  EXPECT_DOUBLE_EQ(out.f64()[1], 1.0);
}

TEST(KernelsTest, HashColumnFreshAndCombined) {
  ColumnVector a = ColumnVector::FromInt64({1, 2, 1});
  std::vector<uint64_t> h;
  ASSERT_TRUE(HashColumn(a, &h).ok());
  EXPECT_EQ(h[0], h[2]);
  EXPECT_NE(h[0], h[1]);

  // Combining with a second column separates rows equal on the first.
  ColumnVector b = ColumnVector::FromString({"x", "x", "y"});
  ASSERT_TRUE(HashColumn(b, &h).ok());
  EXPECT_NE(h[0], h[2]);
}

TEST(KernelsTest, HashIsConsistentAcrossCalls) {
  // The same values must hash identically wherever computed (CPU vs NIC vs
  // storage) — partitioning correctness depends on it.
  ColumnVector a = ColumnVector::FromInt64({42, 42});
  std::vector<uint64_t> h1, h2;
  ASSERT_TRUE(HashColumn(a, &h1).ok());
  ASSERT_TRUE(HashColumn(a, &h2).ok());
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1[0], h1[1]);
}

TEST(KernelsTest, ChunkRowsSplitsAtVectorSize) {
  auto chunks = ChunkRows(kVectorSize * 2 + 10, [](size_t start, size_t count) {
    DataChunk c;
    std::vector<int64_t> vals(count);
    for (size_t i = 0; i < count; ++i) vals[i] = static_cast<int64_t>(start + i);
    c.AddColumn(ColumnVector::FromInt64(std::move(vals)));
    return c;
  });
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].num_rows(), kVectorSize);
  EXPECT_EQ(chunks[2].num_rows(), 10u);
  EXPECT_EQ(chunks[2].column(0).i64()[0],
            static_cast<int64_t>(kVectorSize * 2));
}

}  // namespace
}  // namespace dflow

// The one test suite for src/dflow/encode/ (plus the chunk utilities the
// codecs lean on): byte-stream primitives, targeted per-codec round-trips
// and rejection cases, the ChooseEncoding heuristics, corruption handling,
// and property-style sweeps over PlanGen's random column generator —
// encode→decode must be the identity for every (type, encoding) pair the
// codec accepts, nulls and empty columns included.
//
// (Consolidated from the former tests/encode_test.cc; keep new encoding
// coverage here so the suite stays one ctest target.)

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dflow/common/random.h"
#include "dflow/encode/byte_io.h"
#include "dflow/encode/encoding.h"
#include "dflow/testing/canonical.h"
#include "dflow/testing/plan_gen.h"
#include "dflow/vector/data_chunk.h"

namespace dflow {
namespace {

using testing::FormatValueTagged;
using testing::PlanGen;

TEST(ByteIoTest, RoundtripScalars) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU8(7);
  w.PutU32(123456);
  w.PutI64(-99);
  w.PutDouble(3.25);
  w.PutString("hello");

  ByteReader r(buf);
  uint8_t u8;
  uint32_t u32;
  int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(i64, -99);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIoTest, TruncatedReadIsOutOfRange) {
  std::vector<uint8_t> buf = {1, 2};
  ByteReader r(buf);
  uint64_t v;
  EXPECT_TRUE(r.GetU64(&v).IsOutOfRange());
}

TEST(ByteIoTest, TruncatedStringIsOutOfRange) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(100);  // claims 100 bytes follow
  w.PutU8('x');
  ByteReader r(buf);
  std::string s;
  EXPECT_TRUE(r.GetString(&s).IsOutOfRange());
}

void ExpectRoundtrip(const ColumnVector& col, Encoding enc) {
  auto encoded = EncodeColumn(col, enc);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto decoded = DecodeColumn(encoded.ValueOrDie());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ColumnVector& out = decoded.ValueOrDie();
  ASSERT_EQ(out.size(), col.size());
  ASSERT_EQ(out.type(), col.type());
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(out.GetValue(i).is_null(), col.GetValue(i).is_null()) << i;
    if (!col.GetValue(i).is_null()) {
      EXPECT_EQ(out.GetValue(i).Compare(col.GetValue(i)), 0) << "row " << i;
    }
  }
}

TEST(EncodingTest, PlainRoundtripAllTypes) {
  ExpectRoundtrip(ColumnVector::FromInt32({1, -2, 3}), Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromInt64({1LL << 40, -5, 0}), Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromDouble({1.5, -2.25, 0.0}), Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromString({"a", "", "long string here"}),
                  Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromBool({1, 0, 1}), Encoding::kPlain);
  ExpectRoundtrip(ColumnVector::FromDate32({100, 200}), Encoding::kPlain);
}

TEST(EncodingTest, PlainRoundtripWithNulls) {
  ColumnVector c = ColumnVector::FromInt64({1, 2, 3});
  c.SetNull(1);
  ExpectRoundtrip(c, Encoding::kPlain);

  ColumnVector s = ColumnVector::FromString({"x", "y"});
  s.SetNull(0);
  ExpectRoundtrip(s, Encoding::kPlain);
}

TEST(EncodingTest, RleRoundtrip) {
  ExpectRoundtrip(ColumnVector::FromInt64({5, 5, 5, 7, 7, 1}), Encoding::kRle);
  ExpectRoundtrip(ColumnVector::FromBool({1, 1, 1, 0, 0}), Encoding::kRle);
  ExpectRoundtrip(ColumnVector::FromInt32({9}), Encoding::kRle);
}

TEST(EncodingTest, RleCompressesRuns) {
  std::vector<int64_t> vals(10000, 42);
  ColumnVector c = ColumnVector::FromInt64(std::move(vals));
  auto plain = EncodeColumn(c, Encoding::kPlain).ValueOrDie();
  auto rle = EncodeColumn(c, Encoding::kRle).ValueOrDie();
  EXPECT_LT(rle.ByteSize() * 100, plain.ByteSize());
}

TEST(EncodingTest, RleRejectsDoubles) {
  EXPECT_TRUE(EncodeColumn(ColumnVector::FromDouble({1.0}), Encoding::kRle)
                  .status()
                  .IsInvalidArgument());
}

TEST(EncodingTest, DictionaryRoundtrip) {
  ExpectRoundtrip(
      ColumnVector::FromString({"A", "B", "A", "A", "C", "B"}),
      Encoding::kDictionary);
}

TEST(EncodingTest, DictionaryCompressesLowCardinality) {
  std::vector<std::string> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back(i % 2 ? "RETURN_FLAG_A" : "RETURN_FLAG_B");
  ColumnVector c = ColumnVector::FromString(std::move(vals));
  auto plain = EncodeColumn(c, Encoding::kPlain).ValueOrDie();
  auto dict = EncodeColumn(c, Encoding::kDictionary).ValueOrDie();
  EXPECT_LT(dict.ByteSize() * 3, plain.ByteSize());
}

TEST(EncodingTest, DictionaryRejectsInts) {
  EXPECT_TRUE(
      EncodeColumn(ColumnVector::FromInt64({1}), Encoding::kDictionary)
          .status()
          .IsInvalidArgument());
}

TEST(EncodingTest, ForBitPackRoundtrip) {
  ExpectRoundtrip(ColumnVector::FromInt64({1000, 1001, 1007, 1003}),
                  Encoding::kForBitPack);
  ExpectRoundtrip(ColumnVector::FromInt32({-5, -4, -3}), Encoding::kForBitPack);
  ExpectRoundtrip(ColumnVector::FromInt64({7}), Encoding::kForBitPack);
}

TEST(EncodingTest, ForBitPackCompressesNarrowRanges) {
  std::vector<int64_t> vals;
  Random rng(1);
  for (int i = 0; i < 8192; ++i) {
    vals.push_back(1'000'000 + rng.NextInt64(0, 255));
  }
  ColumnVector c = ColumnVector::FromInt64(std::move(vals));
  auto plain = EncodeColumn(c, Encoding::kPlain).ValueOrDie();
  auto packed = EncodeColumn(c, Encoding::kForBitPack).ValueOrDie();
  // 8 bits instead of 64 -> close to 8x smaller.
  EXPECT_LT(packed.ByteSize() * 6, plain.ByteSize());
}

TEST(EncodingTest, ForBitPackRejectsHugeRange) {
  ColumnVector c =
      ColumnVector::FromInt64({0, (1LL << 60)});
  EXPECT_TRUE(EncodeColumn(c, Encoding::kForBitPack)
                  .status()
                  .IsInvalidArgument());
}

TEST(EncodingTest, ChooseEncodingHeuristics) {
  // Long runs -> RLE.
  std::vector<int64_t> runs;
  for (int i = 0; i < 1000; ++i) runs.push_back(i / 100);
  EXPECT_EQ(ChooseEncoding(ColumnVector::FromInt64(std::move(runs))),
            Encoding::kRle);

  // Narrow range, no runs -> FOR.
  std::vector<int64_t> narrow;
  Random rng(2);
  for (int i = 0; i < 1000; ++i) narrow.push_back(rng.NextInt64(0, 100));
  EXPECT_EQ(ChooseEncoding(ColumnVector::FromInt64(std::move(narrow))),
            Encoding::kForBitPack);

  // Low-cardinality strings -> dictionary.
  std::vector<std::string> flags;
  for (int i = 0; i < 1000; ++i) flags.push_back(i % 3 == 0 ? "A" : "B");
  EXPECT_EQ(ChooseEncoding(ColumnVector::FromString(std::move(flags))),
            Encoding::kDictionary);

  // Doubles -> plain.
  EXPECT_EQ(ChooseEncoding(ColumnVector::FromDouble({1.0, 2.0})),
            Encoding::kPlain);
}

// Property-style sweep: random columns of every int width roundtrip through
// every applicable encoding.
class EncodingPropertyTest : public ::testing::TestWithParam<Encoding> {};

TEST_P(EncodingPropertyTest, RandomIntColumnsRoundtrip) {
  const Encoding enc = GetParam();
  Random rng(static_cast<uint64_t>(enc) + 17);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.NextUint64(3000);
    std::vector<int64_t> vals(n);
    // Mix of runs and noise, bounded range so FOR applies.
    int64_t cur = rng.NextInt64(0, 1000);
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(0.3)) cur = rng.NextInt64(0, 1000);
      vals[i] = cur;
    }
    ColumnVector col = ColumnVector::FromInt64(std::move(vals));
    if (rng.NextBool(0.5)) {
      for (size_t i = 0; i < n; i += 7) col.SetNull(i);
    }
    ExpectRoundtrip(col, enc);
  }
}

INSTANTIATE_TEST_SUITE_P(IntEncodings, EncodingPropertyTest,
                         ::testing::Values(Encoding::kPlain, Encoding::kRle,
                                           Encoding::kForBitPack));

TEST(EncodingTest, RandomStringColumnsRoundtripDictionary) {
  Random rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 1 + rng.NextUint64(2000);
    std::vector<std::string> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(rng.NextString(1 + rng.NextUint64(20)));
    std::vector<std::string> vals(n);
    for (size_t i = 0; i < n; ++i) vals[i] = pool[rng.NextUint64(pool.size())];
    ColumnVector col = ColumnVector::FromString(std::move(vals));
    ExpectRoundtrip(col, Encoding::kDictionary);
    ExpectRoundtrip(col, Encoding::kPlain);
  }
}

TEST(EncodingTest, CorruptRleIsRejected) {
  ColumnVector c = ColumnVector::FromInt64({1, 1, 2});
  EncodedColumn ec = EncodeColumn(c, Encoding::kRle).ValueOrDie();
  ec.data.resize(ec.data.size() - 4);  // truncate
  EXPECT_FALSE(DecodeColumn(ec).ok());
}

TEST(EncodingTest, CorruptDictionaryCodeIsRejected) {
  ColumnVector c = ColumnVector::FromString({"a", "b"});
  EncodedColumn ec = EncodeColumn(c, Encoding::kDictionary).ValueOrDie();
  // Last 4 bytes are the code of row 1; point it beyond the dictionary.
  ec.data[ec.data.size() - 4] = 0xff;
  EXPECT_FALSE(DecodeColumn(ec).ok());
}

// PLAIN and DICTIONARY payloads of a string column are exactly what the
// per-row std::string reference spells out, and decode back to the same
// bytes in every row, NULL slots included (a slot set NULL keeps its bytes).
TEST(EncodingTest, StringArenaRoundTripsMatchPerRowStrings) {
  const std::vector<std::string> values = {
      "flag", "", "a much longer comment string", "flag", "", "x", "flag"};
  ColumnVector col = ColumnVector::FromString(values);
  col.SetNull(5);

  std::vector<uint8_t> header;
  ByteWriter hw(&header);
  hw.PutU8(1);
  for (size_t i = 0; i < values.size(); ++i) hw.PutU8(i == 5 ? 0 : 1);

  std::vector<uint8_t> plain = header;
  ByteWriter pw(&plain);
  for (const std::string& s : values) pw.PutString(s);

  std::vector<uint8_t> dict = header;
  ByteWriter dw(&dict);
  const std::vector<std::string> entries = {
      "flag", "", "a much longer comment string", "x"};
  const std::vector<uint32_t> codes = {0, 1, 2, 0, 1, 3, 0};
  dw.PutU32(static_cast<uint32_t>(entries.size()));
  for (const std::string& s : entries) dw.PutString(s);
  for (uint32_t code : codes) dw.PutU32(code);

  uint64_t ref_bytes = values.size();  // the validity mask
  for (const std::string& s : values) ref_bytes += s.size() + 4;

  for (const auto& [encoding, payload] :
       std::vector<std::pair<Encoding, std::vector<uint8_t>>>{
           {Encoding::kPlain, plain}, {Encoding::kDictionary, dict}}) {
    SCOPED_TRACE(std::string(EncodingToString(encoding)));
    const EncodedColumn encoded = EncodeColumn(col, encoding).ValueOrDie();
    EXPECT_EQ(encoded.data, payload);
    const ColumnVector decoded = DecodeColumn(encoded).ValueOrDie();
    ASSERT_EQ(decoded.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(decoded.strs()[i], values[i]) << "row " << i;
      EXPECT_EQ(decoded.IsValid(i), i != 5) << "row " << i;
    }
    EXPECT_EQ(decoded.ByteSize(), ref_bytes);
    EXPECT_EQ(DecodedByteSize(encoded), ref_bytes);
  }
}

// ------------------------- fuzzer-driven sweeps over every (type, encoding)

const DataType kAllTypes[] = {DataType::kBool,   DataType::kInt32,
                              DataType::kInt64,  DataType::kDouble,
                              DataType::kString, DataType::kDate32};
const Encoding kAllEncodings[] = {Encoding::kPlain, Encoding::kRle,
                                  Encoding::kDictionary,
                                  Encoding::kForBitPack};

void ExpectColumnsEqual(const ColumnVector& a, const ColumnVector& b,
                        const std::string& context) {
  ASSERT_EQ(a.type(), b.type()) << context;
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(FormatValueTagged(a.GetValue(i)), FormatValueTagged(b.GetValue(i)))
        << context << " row " << i;
  }
}

// Round-trips `col` through every encoding that accepts it; at least kPlain
// must.
void RoundTripAllEncodings(const ColumnVector& col,
                           const std::string& context) {
  size_t accepted = 0;
  for (Encoding encoding : kAllEncodings) {
    Result<EncodedColumn> encoded = EncodeColumn(col, encoding);
    if (!encoded.ok()) {
      // Unsupported (type, encoding) pairs must say so crisply, not crash
      // or mis-encode.
      EXPECT_TRUE(encoded.status().IsInvalidArgument())
          << context << " " << EncodingToString(encoding) << ": "
          << encoded.status().message();
      continue;
    }
    ++accepted;
    Result<ColumnVector> decoded = DecodeColumn(encoded.ValueOrDie());
    ASSERT_TRUE(decoded.ok())
        << context << " " << EncodingToString(encoding) << ": "
        << decoded.status().message();
    EXPECT_EQ(DecodedByteSize(encoded.ValueOrDie()),
              decoded.ValueOrDie().ByteSize())
        << context << " " << EncodingToString(encoding);
    ExpectColumnsEqual(col, decoded.ValueOrDie(),
                       context + " via " +
                           std::string(EncodingToString(encoding)));
  }
  EXPECT_GE(accepted, 1u) << context << ": even kPlain rejected the column";
}

TEST(EncodeRoundTripTest, RandomColumnsEveryTypeEveryEncoding) {
  Random rng(0xE27C0DEULL);
  for (DataType type : kAllTypes) {
    for (size_t trial = 0; trial < 8; ++trial) {
      const size_t rows = 1 + rng.NextUint64(3000);
      ColumnVector col = PlanGen::RandomColumn(&rng, type, rows);
      RoundTripAllEncodings(col, std::string(DataTypeToString(type)) +
                                     " rows=" + std::to_string(rows));
    }
  }
}

TEST(EncodeRoundTripTest, NullableColumnsSurviveEveryEncoding) {
  Random rng(0xE27C0DFULL);
  for (DataType type : kAllTypes) {
    for (double null_prob : {0.05, 0.5, 1.0}) {
      ColumnVector col = PlanGen::RandomColumn(&rng, type, 500, null_prob);
      RoundTripAllEncodings(col, std::string(DataTypeToString(type)) +
                                     " null_prob=" +
                                     std::to_string(null_prob));
    }
  }
}

TEST(EncodeRoundTripTest, EmptyAndSingleValueColumns) {
  Random rng(0x51C0DEULL);
  for (DataType type : kAllTypes) {
    ColumnVector empty(type);
    RoundTripAllEncodings(empty,
                          std::string(DataTypeToString(type)) + " empty");
    ColumnVector one = PlanGen::RandomColumn(&rng, type, 1);
    RoundTripAllEncodings(one,
                          std::string(DataTypeToString(type)) + " single");
  }
}

TEST(EncodeRoundTripTest, ChooseEncodingAlwaysRoundTrips) {
  Random rng(0xC0FFEEULL);
  for (DataType type : kAllTypes) {
    for (size_t trial = 0; trial < 4; ++trial) {
      ColumnVector col = PlanGen::RandomColumn(&rng, type, 800);
      const Encoding chosen = ChooseEncoding(col);
      Result<EncodedColumn> encoded = EncodeColumn(col, chosen);
      ASSERT_TRUE(encoded.ok())
          << "ChooseEncoding picked an encoding that rejects the column: "
          << EncodingToString(chosen);
      Result<ColumnVector> decoded = DecodeColumn(encoded.ValueOrDie());
      ASSERT_TRUE(decoded.ok());
      ExpectColumnsEqual(col, decoded.ValueOrDie(),
                         std::string("chosen ") +
                             std::string(EncodingToString(chosen)));
    }
  }
}

// A column can carry a validity mask with no NULL in it (a slice of a
// nullable column). Its payload has the validity header set, but the
// decoded column has no mask, so DecodedByteSize must not count one.
TEST(EncodeRoundTripTest, DecodedByteSizeCountsAMaskOnlyWithANull) {
  for (DataType type : kAllTypes) {
    SCOPED_TRACE(DataTypeToString(type));
    Random rng(0xD5ULL);
    ColumnVector col = PlanGen::RandomColumn(&rng, type, 64);
    col.SetNull(63);
    ColumnVector all_valid = col.TakeRange(0, 32);
    ASSERT_TRUE(all_valid.HasNulls());
    for (Encoding encoding : kAllEncodings) {
      Result<EncodedColumn> encoded = EncodeColumn(all_valid, encoding);
      if (!encoded.ok()) continue;
      const ColumnVector decoded =
          DecodeColumn(encoded.ValueOrDie()).ValueOrDie();
      EXPECT_FALSE(decoded.HasNulls());
      EXPECT_EQ(DecodedByteSize(encoded.ValueOrDie()), decoded.ByteSize())
          << EncodingToString(encoding);
    }
  }
}

// On a payload DecodeColumn rejects, DecodedByteSize still returns
// (counting what it could read) instead of reading out of bounds.
TEST(EncodeRoundTripTest, DecodedByteSizeOfTruncatedPayloadIsBounded) {
  Random rng(0xD6ULL);
  for (DataType type : kAllTypes) {
    ColumnVector col = PlanGen::RandomColumn(&rng, type, 300, 0.2);
    for (Encoding encoding : kAllEncodings) {
      Result<EncodedColumn> encoded = EncodeColumn(col, encoding);
      if (!encoded.ok()) continue;
      const uint64_t full = DecodedByteSize(encoded.ValueOrDie());
      for (size_t keep : {size_t{0}, size_t{1}, size_t{5},
                          encoded.ValueOrDie().data.size() / 2}) {
        EncodedColumn cut = encoded.ValueOrDie();
        cut.data.resize(std::min(keep, cut.data.size()));
        EXPECT_FALSE(DecodeColumn(cut).ok());
        EXPECT_LE(DecodedByteSize(cut), full)
            << DataTypeToString(type) << " " << EncodingToString(encoding)
            << " keep=" << keep;
      }
    }
  }
}

// ------------------------------------------------- chunk utility properties

DataChunk RandomChunk(Random* rng, size_t rows) {
  std::vector<ColumnVector> cols;
  cols.push_back(PlanGen::RandomColumn(rng, DataType::kInt64, rows));
  cols.push_back(PlanGen::RandomColumn(rng, DataType::kString, rows, 0.1));
  cols.push_back(PlanGen::RandomColumn(rng, DataType::kDouble, rows));
  return DataChunk(std::move(cols));
}

TEST(ChunkPropertyTest, GatherKeepsSelectedRowsInOrder) {
  Random rng(0x6A74E2ULL);
  DataChunk chunk = RandomChunk(&rng, 300);
  SelectionVector sel;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    if (rng.NextBool(0.3)) sel.Append(static_cast<uint32_t>(r));
  }
  DataChunk gathered = chunk.Gather(sel);
  ASSERT_EQ(gathered.num_rows(), sel.size());
  ASSERT_TRUE(gathered.IsWellFormed());
  for (size_t i = 0; i < sel.size(); ++i) {
    for (size_t c = 0; c < chunk.num_columns(); ++c) {
      EXPECT_EQ(FormatValueTagged(gathered.GetValue(i, c)),
                FormatValueTagged(chunk.GetValue(sel.indices()[i], c)));
    }
  }
}

TEST(ChunkPropertyTest, SelectColumnsReordersWithoutCopyingRows) {
  Random rng(0x5E1EC7ULL);
  DataChunk chunk = RandomChunk(&rng, 120);
  DataChunk swapped = chunk.SelectColumns({2, 0});
  ASSERT_EQ(swapped.num_columns(), 2u);
  ASSERT_EQ(swapped.num_rows(), chunk.num_rows());
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    EXPECT_EQ(FormatValueTagged(swapped.GetValue(r, 0)),
              FormatValueTagged(chunk.GetValue(r, 2)));
    EXPECT_EQ(FormatValueTagged(swapped.GetValue(r, 1)),
              FormatValueTagged(chunk.GetValue(r, 0)));
  }
}

TEST(ChunkPropertyTest, ChecksumIsContentNotIdentity) {
  Random rng(0xC4EC50ULL);
  DataChunk chunk = RandomChunk(&rng, 256);
  DataChunk copy = chunk;  // same content, different object
  EXPECT_EQ(ChecksumChunk(chunk), ChecksumChunk(copy));

  // Rebuilding the same rows from scratch must also hash identically.
  SelectionVector all;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    all.Append(static_cast<uint32_t>(r));
  }
  EXPECT_EQ(ChecksumChunk(chunk), ChecksumChunk(chunk.Gather(all)));

  // Any single-row change must show up (this is what the unreliable-fabric
  // receiver relies on to catch corruption).
  SelectionVector rest;
  for (size_t r = 1; r < chunk.num_rows(); ++r) {
    rest.Append(static_cast<uint32_t>(r));
  }
  EXPECT_NE(ChecksumChunk(chunk), ChecksumChunk(chunk.Gather(rest)));
}

}  // namespace
}  // namespace dflow

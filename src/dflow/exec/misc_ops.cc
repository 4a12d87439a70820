#include "dflow/exec/misc_ops.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "dflow/common/logging.h"

namespace dflow {

CountOperator::CountOperator()
    : schema_(Schema({{"count", DataType::kInt64}})) {}

OperatorTraits CountOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kCount;
  t.streaming = true;
  t.stateless = false;
  t.bounded_state = true;  // 8 bytes
  t.reduction_hint = 0.0;  // discards everything until Finish
  return t;
}

Status CountOperator::Push(DataChunk input, std::vector<DataChunk>* out) {
  (void)out;
  RecordIn(input);
  count_ += static_cast<int64_t>(input.num_rows());
  return Status::OK();
}

Status CountOperator::Finish(std::vector<DataChunk>* out) {
  DataChunk chunk;
  chunk.AddColumn(ColumnVector::FromInt64({count_}));
  RecordOut(chunk);
  out->push_back(std::move(chunk));
  return Status::OK();
}

LimitOperator::LimitOperator(Schema schema, uint64_t limit)
    : schema_(std::move(schema)), limit_(limit) {}

OperatorTraits LimitOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kMemcpy;
  t.streaming = true;
  t.stateless = false;
  t.bounded_state = true;  // a single counter
  t.reduction_hint = 0.5;
  return t;
}

Status LimitOperator::Push(DataChunk input, std::vector<DataChunk>* out) {
  RecordIn(input);
  if (seen_ >= limit_) return Status::OK();
  const uint64_t take =
      std::min<uint64_t>(input.num_rows(), limit_ - seen_);
  seen_ += take;
  if (take == input.num_rows()) {
    out->push_back(std::move(input));
  } else {
    SelectionVector sel;
    for (uint64_t i = 0; i < take; ++i) sel.Append(static_cast<uint32_t>(i));
    out->push_back(input.Gather(sel));
  }
  RecordOut(out->back());
  return Status::OK();
}

Result<OperatorPtr> SortOperator::Make(Schema schema,
                                       const std::string& sort_col,
                                       bool descending, uint64_t limit) {
  DFLOW_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(sort_col));
  return OperatorPtr(new SortOperator(std::move(schema), idx, descending,
                                      limit));
}

OperatorTraits SortOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kSort;
  t.streaming = false;
  t.stateless = false;
  t.bounded_state = false;
  t.reduction_hint = limit_ > 0 ? 0.1 : 1.0;
  return t;
}

Status SortOperator::Push(DataChunk input, std::vector<DataChunk>* out) {
  (void)out;
  RecordIn(input);
  for (size_t r = 0; r < input.num_rows(); ++r) {
    buffer_.AppendRowFrom(input, r);
  }
  return Status::OK();
}

namespace {

template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Stable-sorts row ids by `key`, given `cmp`, a three-way comparison of two
// valid slots. NULL equals NULL and is smaller than any value, as in
// Value::Compare.
template <typename Cmp>
void StableSortRows(const ColumnVector& key, bool descending,
                    std::vector<uint32_t>* order, Cmp cmp) {
  const bool has_nulls = key.HasNulls();
  auto three_way = [&](uint32_t a, uint32_t b) {
    if (has_nulls) {
      const bool va = key.IsValid(a);
      const bool vb = key.IsValid(b);
      if (!va || !vb) return static_cast<int>(va) - static_cast<int>(vb);
    }
    return cmp(a, b);
  };
  std::vector<uint32_t>& rows = *order;
  if (descending) {
    std::stable_sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
      return three_way(a, b) > 0;
    });
  } else {
    std::stable_sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
      return three_way(a, b) < 0;
    });
  }
}

// Sorts on the key's typed slots with exactly Value::Compare's answer on the
// boxed values: bools compare as 0/1, int32 and date32 as int64, doubles by
// `<` and `>`, strings by `compare`. Same answers, so the same permutation.
void SortByKey(const ColumnVector& key, bool descending,
               std::vector<uint32_t>* order) {
  switch (key.type()) {
    case DataType::kBool: {
      const std::vector<uint8_t>& v = key.bool_data();
      StableSortRows(key, descending, order, [&](uint32_t a, uint32_t b) {
        return ThreeWay<int>(v[a] != 0, v[b] != 0);
      });
      return;
    }
    case DataType::kInt32:
    case DataType::kDate32: {
      const std::vector<int32_t>& v = key.i32();
      StableSortRows(key, descending, order, [&](uint32_t a, uint32_t b) {
        return ThreeWay<int64_t>(v[a], v[b]);
      });
      return;
    }
    case DataType::kInt64: {
      const std::vector<int64_t>& v = key.i64();
      StableSortRows(key, descending, order, [&](uint32_t a, uint32_t b) {
        return ThreeWay(v[a], v[b]);
      });
      return;
    }
    case DataType::kDouble: {
      const std::vector<double>& v = key.f64();
      StableSortRows(key, descending, order, [&](uint32_t a, uint32_t b) {
        return ThreeWay(v[a], v[b]);
      });
      return;
    }
    case DataType::kString: {
      const std::vector<std::string>& v = key.strs();
      StableSortRows(key, descending, order, [&](uint32_t a, uint32_t b) {
        return v[a].compare(v[b]);
      });
      return;
    }
  }
}

}  // namespace

Status SortOperator::Finish(std::vector<DataChunk>* out) {
  std::vector<uint32_t> order(buffer_.num_rows());
  std::iota(order.begin(), order.end(), 0);
  SortByKey(buffer_.column(sort_col_), descending_, &order);
  uint64_t n = order.size();
  if (limit_ > 0) n = std::min<uint64_t>(n, limit_);
  for (uint64_t start = 0; start < n; start += kVectorSize) {
    const uint64_t count = std::min<uint64_t>(kVectorSize, n - start);
    SelectionVector sel(std::vector<uint32_t>(
        order.begin() + start, order.begin() + start + count));
    out->push_back(buffer_.Gather(sel));
    RecordOut(out->back());
  }
  return Status::OK();
}

OperatorTraits DecodeOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kDecode;
  t.streaming = true;
  t.stateless = true;
  t.reduction_hint = 1.0;  // wire grows, data identical
  return t;
}

Status DecodeOperator::Push(DataChunk input, std::vector<DataChunk>* out) {
  RecordPassThrough(input);
  out->push_back(std::move(input));
  return Status::OK();
}

OperatorTraits EncodeOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kEncode;
  t.streaming = true;
  t.stateless = true;
  t.reduction_hint = 0.6;
  return t;
}

Status EncodeOperator::Push(DataChunk input, std::vector<DataChunk>* out) {
  RecordPassThrough(input);
  out->push_back(std::move(input));
  return Status::OK();
}

uint64_t EncodeOperator::OutputWireBytes(const DataChunk& output) const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : output.columns()) {
    const Encoding enc = ChooseEncoding(col);
    Result<EncodedColumn> encoded = EncodeColumn(col, enc);
    bytes += encoded.ok() ? encoded.ValueOrDie().ByteSize() : col.ByteSize();
  }
  return bytes;
}

}  // namespace dflow

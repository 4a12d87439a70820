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

Status SortOperator::Finish(std::vector<DataChunk>* out) {
  std::vector<uint32_t> order(buffer_.num_rows());
  std::iota(order.begin(), order.end(), 0);
  const ColumnVector& key = buffer_.column(sort_col_);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     const int cmp = key.GetValue(a).Compare(key.GetValue(b));
                     return descending_ ? cmp > 0 : cmp < 0;
                   });
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
  RecordIn(input);
  out->push_back(std::move(input));
  RecordOut(out->back());
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
  RecordIn(input);
  out->push_back(std::move(input));
  RecordOut(out->back());
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

#include "dflow/vector/data_chunk.h"

#include <sstream>

#include "dflow/common/hash.h"
#include "dflow/common/logging.h"

namespace dflow {

DataChunk DataChunk::EmptyFromSchema(const Schema& schema) {
  std::vector<ColumnVector> cols;
  cols.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    cols.emplace_back(f.type);
  }
  return DataChunk(std::move(cols));
}

void DataChunk::AppendRowFrom(const DataChunk& other, size_t row) {
  DFLOW_CHECK_EQ(columns_.size(), other.columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendFrom(other.columns_[c], row);
  }
}

void DataChunk::AppendRange(const DataChunk& other, size_t start,
                            size_t count) {
  DFLOW_CHECK_EQ(columns_.size(), other.columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRange(other.columns_[c], start, count);
  }
}

DataChunk DataChunk::Gather(const SelectionVector& sel) const {
  std::vector<ColumnVector> cols;
  cols.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    cols.push_back(col.Gather(sel));
  }
  return DataChunk(std::move(cols));
}

DataChunk DataChunk::SelectColumns(const std::vector<size_t>& indices) const {
  std::vector<ColumnVector> cols;
  cols.reserve(indices.size());
  for (size_t idx : indices) {
    DFLOW_CHECK_LT(idx, columns_.size());
    cols.push_back(columns_[idx]);
  }
  return DataChunk(std::move(cols));
}

uint64_t DataChunk::ByteSize() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) {
    bytes += col.ByteSize();
  }
  return bytes;
}

bool DataChunk::IsWellFormed() const {
  for (const ColumnVector& col : columns_) {
    if (col.size() != num_rows()) return false;
  }
  return true;
}

std::string DataChunk::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << "DataChunk(" << num_rows() << " rows, " << num_columns() << " cols)\n";
  const size_t limit = std::min(max_rows, num_rows());
  for (size_t r = 0; r < limit; ++r) {
    os << "  [";
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) os << ", ";
      os << GetValue(r, c).ToString();
    }
    os << "]\n";
  }
  if (limit < num_rows()) os << "  ... (" << (num_rows() - limit) << " more)\n";
  return os.str();
}

uint64_t ChecksumChunk(const DataChunk& chunk) {
  uint64_t h = HashInt64(chunk.num_columns());
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const ColumnVector& col = chunk.column(c);
    h = HashCombine(h, static_cast<uint64_t>(col.type()));
    h = HashCombine(h, col.size());
    switch (col.type()) {
      case DataType::kBool:
        h = HashCombine(
            h, HashBytes(col.bool_data().data(), col.bool_data().size()));
        break;
      case DataType::kInt32:
      case DataType::kDate32:
        h = HashCombine(h, HashBytes(col.i32().data(),
                                     col.i32().size() * sizeof(int32_t)));
        break;
      case DataType::kInt64:
        h = HashCombine(h, HashBytes(col.i64().data(),
                                     col.i64().size() * sizeof(int64_t)));
        break;
      case DataType::kDouble:
        h = HashCombine(h, HashBytes(col.f64().data(),
                                     col.f64().size() * sizeof(double)));
        break;
      case DataType::kString: {
        const StringArena& strs = col.strs();
        for (size_t i = 0; i < strs.size(); ++i) {
          h = HashCombine(h, HashString(strs[i]));
        }
        break;
      }
    }
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsValid(i)) h = HashCombine(h, i);
    }
  }
  return h;
}

}  // namespace dflow

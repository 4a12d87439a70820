#include "dflow/storage/table.h"

#include "dflow/common/logging.h"

namespace dflow {

RowGroup::RowGroup(uint32_t num_rows, std::vector<EncodedColumn> columns,
                   std::vector<ZoneMap> zones)
    : num_rows_(num_rows),
      columns_(std::move(columns)),
      zones_(std::move(zones)) {
  sizes_.reserve(columns_.size());
  for (const EncodedColumn& col : columns_) {
    sizes_.push_back(ColumnSizes{col.ByteSize(), DecodedByteSize(col)});
  }
}

Result<ColumnVector> RowGroup::DecodeColumnAt(size_t i) const {
  if (i >= columns_.size()) {
    return Status::OutOfRange("column index out of range");
  }
  return DecodeColumn(columns_[i]);
}

Result<std::vector<DataChunk>> RowGroup::DecodeChunks(
    const std::vector<size_t>& indices) const {
  std::vector<ColumnVector> full_columns;
  full_columns.reserve(indices.size());
  for (size_t idx : indices) {
    DFLOW_ASSIGN_OR_RETURN(ColumnVector col, DecodeColumnAt(idx));
    full_columns.push_back(std::move(col));
  }
  std::vector<DataChunk> out;
  const size_t n = num_rows_;
  for (size_t start = 0; start < n; start += kVectorSize) {
    const size_t count = std::min(kVectorSize, n - start);
    std::vector<ColumnVector> cols;
    cols.reserve(full_columns.size());
    for (ColumnVector& col : full_columns) {
      cols.push_back(col.TakeRange(start, count));
    }
    out.emplace_back(std::move(cols));
  }
  return out;
}

uint64_t RowGroup::EncodedBytes(const std::vector<size_t>& indices) const {
  uint64_t bytes = 0;
  for (size_t idx : indices) {
    DFLOW_CHECK_LT(idx, sizes_.size());
    bytes += sizes_[idx].encoded;
  }
  return bytes;
}

uint64_t RowGroup::EncodedBytes() const {
  uint64_t bytes = 0;
  for (const ColumnSizes& size : sizes_) bytes += size.encoded;
  return bytes;
}

uint64_t RowGroup::DecodedBytes(const std::vector<size_t>& indices) const {
  uint64_t bytes = 0;
  for (size_t idx : indices) {
    DFLOW_CHECK_LT(idx, sizes_.size());
    bytes += sizes_[idx].decoded;
  }
  return bytes;
}

Table::Table(std::string name, Schema schema, std::vector<RowGroup> row_groups)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      row_groups_(std::move(row_groups)) {
  table_zones_.resize(schema_.num_fields());
  for (const RowGroup& rg : row_groups_) {
    num_rows_ += rg.num_rows();
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      table_zones_[c].Merge(rg.zone_map(c));
    }
  }
}

uint64_t Table::EncodedBytes() const {
  uint64_t bytes = 0;
  for (const RowGroup& rg : row_groups_) {
    bytes += rg.EncodedBytes();
  }
  return bytes;
}

Result<std::vector<DataChunk>> Table::ToChunks() const {
  std::vector<size_t> all(schema_.num_fields());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<DataChunk> out;
  for (const RowGroup& rg : row_groups_) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> chunks,
                           rg.DecodeChunks(all));
    for (DataChunk& chunk : chunks) out.push_back(std::move(chunk));
  }
  return out;
}

TableBuilder::TableBuilder(std::string name, Schema schema,
                           size_t row_group_size)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      row_group_size_(row_group_size),
      pending_(DataChunk::EmptyFromSchema(schema_)) {
  DFLOW_CHECK_GT(row_group_size_, 0u);
}

Status TableBuilder::Append(const DataChunk& chunk) {
  if (chunk.num_columns() != schema_.num_fields()) {
    return Status::InvalidArgument("chunk arity does not match schema");
  }
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    if (chunk.column(c).type() != schema_.field(c).type) {
      return Status::InvalidArgument(
          "chunk column type mismatch at column " + std::to_string(c));
    }
  }
  if (!chunk.IsWellFormed()) {
    return Status::InvalidArgument("chunk columns have unequal lengths");
  }
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    pending_.AppendRowFrom(chunk, r);
    if (pending_.num_rows() >= row_group_size_) {
      DFLOW_RETURN_NOT_OK(FlushRowGroup());
    }
  }
  return Status::OK();
}

Status TableBuilder::FlushRowGroup() {
  if (pending_.num_rows() == 0) return Status::OK();
  std::vector<EncodedColumn> encoded;
  std::vector<ZoneMap> zones;
  encoded.reserve(pending_.num_columns());
  zones.reserve(pending_.num_columns());
  for (size_t c = 0; c < pending_.num_columns(); ++c) {
    const ColumnVector& col = pending_.column(c);
    const Encoding enc = ChooseEncoding(col);
    DFLOW_ASSIGN_OR_RETURN(EncodedColumn ec, EncodeColumn(col, enc));
    encoded.push_back(std::move(ec));
    zones.push_back(ZoneMap::Compute(col));
  }
  row_groups_.emplace_back(static_cast<uint32_t>(pending_.num_rows()),
                           std::move(encoded), std::move(zones));
  pending_ = DataChunk::EmptyFromSchema(schema_);
  return Status::OK();
}

Result<Table> TableBuilder::Finish() {
  DFLOW_RETURN_NOT_OK(FlushRowGroup());
  return Table(std::move(name_), std::move(schema_), std::move(row_groups_));
}

}  // namespace dflow

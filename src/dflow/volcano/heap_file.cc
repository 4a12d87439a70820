#include "dflow/volcano/heap_file.h"

namespace dflow::volcano {

bool HeapPage::TryAppend(const Schema& schema, const Row& row) {
  const uint64_t row_bytes = SerializedRowBytes(schema, row);
  if (num_rows_ > 0 && bytes_.size() + row_bytes > kPageBytes) {
    return false;
  }
  ByteWriter w(&bytes_);
  SerializeRow(schema, row, &w);
  ++num_rows_;
  return true;
}

Status HeapPage::ReadRows(const Schema& schema, DecodedPage* rows) const {
  rows->width_ = schema.num_fields();
  rows->num_rows_ = 0;
  rows->values_.clear();
  rows->values_.reserve(num_rows_ * rows->width_);
  ByteReader r(bytes_);
  for (size_t i = 0; i < num_rows_; ++i) {
    DFLOW_RETURN_NOT_OK(AppendDeserializedRow(schema, &r, &rows->values_));
    ++rows->num_rows_;
  }
  return Status::OK();
}

Result<HeapFile> HeapFile::FromTable(const Table& table) {
  HeapFile file;
  file.name_ = table.name();
  file.schema_ = table.schema();
  DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> chunks, table.ToChunks());
  HeapPage current;
  for (const DataChunk& chunk : chunks) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      Row row;
      row.reserve(chunk.num_columns());
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        row.push_back(chunk.GetValue(r, c));
      }
      if (!current.TryAppend(file.schema_, row)) {
        file.pages_.push_back(std::move(current));
        current = HeapPage();
        current.TryAppend(file.schema_, row);
      }
      ++file.num_rows_;
    }
  }
  if (current.num_rows() > 0) {
    file.pages_.push_back(std::move(current));
  }
  return file;
}

uint64_t HeapFile::total_bytes() const {
  uint64_t bytes = 0;
  for (const HeapPage& p : pages_) {
    bytes += p.byte_size();
  }
  return bytes;
}

}  // namespace dflow::volcano

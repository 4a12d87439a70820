#ifndef DFLOW_VECTOR_DATA_CHUNK_H_
#define DFLOW_VECTOR_DATA_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dflow/types/schema.h"
#include "dflow/vector/column_vector.h"

namespace dflow {

/// Number of tuples in a full processing batch. Everything flowing between
/// operators, over links, and through accelerators is chopped into chunks of
/// at most this many rows.
inline constexpr size_t kVectorSize = 2048;

/// A horizontal batch of rows stored column-wise: the unit of data flow.
class DataChunk {
 public:
  DataChunk() = default;
  explicit DataChunk(std::vector<ColumnVector> columns)
      : columns_(std::move(columns)) {}

  /// An empty chunk with one empty column per schema field.
  static DataChunk EmptyFromSchema(const Schema& schema);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  bool empty() const { return num_rows() == 0; }

  ColumnVector& column(size_t i) { return columns_[i]; }
  const ColumnVector& column(size_t i) const { return columns_[i]; }
  std::vector<ColumnVector>& columns() { return columns_; }
  const std::vector<ColumnVector>& columns() const { return columns_; }

  void AddColumn(ColumnVector col) { columns_.push_back(std::move(col)); }

  Value GetValue(size_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }

  /// Appends row `row` of `other` to this chunk (columns must line up).
  void AppendRowFrom(const DataChunk& other, size_t row);

  /// Appends rows [start, start + count) of `other` column by column; the
  /// result equals AppendRowFrom on each of those rows in order.
  void AppendRange(const DataChunk& other, size_t start, size_t count);
  void Append(const DataChunk& other) {
    AppendRange(other, 0, other.num_rows());
  }

  /// New chunk with only the selected rows (all columns gathered).
  DataChunk Gather(const SelectionVector& sel) const;

  /// New chunk with only the given columns, in the given order.
  DataChunk SelectColumns(const std::vector<size_t>& indices) const;

  /// Wire size: sum of column byte sizes.
  uint64_t ByteSize() const;

  /// Checks all columns have equal length; used by tests and debug paths.
  bool IsWellFormed() const;

  std::string ToString(size_t max_rows = 10) const;

 private:
  std::vector<ColumnVector> columns_;
};

/// Content checksum over every column's data and validity, independent of
/// object identity. Computed at the sender and verified at the receiver by
/// the unreliable-fabric recovery layer — the same hash everywhere, like the
/// partitioning hash (see common/hash.h).
uint64_t ChecksumChunk(const DataChunk& chunk);

/// Splits `rows` rows worth of columns into kVectorSize-sized chunks.
/// `make_chunk(start, count)` must return the chunk covering that row range.
template <typename MakeChunkFn>
std::vector<DataChunk> ChunkRows(size_t rows, MakeChunkFn make_chunk) {
  std::vector<DataChunk> out;
  for (size_t start = 0; start < rows; start += kVectorSize) {
    const size_t count = std::min(kVectorSize, rows - start);
    out.push_back(make_chunk(start, count));
  }
  return out;
}

}  // namespace dflow

#endif  // DFLOW_VECTOR_DATA_CHUNK_H_

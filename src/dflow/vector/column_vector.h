#ifndef DFLOW_VECTOR_COLUMN_VECTOR_H_
#define DFLOW_VECTOR_COLUMN_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dflow/common/logging.h"
#include "dflow/types/data_type.h"
#include "dflow/types/value.h"

namespace dflow {

/// Indices of rows selected out of a chunk; the standard vectorized-filter
/// representation (DuckDB/Velox style).
class SelectionVector {
 public:
  SelectionVector() = default;
  explicit SelectionVector(std::vector<uint32_t> indices)
      : indices_(std::move(indices)) {}

  size_t size() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  uint32_t operator[](size_t i) const { return indices_[i]; }
  void Append(uint32_t idx) { indices_.push_back(idx); }
  void Clear() { indices_.clear(); }
  const std::vector<uint32_t>& indices() const { return indices_; }

 private:
  std::vector<uint32_t> indices_;
};

/// Storage of a string column: every row's bytes back to back in one byte
/// arena, plus n + 1 offsets with offsets[0] = 0, so row i is the byte range
/// [offsets[i], offsets[i + 1]). Offsets are 32-bit, like the wire's 4-byte
/// length prefix; an arena that would pass 4 GiB fails a DFLOW_CHECK. An
/// empty arena may hold no offsets at all (until its first row), so making,
/// clearing or moving from one never allocates.
class StringArena {
 public:
  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Row i; valid until the next append, reserve or clear.
  std::string_view operator[](size_t i) const {
    return std::string_view(bytes_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  /// Appends one row; `s` must not view this arena.
  void Append(std::string_view s) {
    CheckRoom(s.size());
    if (offsets_.empty()) offsets_.push_back(0);
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  }

  /// Appends `count` rows, row i holding the bytes of `view_at(i)`: the
  /// arena grows once, then each row is one copy. `view_at` is called twice
  /// per row and must not view this arena.
  template <typename ViewAt>
  void AppendViews(size_t count, ViewAt view_at) {
    size_t total = 0;
    for (size_t i = 0; i < count; ++i) total += view_at(i).size();
    CheckRoom(total);
    if (count == 0) return;
    if (offsets_.empty()) offsets_.push_back(0);
    size_t end = bytes_.size();
    const size_t first = offsets_.size();
    bytes_.resize(end + total);
    offsets_.resize(first + count);
    for (size_t i = 0; i < count; ++i) {
      const std::string_view s = view_at(i);
      std::copy(s.begin(), s.end(), bytes_.begin() + end);
      end += s.size();
      offsets_[first + i] = static_cast<uint32_t>(end);
    }
  }

  /// Appends rows [start, start + count) of `other`: one copy of their
  /// bytes, and their offsets rebased onto this arena.
  void AppendRange(const StringArena& other, size_t start, size_t count);

  /// Named like the std::vector storage of the other column types, so a
  /// std::visit over ColumnVector's storage treats every kind alike.
  void emplace_back() { Append({}); }
  void reserve(size_t rows, size_t bytes = 0);
  void clear() {
    bytes_.clear();
    offsets_.clear();
  }

  /// Bytes of all rows, NULL slots included.
  size_t num_bytes() const { return bytes_.size(); }

 private:
  void CheckRoom(size_t more) const {
    DFLOW_CHECK_LE(more, std::numeric_limits<uint32_t>::max() - bytes_.size())
        << "string column exceeds 4 GiB of bytes";
  }

  std::vector<char> bytes_;
  std::vector<uint32_t> offsets_;  // empty, or size() + 1 entries
};

/// A typed column of values with optional null tracking.
///
/// Storage is chosen by physical type:
///   kBool            -> std::vector<uint8_t>
///   kInt32, kDate32  -> std::vector<int32_t>
///   kInt64           -> std::vector<int64_t>
///   kDouble          -> std::vector<double>
///   kString          -> StringArena (one byte arena plus offsets)
///
/// Validity is a byte-per-row mask, allocated lazily on the first null
/// (columns with no nulls pay nothing). A NULL slot keeps whatever bytes it
/// held before SetNull. ByteSize() reports the wire size of the column — the
/// quantity every data-movement experiment accounts in — in O(1).
class ColumnVector {
 public:
  ColumnVector() : type_(DataType::kInt64) { InitStorage(); }
  explicit ColumnVector(DataType type) : type_(type) { InitStorage(); }

  ColumnVector(const ColumnVector&) = default;
  ColumnVector& operator=(const ColumnVector&) = default;
  ColumnVector(ColumnVector&&) = default;
  ColumnVector& operator=(ColumnVector&&) = default;

  /// Convenience factories for tests and generators.
  static ColumnVector FromInt32(std::vector<int32_t> values);
  static ColumnVector FromInt64(std::vector<int64_t> values);
  static ColumnVector FromDouble(std::vector<double> values);
  static ColumnVector FromString(const std::vector<std::string>& values);
  static ColumnVector FromBool(std::vector<uint8_t> values);
  static ColumnVector FromDate32(std::vector<int32_t> days);

  DataType type() const { return type_; }
  size_t size() const;

  /// Typed storage accessors. Calling the wrong one aborts.
  std::vector<uint8_t>& bool_data() { return std::get<std::vector<uint8_t>>(data_); }
  const std::vector<uint8_t>& bool_data() const {
    return std::get<std::vector<uint8_t>>(data_);
  }
  std::vector<int32_t>& i32() { return std::get<std::vector<int32_t>>(data_); }
  const std::vector<int32_t>& i32() const {
    return std::get<std::vector<int32_t>>(data_);
  }
  std::vector<int64_t>& i64() { return std::get<std::vector<int64_t>>(data_); }
  const std::vector<int64_t>& i64() const {
    return std::get<std::vector<int64_t>>(data_);
  }
  std::vector<double>& f64() { return std::get<std::vector<double>>(data_); }
  const std::vector<double>& f64() const {
    return std::get<std::vector<double>>(data_);
  }
  StringArena& strs() { return std::get<StringArena>(data_); }
  const StringArena& strs() const { return std::get<StringArena>(data_); }

  /// Null handling. The mask is lazily allocated: HasNulls() is false until
  /// the first SetNull/AppendNull.
  bool HasNulls() const { return !validity_.empty(); }
  bool IsValid(size_t i) const { return validity_.empty() || validity_[i] != 0; }
  void SetNull(size_t i);

  /// Generic element access (slower than typed paths; used at boundaries).
  Value GetValue(size_t i) const;
  void AppendValue(const Value& v);
  void AppendNull();

  /// Appends `other[index]` to this column. Types must match. A NULL slot
  /// is appended as AppendNull does: an empty or zero placeholder.
  void AppendFrom(const ColumnVector& other, size_t index);

  /// Appends rows [start, start + count) of `other` in bulk (for strings,
  /// one byte copy plus rebased offsets), leaving exactly what AppendFrom on
  /// each of those rows in order would: the same values, placeholders and
  /// validity mask.
  void AppendRange(const ColumnVector& other, size_t start, size_t count);
  void Append(const ColumnVector& other) { AppendRange(other, 0, other.size()); }

  void Reserve(size_t n);
  void Clear();

  /// New column containing the selected rows, in selection order.
  ColumnVector Gather(const SelectionVector& sel) const;

  /// New column with rows [start, start + count), copied as one block (for
  /// strings, one byte range with rebased offsets); this column is left as
  /// it was. The result carries a validity mask exactly when this column
  /// has one, so its ByteSize() equals that of a Gather of the same rows.
  ColumnVector TakeRange(size_t start, size_t count) const;

  /// Wire size in bytes, in O(1): fixed width * rows, or the string arena's
  /// bytes plus a 4-byte length per row, plus the validity mask if present.
  uint64_t ByteSize() const;

 private:
  void InitStorage();
  void EnsureValidity();

  DataType type_;
  std::variant<std::vector<uint8_t>, std::vector<int32_t>,
               std::vector<int64_t>, std::vector<double>, StringArena>
      data_;
  std::vector<uint8_t> validity_;  // empty == all valid
};

}  // namespace dflow

#endif  // DFLOW_VECTOR_COLUMN_VECTOR_H_

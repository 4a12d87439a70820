#include "dflow/vector/column_vector.h"

#include <algorithm>
#include <type_traits>

#include "dflow/common/logging.h"

namespace dflow {

void StringArena::AppendRange(const StringArena& other, size_t start,
                              size_t count) {
  DFLOW_CHECK_LE(start + count, other.size());
  if (count == 0) return;
  const uint32_t from = other.offsets_[start];
  CheckRoom(other.offsets_[start + count] - from);
  if (offsets_.empty()) offsets_.push_back(0);
  const uint32_t base = static_cast<uint32_t>(bytes_.size());
  bytes_.insert(bytes_.end(), other.bytes_.begin() + from,
                other.bytes_.begin() + other.offsets_[start + count]);
  const size_t first = offsets_.size();
  offsets_.resize(first + count);
  for (size_t i = 0; i < count; ++i) {
    offsets_[first + i] = other.offsets_[start + 1 + i] - from + base;
  }
}

void StringArena::reserve(size_t rows, size_t bytes) {
  offsets_.reserve(rows + 1);
  bytes_.reserve(bytes);
}

namespace {
// True for the string storage inside a std::visit over ColumnVector::data_.
template <typename Storage>
constexpr bool kIsArena = std::is_same_v<std::decay_t<Storage>, StringArena>;

// Physical storage kind for each logical type.
enum class Phys { kU8, kI32, kI64, kF64, kStr };

Phys PhysOf(DataType type) {
  switch (type) {
    case DataType::kBool:
      return Phys::kU8;
    case DataType::kInt32:
    case DataType::kDate32:
      return Phys::kI32;
    case DataType::kInt64:
      return Phys::kI64;
    case DataType::kDouble:
      return Phys::kF64;
    case DataType::kString:
      return Phys::kStr;
  }
  return Phys::kI64;
}
}  // namespace

void ColumnVector::InitStorage() {
  switch (PhysOf(type_)) {
    case Phys::kU8:
      data_ = std::vector<uint8_t>();
      break;
    case Phys::kI32:
      data_ = std::vector<int32_t>();
      break;
    case Phys::kI64:
      data_ = std::vector<int64_t>();
      break;
    case Phys::kF64:
      data_ = std::vector<double>();
      break;
    case Phys::kStr:
      data_ = StringArena();
      break;
  }
}

ColumnVector ColumnVector::FromInt32(std::vector<int32_t> values) {
  ColumnVector col(DataType::kInt32);
  col.data_ = std::move(values);
  return col;
}

ColumnVector ColumnVector::FromInt64(std::vector<int64_t> values) {
  ColumnVector col(DataType::kInt64);
  col.data_ = std::move(values);
  return col;
}

ColumnVector ColumnVector::FromDouble(std::vector<double> values) {
  ColumnVector col(DataType::kDouble);
  col.data_ = std::move(values);
  return col;
}

ColumnVector ColumnVector::FromString(const std::vector<std::string>& values) {
  ColumnVector col(DataType::kString);
  col.strs().AppendViews(values.size(), [&](size_t i) {
    return std::string_view(values[i]);
  });
  return col;
}

ColumnVector ColumnVector::FromBool(std::vector<uint8_t> values) {
  ColumnVector col(DataType::kBool);
  col.data_ = std::move(values);
  return col;
}

ColumnVector ColumnVector::FromDate32(std::vector<int32_t> days) {
  ColumnVector col(DataType::kDate32);
  col.data_ = std::move(days);
  return col;
}

size_t ColumnVector::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

void ColumnVector::EnsureValidity() {
  if (validity_.empty()) validity_.assign(size(), 1);
}

void ColumnVector::SetNull(size_t i) {
  DFLOW_CHECK_LT(i, size());
  EnsureValidity();
  validity_[i] = 0;
}

Value ColumnVector::GetValue(size_t i) const {
  DFLOW_CHECK_LT(i, size());
  if (!IsValid(i)) return Value::Null(type_);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(bool_data()[i] != 0);
    case DataType::kInt32:
      return Value::Int32(i32()[i]);
    case DataType::kDate32:
      return Value::Date32(i32()[i]);
    case DataType::kInt64:
      return Value::Int64(i64()[i]);
    case DataType::kDouble:
      return Value::Double(f64()[i]);
    case DataType::kString:
      return Value::String(std::string(strs()[i]));
  }
  return Value();
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool:
      bool_data().push_back(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt32:
      i32().push_back(v.int32_value());
      break;
    case DataType::kDate32:
      i32().push_back(v.date32_value());
      break;
    case DataType::kInt64:
      i64().push_back(v.int64_value());
      break;
    case DataType::kDouble:
      f64().push_back(v.double_value());
      break;
    case DataType::kString:
      strs().Append(v.string_value());
      break;
  }
  if (!validity_.empty()) validity_.push_back(1);
}

void ColumnVector::AppendNull() {
  EnsureValidity();
  // Append a placeholder slot in the data storage.
  std::visit([](auto& v) { v.emplace_back(); }, data_);
  validity_.push_back(0);
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t index) {
  DFLOW_CHECK(type_ == other.type_);
  DFLOW_CHECK_LT(index, other.size());
  if (!other.IsValid(index)) {
    AppendNull();
    return;
  }
  switch (PhysOf(type_)) {
    case Phys::kU8:
      bool_data().push_back(other.bool_data()[index]);
      break;
    case Phys::kI32:
      i32().push_back(other.i32()[index]);
      break;
    case Phys::kI64:
      i64().push_back(other.i64()[index]);
      break;
    case Phys::kF64:
      f64().push_back(other.f64()[index]);
      break;
    case Phys::kStr:
      strs().Append(other.strs()[index]);
      break;
  }
  if (!validity_.empty()) validity_.push_back(1);
}

void ColumnVector::AppendRange(const ColumnVector& other, size_t start,
                               size_t count) {
  DFLOW_CHECK(type_ == other.type_);
  DFLOW_CHECK_LE(start + count, other.size());
  const size_t base = size();
  // AppendFrom turns a NULL slot into AppendNull: a mask appears only on a
  // real NULL, and the slot gets a placeholder, not the source's bytes.
  const uint8_t* valid =
      other.HasNulls() ? other.validity_.data() + start : nullptr;
  const bool other_nulls =
      valid != nullptr && std::find(valid, valid + count, 0) != valid + count;
  if (other_nulls) {
    if (validity_.empty()) validity_.assign(base, 1);
    validity_.insert(validity_.end(), valid, valid + count);
  } else if (!validity_.empty()) {
    validity_.resize(base + count, 1);
  }
  std::visit(
      [&](auto& dst) {
        using Storage = std::decay_t<decltype(dst)>;
        const Storage& src = std::get<Storage>(other.data_);
        if constexpr (kIsArena<Storage>) {
          if (!other_nulls) {
            dst.AppendRange(src, start, count);
            return;
          }
          dst.AppendViews(count, [&](size_t i) {
            return valid[i] != 0 ? src[start + i] : std::string_view();
          });
        } else {
          const auto first = src.begin() + static_cast<std::ptrdiff_t>(start);
          dst.insert(dst.end(), first,
                     first + static_cast<std::ptrdiff_t>(count));
          if (!other_nulls) return;
          for (size_t i = 0; i < count; ++i) {
            if (valid[i] == 0) dst[base + i] = {};
          }
        }
      },
      data_);
}

void ColumnVector::Reserve(size_t n) {
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

void ColumnVector::Clear() {
  std::visit([](auto& v) { v.clear(); }, data_);
  validity_.clear();
}

ColumnVector ColumnVector::Gather(const SelectionVector& sel) const {
  ColumnVector out(type_);
  const bool has_nulls = HasNulls();
  std::visit(
      [&](const auto& src) {
        using Storage = std::decay_t<decltype(src)>;
        auto& dst = std::get<Storage>(out.data_);
        if constexpr (kIsArena<Storage>) {
          dst.AppendViews(sel.size(), [&](size_t i) { return src[sel[i]]; });
        } else {
          dst.resize(sel.size());
          for (size_t i = 0; i < sel.size(); ++i) dst[i] = src[sel[i]];
        }
      },
      data_);
  if (has_nulls) {
    out.validity_.resize(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      out.validity_[i] = validity_[sel[i]];
    }
  }
  return out;
}

ColumnVector ColumnVector::TakeRange(size_t start, size_t count) const {
  DFLOW_CHECK_LE(start + count, size());
  ColumnVector out(type_);
  std::visit(
      [&](const auto& src) {
        using Storage = std::decay_t<decltype(src)>;
        auto& dst = std::get<Storage>(out.data_);
        if constexpr (kIsArena<Storage>) {
          dst.reserve(count);  // the byte range is copied in one go
          dst.AppendRange(src, start, count);
        } else {
          const auto first = src.begin() + static_cast<std::ptrdiff_t>(start);
          dst.assign(first, first + static_cast<std::ptrdiff_t>(count));
        }
      },
      data_);
  if (HasNulls()) {
    const auto first = validity_.begin() + static_cast<std::ptrdiff_t>(start);
    out.validity_.assign(first, first + static_cast<std::ptrdiff_t>(count));
  }
  return out;
}

uint64_t ColumnVector::ByteSize() const {
  uint64_t bytes = 0;
  if (type_ == DataType::kString) {
    // 4-byte length prefix per row on the wire.
    bytes = strs().num_bytes() + 4 * static_cast<uint64_t>(size());
  } else {
    bytes = static_cast<uint64_t>(size()) * FixedWidthBytes(type_);
  }
  if (HasNulls()) bytes += size();
  return bytes;
}

}  // namespace dflow

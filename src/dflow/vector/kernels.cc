#include "dflow/vector/kernels.h"

#include <cmath>

#include "dflow/common/hash.h"
#include "dflow/common/logging.h"
#include "dflow/common/string_util.h"

namespace dflow {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

namespace {

template <typename T>
bool ApplyCompare(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

// Compares a typed column against a typed constant, honoring nulls.
template <typename T, typename GetFn>
void CompareLoop(size_t n, const ColumnVector& col, GetFn get, CompareOp op,
                 const T& constant, Mask* mask) {
  mask->assign(n, 0);
  if (col.HasNulls()) {
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] = col.IsValid(i) && ApplyCompare(op, get(i), constant) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] = ApplyCompare(op, get(i), constant) ? 1 : 0;
    }
  }
}

}  // namespace

Status CompareToConstant(const ColumnVector& col, CompareOp op,
                         const Value& constant, Mask* mask) {
  const size_t n = col.size();
  if (constant.is_null()) {
    // SQL semantics: comparison with NULL is never true.
    mask->assign(n, 0);
    return Status::OK();
  }
  switch (col.type()) {
    case DataType::kInt32:
    case DataType::kDate32: {
      if (constant.type() == DataType::kString ||
          constant.type() == DataType::kBool) {
        return Status::InvalidArgument("cannot compare int column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const auto& d = col.i32();
      if (constant.type() == DataType::kDouble) {
        const double c = constant.AsDouble();
        CompareLoop<double>(n, col, [&](size_t i) { return static_cast<double>(d[i]); },
                            op, c, mask);
      } else {
        const int64_t c = constant.AsInt64();
        CompareLoop<int64_t>(n, col, [&](size_t i) { return static_cast<int64_t>(d[i]); },
                             op, c, mask);
      }
      return Status::OK();
    }
    case DataType::kInt64: {
      if (constant.type() == DataType::kString ||
          constant.type() == DataType::kBool) {
        return Status::InvalidArgument("cannot compare int column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const auto& d = col.i64();
      if (constant.type() == DataType::kDouble) {
        const double c = constant.AsDouble();
        CompareLoop<double>(n, col, [&](size_t i) { return static_cast<double>(d[i]); },
                            op, c, mask);
      } else {
        const int64_t c = constant.AsInt64();
        CompareLoop<int64_t>(n, col, [&](size_t i) { return d[i]; }, op, c, mask);
      }
      return Status::OK();
    }
    case DataType::kDouble: {
      if (!IsNumeric(constant.type()) && constant.type() != DataType::kDate32) {
        return Status::InvalidArgument("cannot compare double column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const auto& d = col.f64();
      const double c = constant.AsDouble();
      CompareLoop<double>(n, col, [&](size_t i) { return d[i]; }, op, c, mask);
      return Status::OK();
    }
    case DataType::kString: {
      if (constant.type() != DataType::kString) {
        return Status::InvalidArgument("cannot compare string column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const StringArena& d = col.strs();
      const std::string_view c = constant.string_value();
      CompareLoop<std::string_view>(n, col, [&](size_t i) { return d[i]; }, op,
                                    c, mask);
      return Status::OK();
    }
    case DataType::kBool: {
      if (constant.type() != DataType::kBool) {
        return Status::InvalidArgument("cannot compare bool column with " +
                                       std::string(DataTypeToString(constant.type())));
      }
      const auto& d = col.bool_data();
      const uint8_t c = constant.bool_value() ? 1 : 0;
      CompareLoop<uint8_t>(n, col, [&](size_t i) { return d[i]; }, op, c, mask);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status CompareColumns(const ColumnVector& a, CompareOp op,
                      const ColumnVector& b, Mask* mask) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("CompareColumns: length mismatch");
  }
  const size_t n = a.size();
  mask->assign(n, 0);
  auto valid = [&](size_t i) { return a.IsValid(i) && b.IsValid(i); };
  if (a.type() == DataType::kString || b.type() == DataType::kString) {
    if (a.type() != DataType::kString || b.type() != DataType::kString) {
      return Status::InvalidArgument("CompareColumns: string vs non-string");
    }
    const StringArena& sa = a.strs();
    const StringArena& sb = b.strs();
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] = valid(i) && ApplyCompare(op, sa[i], sb[i]);
    }
    return Status::OK();
  }
  if (a.type() == DataType::kBool || b.type() == DataType::kBool) {
    if (a.type() != DataType::kBool || b.type() != DataType::kBool) {
      return Status::InvalidArgument("CompareColumns: bool vs non-bool");
    }
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] =
          valid(i) && ApplyCompare(op, a.bool_data()[i], b.bool_data()[i]);
    }
    return Status::OK();
  }
  // Numeric path: promote to double if either side is double, else int64.
  auto geti = [](const ColumnVector& c, size_t i) -> int64_t {
    switch (c.type()) {
      case DataType::kInt32:
      case DataType::kDate32:
        return c.i32()[i];
      case DataType::kInt64:
        return c.i64()[i];
      default:
        return 0;
    }
  };
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    auto getd = [&](const ColumnVector& c, size_t i) -> double {
      return c.type() == DataType::kDouble ? c.f64()[i]
                                           : static_cast<double>(geti(c, i));
    };
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] = valid(i) && ApplyCompare(op, getd(a, i), getd(b, i));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      (*mask)[i] = valid(i) && ApplyCompare(op, geti(a, i), geti(b, i));
    }
  }
  return Status::OK();
}

Status ComputeLikeMask(const ColumnVector& col, std::string_view pattern,
                       Mask* mask) {
  if (col.type() != DataType::kString) {
    return Status::InvalidArgument("LIKE requires a string column");
  }
  const size_t n = col.size();
  mask->assign(n, 0);
  const StringArena& d = col.strs();
  for (size_t i = 0; i < n; ++i) {
    (*mask)[i] = col.IsValid(i) && LikeMatch(d[i], pattern) ? 1 : 0;
  }
  return Status::OK();
}

void AndMasks(const Mask& other, Mask* mask) {
  DFLOW_CHECK_EQ(other.size(), mask->size());
  for (size_t i = 0; i < mask->size(); ++i) {
    (*mask)[i] = (*mask)[i] & other[i];
  }
}

void OrMasks(const Mask& other, Mask* mask) {
  DFLOW_CHECK_EQ(other.size(), mask->size());
  for (size_t i = 0; i < mask->size(); ++i) {
    (*mask)[i] = (*mask)[i] | other[i];
  }
}

void NotMask(Mask* mask) {
  for (size_t i = 0; i < mask->size(); ++i) {
    (*mask)[i] = (*mask)[i] ? 0 : 1;
  }
}

SelectionVector MaskToSelection(const Mask& mask) {
  SelectionVector sel;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) sel.Append(static_cast<uint32_t>(i));
  }
  return sel;
}

size_t MaskPopCount(const Mask& mask) {
  size_t count = 0;
  for (uint8_t m : mask) count += m ? 1 : 0;
  return count;
}

namespace {

template <typename T>
T ApplyArith(ArithOp op, T a, T b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      return a / b;
  }
  return T{};
}

// Reads a numeric column element as double or int64.
double GetNumericAsDouble(const ColumnVector& c, size_t i) {
  switch (c.type()) {
    case DataType::kInt32:
    case DataType::kDate32:
      return c.i32()[i];
    case DataType::kInt64:
      return static_cast<double>(c.i64()[i]);
    case DataType::kDouble:
      return c.f64()[i];
    default:
      return 0.0;
  }
}

int64_t GetNumericAsInt64(const ColumnVector& c, size_t i) {
  switch (c.type()) {
    case DataType::kInt32:
    case DataType::kDate32:
      return c.i32()[i];
    case DataType::kInt64:
      return c.i64()[i];
    default:
      return 0;
  }
}

}  // namespace

Status Arithmetic(const ColumnVector& a, ArithOp op, const ColumnVector& b,
                  ColumnVector* out) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("Arithmetic: length mismatch");
  }
  if (!IsNumeric(a.type()) || !IsNumeric(b.type())) {
    return Status::InvalidArgument("Arithmetic requires numeric columns");
  }
  const size_t n = a.size();
  const bool any_null = a.HasNulls() || b.HasNulls();
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    ColumnVector result(DataType::kDouble);
    auto& d = result.f64();
    d.resize(n);
    for (size_t i = 0; i < n; ++i) {
      d[i] = ApplyArith(op, GetNumericAsDouble(a, i), GetNumericAsDouble(b, i));
    }
    if (any_null) {
      for (size_t i = 0; i < n; ++i) {
        if (!a.IsValid(i) || !b.IsValid(i)) result.SetNull(i);
      }
    }
    *out = std::move(result);
    return Status::OK();
  }
  ColumnVector result(DataType::kInt64);
  auto& d = result.i64();
  d.resize(n);
  std::vector<size_t> div_zero;
  for (size_t i = 0; i < n; ++i) {
    const int64_t rhs = GetNumericAsInt64(b, i);
    if (op == ArithOp::kDiv && rhs == 0) {
      d[i] = 0;
      div_zero.push_back(i);
      continue;
    }
    d[i] = ApplyArith(op, GetNumericAsInt64(a, i), rhs);
  }
  for (size_t i : div_zero) result.SetNull(i);
  if (any_null) {
    for (size_t i = 0; i < n; ++i) {
      if (!a.IsValid(i) || !b.IsValid(i)) result.SetNull(i);
    }
  }
  *out = std::move(result);
  return Status::OK();
}

Status ArithmeticConst(const ColumnVector& col, ArithOp op,
                       const Value& constant, ColumnVector* out) {
  if (!IsNumeric(col.type()) || constant.is_null() ||
      !IsNumeric(constant.type())) {
    return Status::InvalidArgument(
        "ArithmeticConst requires numeric column and non-null numeric "
        "constant");
  }
  // Broadcast the constant into a column and reuse the column-column path.
  // Chunk sizes are small (<= kVectorSize) so the copy is cheap and keeps a
  // single arithmetic implementation.
  const size_t n = col.size();
  ColumnVector broadcast(constant.type() == DataType::kDouble
                             ? DataType::kDouble
                             : DataType::kInt64);
  if (constant.type() == DataType::kDouble) {
    broadcast.f64().assign(n, constant.double_value());
  } else {
    broadcast.i64().assign(n, constant.AsInt64());
  }
  return Arithmetic(col, op, broadcast, out);
}

Status HashColumn(const ColumnVector& col, std::vector<uint64_t>* hashes) {
  const size_t n = col.size();
  constexpr uint64_t kNullHash = 0x7ull;
  const bool combine = !hashes->empty();
  if (combine && hashes->size() != n) {
    return Status::InvalidArgument("HashColumn: hash vector length mismatch");
  }
  if (!combine) hashes->assign(n, 0);
  auto emit = [&](size_t i, uint64_t h) {
    (*hashes)[i] = combine ? HashCombine((*hashes)[i], h) : h;
  };
  switch (col.type()) {
    case DataType::kInt32:
    case DataType::kDate32: {
      const auto& d = col.i32();
      for (size_t i = 0; i < n; ++i) {
        emit(i, col.IsValid(i)
                    ? HashInt64(static_cast<uint64_t>(static_cast<int64_t>(d[i])))
                    : kNullHash);
      }
      break;
    }
    case DataType::kInt64: {
      const auto& d = col.i64();
      for (size_t i = 0; i < n; ++i) {
        emit(i, col.IsValid(i) ? HashInt64(static_cast<uint64_t>(d[i]))
                               : kNullHash);
      }
      break;
    }
    case DataType::kDouble: {
      const auto& d = col.f64();
      for (size_t i = 0; i < n; ++i) {
        emit(i, col.IsValid(i) ? HashDouble(d[i]) : kNullHash);
      }
      break;
    }
    case DataType::kString: {
      const StringArena& d = col.strs();
      for (size_t i = 0; i < n; ++i) {
        emit(i, col.IsValid(i) ? HashString(d[i]) : kNullHash);
      }
      break;
    }
    case DataType::kBool: {
      const auto& d = col.bool_data();
      for (size_t i = 0; i < n; ++i) {
        emit(i, col.IsValid(i) ? HashInt64(d[i]) : kNullHash);
      }
      break;
    }
  }
  return Status::OK();
}

}  // namespace dflow

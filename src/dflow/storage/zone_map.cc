#include "dflow/storage/zone_map.h"

namespace dflow {

namespace {

template <typename T>
int ThreeWay(const T& a, const T& b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Scans the valid slots of `col` for the first minimum and the first maximum
// under `cmp`, a three-way comparison of two slots, exactly as a loop over
// boxed values with Value::Compare would: the first valid slot seeds both, a
// later slot replaces one only when strictly smaller or larger. Only the
// two winners are boxed.
template <typename Cmp>
ZoneMap ScanMinMax(const ColumnVector& col, Cmp cmp) {
  ZoneMap zm;
  const size_t n = col.size();
  size_t min_i = 0, max_i = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!col.IsValid(i)) {
      zm.has_nulls = true;
      continue;
    }
    if (!zm.valid) {
      min_i = max_i = i;
      zm.valid = true;
      continue;
    }
    if (cmp(i, min_i) < 0) min_i = i;
    if (cmp(i, max_i) > 0) max_i = i;
  }
  if (zm.valid) {
    zm.min = col.GetValue(min_i);
    zm.max = col.GetValue(max_i);
  }
  return zm;
}

}  // namespace

ZoneMap ZoneMap::Compute(const ColumnVector& col) {
  // Each comparison gives Value::Compare's answer on the boxed slots: bools
  // as 0/1, int32 and date32 as int64, doubles by `<` and `>` (so NaN ties
  // with everything and never replaces a bound), strings by `compare`.
  switch (col.type()) {
    case DataType::kBool: {
      const std::vector<uint8_t>& v = col.bool_data();
      return ScanMinMax(col, [&](size_t a, size_t b) {
        return ThreeWay<int>(v[a] != 0, v[b] != 0);
      });
    }
    case DataType::kInt32:
    case DataType::kDate32: {
      const std::vector<int32_t>& v = col.i32();
      return ScanMinMax(
          col, [&](size_t a, size_t b) { return ThreeWay(v[a], v[b]); });
    }
    case DataType::kInt64: {
      const std::vector<int64_t>& v = col.i64();
      return ScanMinMax(
          col, [&](size_t a, size_t b) { return ThreeWay(v[a], v[b]); });
    }
    case DataType::kDouble: {
      const std::vector<double>& v = col.f64();
      return ScanMinMax(
          col, [&](size_t a, size_t b) { return ThreeWay(v[a], v[b]); });
    }
    case DataType::kString: {
      const StringArena& v = col.strs();
      return ScanMinMax(col,
                        [&](size_t a, size_t b) { return v[a].compare(v[b]); });
    }
  }
  return ZoneMap();
}

bool ZoneMap::MayMatch(CompareOp op, const Value& constant) const {
  if (!valid) return has_nulls;  // all-null zones can't match any comparison
  if (constant.is_null()) return false;
  switch (op) {
    case CompareOp::kEq:
      return min.Compare(constant) <= 0 && max.Compare(constant) >= 0;
    case CompareOp::kNe:
      // Only prunable when every value equals the constant.
      return !(min.Compare(constant) == 0 && max.Compare(constant) == 0);
    case CompareOp::kLt:
      return min.Compare(constant) < 0;
    case CompareOp::kLe:
      return min.Compare(constant) <= 0;
    case CompareOp::kGt:
      return max.Compare(constant) > 0;
    case CompareOp::kGe:
      return max.Compare(constant) >= 0;
  }
  return true;
}

void ZoneMap::Merge(const ZoneMap& other) {
  has_nulls = has_nulls || other.has_nulls;
  if (!other.valid) return;
  if (!valid) {
    *this = other;
    return;
  }
  if (other.min.Compare(min) < 0) min = other.min;
  if (other.max.Compare(max) > 0) max = other.max;
}

}  // namespace dflow

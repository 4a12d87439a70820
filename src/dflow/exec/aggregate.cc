#include "dflow/exec/aggregate.h"

#include "dflow/common/hash.h"
#include "dflow/common/logging.h"
#include "dflow/vector/kernels.h"

namespace dflow {

namespace {

/// `Value::Compare(col.GetValue(row), v)` without boxing the column slot.
/// `v` is NULL or has the column's physical type: group keys and MIN/MAX
/// accumulators are only ever taken from the same input column.
int CompareSlot(const ColumnVector& col, size_t row, const Value& v) {
  const bool slot_null = !col.IsValid(row);
  if (slot_null || v.is_null()) {
    return slot_null == v.is_null() ? 0 : (slot_null ? -1 : 1);
  }
  switch (col.type()) {
    case DataType::kBool:
      return (col.bool_data()[row] != 0 ? 1 : 0) - (v.bool_value() ? 1 : 0);
    case DataType::kInt32:
    case DataType::kDate32: {
      const int32_t a = col.i32()[row];
      const int32_t b = v.int32_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case DataType::kInt64: {
      const int64_t a = col.i64()[row];
      const int64_t b = v.int64_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case DataType::kDouble: {
      // NaN compares equal to everything, exactly as Value::Compare does.
      const double a = col.f64()[row];
      const double b = v.double_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case DataType::kString:
      return col.strs()[row].compare(v.string_value());
  }
  return 0;
}

/// `col.GetValue(row).AsInt64()` of a non-NULL slot; integer columns are
/// read without boxing.
int64_t Int64At(const ColumnVector& col, size_t row) {
  switch (col.type()) {
    case DataType::kInt32:
    case DataType::kDate32:
      return col.i32()[row];
    case DataType::kInt64:
      return col.i64()[row];
    default:
      return col.GetValue(row).AsInt64();
  }
}

}  // namespace

std::string_view AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

std::vector<AggSpec> MakeMergeSpecs(const std::vector<AggSpec>& specs) {
  std::vector<AggSpec> merged;
  merged.reserve(specs.size());
  for (const AggSpec& s : specs) {
    AggSpec m = s;
    m.input = s.output_name;  // read the partial column by its emitted name
    // COUNT keeps its function: a kFinal-mode COUNT *sums* the partial
    // counts (see UpdateGroups) but still finalizes the empty input to 0,
    // which SUM would not (SUM of nothing is NULL).
    merged.push_back(std::move(m));
  }
  return merged;
}

Result<OperatorPtr> HashAggregateOperator::Make(
    const Schema& input_schema, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& specs, AggMode mode, size_t max_groups) {
  if (specs.empty()) {
    return Status::InvalidArgument("aggregate requires at least one function");
  }
  if (mode != AggMode::kPartial && max_groups != 0) {
    return Status::InvalidArgument(
        "bounded group tables only apply to kPartial mode");
  }
  auto op = std::unique_ptr<HashAggregateOperator>(new HashAggregateOperator());
  op->mode_ = mode;
  op->max_groups_ = max_groups;
  op->specs_ = specs;

  std::vector<Field> out_fields;
  for (const std::string& g : group_by) {
    DFLOW_ASSIGN_OR_RETURN(size_t idx, input_schema.FieldIndex(g));
    op->group_cols_.push_back(idx);
    out_fields.push_back(input_schema.field(idx));
  }
  for (const AggSpec& s : specs) {
    int64_t input_idx = -1;
    DataType out_type = DataType::kInt64;
    if (s.func == AggFunc::kCount && s.input.empty()) {
      out_type = DataType::kInt64;
    } else {
      if (s.input.empty()) {
        return Status::InvalidArgument(
            std::string(AggFuncToString(s.func)) + " requires an input column");
      }
      DFLOW_ASSIGN_OR_RETURN(size_t idx, input_schema.FieldIndex(s.input));
      input_idx = static_cast<int64_t>(idx);
      const DataType in_type = input_schema.field(idx).type;
      switch (s.func) {
        case AggFunc::kCount:
          out_type = DataType::kInt64;
          break;
        case AggFunc::kSum:
          if (!IsNumeric(in_type)) {
            return Status::InvalidArgument("SUM requires a numeric column");
          }
          out_type =
              in_type == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          out_type = in_type;
          break;
      }
    }
    op->agg_cols_.push_back(input_idx);
    op->agg_output_types_.push_back(out_type);
    out_fields.push_back(Field{s.output_name, out_type});
  }
  op->output_schema_ = Schema(std::move(out_fields));
  op->input_schema_ = input_schema;
  return OperatorPtr(op.release());
}

std::string HashAggregateOperator::name() const {
  std::string n = "hash_agg[";
  switch (mode_) {
    case AggMode::kComplete:
      n += "complete";
      break;
    case AggMode::kPartial:
      n += "partial";
      break;
    case AggMode::kFinal:
      n += "final";
      break;
  }
  if (max_groups_ > 0) n += ", bounded=" + std::to_string(max_groups_);
  return n + "]";
}

OperatorTraits HashAggregateOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kAggregate;
  t.streaming = mode_ == AggMode::kPartial && max_groups_ > 0;
  t.stateless = false;
  t.bounded_state = max_groups_ > 0;
  t.reduction_hint = 0.1;
  return t;
}

size_t HashAggregateOperator::FindGroup(const DataChunk& input, size_t row,
                                        uint64_t hash) const {
  const auto bucket = table_.find(hash);
  if (bucket == table_.end()) return groups_.size();
  for (size_t gid : bucket->second) {
    const std::vector<Value>& keys = groups_[gid].keys;
    size_t k = 0;
    while (k < group_cols_.size() &&
           CompareSlot(input.column(group_cols_[k]), row, keys[k]) == 0) {
      ++k;
    }
    if (k == group_cols_.size()) return gid;
  }
  return groups_.size();
}

size_t HashAggregateOperator::CreateGroup(const DataChunk& input, size_t row,
                                          uint64_t hash) {
  Group g;
  g.keys.reserve(group_cols_.size());
  for (size_t col : group_cols_) {
    g.keys.push_back(input.GetValue(row, col));
  }
  g.accs.resize(specs_.size());
  groups_.push_back(std::move(g));
  table_[hash].push_back(groups_.size() - 1);
  return groups_.size() - 1;
}

Status HashAggregateOperator::Push(DataChunk input,
                                   std::vector<DataChunk>* out) {
  RecordIn(input);
  return UpdateGroups(input, out);
}

Status HashAggregateOperator::UpdateGroups(const DataChunk& input,
                                           std::vector<DataChunk>* out) {
  const size_t n = input.num_rows();
  std::vector<uint64_t> hashes;
  if (group_cols_.empty()) {
    hashes.assign(n, 0);
  } else {
    for (size_t col : group_cols_) {
      DFLOW_RETURN_NOT_OK(HashColumn(input.column(col), &hashes));
    }
  }
  for (size_t row = 0; row < n; ++row) {
    // Bounded partial tables evict the OLDEST HALF of their groups before
    // admitting a group that would exceed the budget. Evicting only part of
    // the table (rather than flushing everything) keeps recently-hot groups
    // resident, which is what makes bounded pre-aggregation effective under
    // skew — the accelerator equivalent of an LRU-ish cache.
    size_t gid = FindGroup(input, row, hashes[row]);
    if (gid == groups_.size()) {
      if (max_groups_ > 0 && groups_.size() >= max_groups_) {
        DFLOW_RETURN_NOT_OK(EvictOldestHalf(out));
        ++partial_flushes_;
      }
      gid = CreateGroup(input, row, hashes[row]);
    }
    Group& g = groups_[gid];
    for (size_t s = 0; s < specs_.size(); ++s) {
      Accumulator& acc = g.accs[s];
      const int64_t col_idx = agg_cols_[s];
      if (specs_[s].func == AggFunc::kCount && col_idx < 0) {
        acc.count += 1;
        acc.seen = true;
        continue;
      }
      const ColumnVector& col = input.column(static_cast<size_t>(col_idx));
      if (!col.IsValid(row)) continue;  // SQL: aggregates skip NULLs
      acc.seen = true;
      switch (specs_[s].func) {
        case AggFunc::kCount:
          // Final stage: the input column holds partial counts to sum up.
          // Earlier stages: count the (non-NULL) rows themselves.
          if (mode_ == AggMode::kFinal) {
            acc.count += Int64At(col, row);
          } else {
            acc.count += 1;
          }
          break;
        case AggFunc::kSum:
          if (col.type() == DataType::kDouble) {
            acc.sum_d += col.f64()[row];
          } else {
            acc.sum_i += Int64At(col, row);
          }
          break;
        case AggFunc::kMin:
          if (acc.count == 0 || CompareSlot(col, row, acc.min) < 0) {
            acc.min = col.GetValue(row);
          }
          acc.count += 1;
          break;
        case AggFunc::kMax:
          if (acc.count == 0 || CompareSlot(col, row, acc.max) > 0) {
            acc.max = col.GetValue(row);
          }
          acc.count += 1;
          break;
      }
    }
  }
  return Status::OK();
}

void HashAggregateOperator::AppendAggValue(const Accumulator& acc,
                                           size_t spec_idx,
                                           ColumnVector* col) const {
  const AggFunc func = specs_[spec_idx].func;
  const DataType out_type = agg_output_types_[spec_idx];
  switch (func) {
    case AggFunc::kCount:
      col->AppendValue(Value::Int64(acc.count));
      return;
    case AggFunc::kSum:
      if (!acc.seen) {
        col->AppendNull();
      } else if (out_type == DataType::kDouble) {
        col->AppendValue(Value::Double(acc.sum_d));
      } else {
        col->AppendValue(Value::Int64(acc.sum_i));
      }
      return;
    case AggFunc::kMin:
      if (!acc.seen) {
        col->AppendNull();
      } else {
        col->AppendValue(acc.min);
      }
      return;
    case AggFunc::kMax:
      if (!acc.seen) {
        col->AppendNull();
      } else {
        col->AppendValue(acc.max);
      }
      return;
  }
}

Status HashAggregateOperator::EvictOldestHalf(std::vector<DataChunk>* out) {
  const size_t evict = std::max<size_t>(1, groups_.size() / 2);
  // Emit the first (oldest) `evict` groups.
  for (size_t start = 0; start < evict; start += kVectorSize) {
    const size_t count = std::min(kVectorSize, evict - start);
    DataChunk chunk = DataChunk::EmptyFromSchema(output_schema_);
    for (size_t i = 0; i < count; ++i) {
      const Group& g = groups_[start + i];
      for (size_t k = 0; k < group_cols_.size(); ++k) {
        chunk.column(k).AppendValue(g.keys[k]);
      }
      for (size_t s = 0; s < specs_.size(); ++s) {
        AppendAggValue(g.accs[s], s, &chunk.column(group_cols_.size() + s));
      }
    }
    RecordOut(chunk);
    out->push_back(std::move(chunk));
  }
  // Keep the newest groups; rebuild the hash directory over them.
  groups_.erase(groups_.begin(), groups_.begin() + evict);
  table_.clear();
  for (size_t gid = 0; gid < groups_.size(); ++gid) {
    uint64_t h = 0;
    bool first = true;
    for (const Value& key : groups_[gid].keys) {
      ColumnVector tmp(key.type());
      tmp.AppendValue(key);
      std::vector<uint64_t> hv;
      if (first) {
        DFLOW_RETURN_NOT_OK(HashColumn(tmp, &hv));
        h = hv[0];
        first = false;
      } else {
        hv.assign(1, h);
        DFLOW_RETURN_NOT_OK(HashColumn(tmp, &hv));
        h = hv[0];
      }
    }
    if (groups_[gid].keys.empty()) h = 0;
    table_[h].push_back(gid);
  }
  return Status::OK();
}

Status HashAggregateOperator::EmitAll(std::vector<DataChunk>* out) {
  if (groups_.empty()) return Status::OK();
  for (size_t start = 0; start < groups_.size(); start += kVectorSize) {
    const size_t count = std::min(kVectorSize, groups_.size() - start);
    DataChunk chunk = DataChunk::EmptyFromSchema(output_schema_);
    for (size_t i = 0; i < count; ++i) {
      const Group& g = groups_[start + i];
      for (size_t k = 0; k < group_cols_.size(); ++k) {
        chunk.column(k).AppendValue(g.keys[k]);
      }
      for (size_t s = 0; s < specs_.size(); ++s) {
        AppendAggValue(g.accs[s], s,
                       &chunk.column(group_cols_.size() + s));
      }
    }
    RecordOut(chunk);
    out->push_back(std::move(chunk));
  }
  table_.clear();
  groups_.clear();
  return Status::OK();
}

Status HashAggregateOperator::Finish(std::vector<DataChunk>* out) {
  // Scalar aggregates (no GROUP BY) emit one row even over empty input —
  // COUNT(*) of nothing is 0 — but only at the complete/final stage.
  if (groups_.empty() && group_cols_.empty() && mode_ != AggMode::kPartial) {
    Group g;
    g.accs.resize(specs_.size());
    groups_.push_back(std::move(g));
  }
  return EmitAll(out);
}

}  // namespace dflow

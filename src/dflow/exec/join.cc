#include "dflow/exec/join.h"

#include "dflow/common/logging.h"
#include "dflow/vector/kernels.h"

namespace dflow {

JoinHashTable::JoinHashTable(Schema build_schema, size_t key_col)
    : build_schema_(std::move(build_schema)),
      key_col_(key_col),
      rows_(DataChunk::EmptyFromSchema(build_schema_)) {
  DFLOW_CHECK_LT(key_col_, build_schema_.num_fields());
}

Status JoinHashTable::Insert(const DataChunk& chunk) {
  if (chunk.num_columns() != build_schema_.num_fields()) {
    return Status::InvalidArgument("join build chunk arity mismatch");
  }
  std::vector<uint64_t> hashes;
  DFLOW_RETURN_NOT_OK(HashColumn(chunk.column(key_col_), &hashes));
  const uint32_t base = static_cast<uint32_t>(rows_.num_rows());
  rows_.Append(chunk);
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    if (chunk.column(key_col_).IsValid(r)) {  // NULL keys never join
      table_[hashes[r]].push_back(base + static_cast<uint32_t>(r));
    }
  }
  return Status::OK();
}

Status JoinHashTable::Probe(
    const ColumnVector& probe_keys,
    std::vector<std::pair<uint32_t, uint32_t>>* matches) const {
  std::vector<uint64_t> hashes;
  DFLOW_RETURN_NOT_OK(HashColumn(probe_keys, &hashes));
  const ColumnVector& build_keys = rows_.column(key_col_);
  for (size_t r = 0; r < probe_keys.size(); ++r) {
    if (!probe_keys.IsValid(r)) continue;
    auto it = table_.find(hashes[r]);
    if (it == table_.end()) continue;
    const Value probe_value = probe_keys.GetValue(r);
    for (uint32_t build_row : it->second) {
      if (build_keys.GetValue(build_row).Compare(probe_value) == 0) {
        matches->emplace_back(static_cast<uint32_t>(r), build_row);
      }
    }
  }
  return Status::OK();
}

uint64_t JoinHashTable::MemoryBytes() const {
  uint64_t bytes = rows_.ByteSize();
  bytes += table_.size() * 48;  // bucket overhead estimate
  bytes += rows_.num_rows() * sizeof(uint32_t);
  return bytes;
}

Result<OperatorPtr> JoinBuildOperator::Make(
    std::shared_ptr<JoinHashTable> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("join build requires a table");
  }
  return OperatorPtr(new JoinBuildOperator(std::move(table)));
}

OperatorTraits JoinBuildOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kJoinBuild;
  t.streaming = false;
  t.stateless = false;
  t.bounded_state = false;
  t.reduction_hint = 0.0;  // sink: nothing flows on
  return t;
}

Status JoinBuildOperator::Push(DataChunk input, std::vector<DataChunk>* out) {
  (void)out;
  RecordIn(input);
  return table_->Insert(input);
}

Result<OperatorPtr> HashJoinProbeOperator::Make(
    std::shared_ptr<const JoinHashTable> table, Schema probe_schema,
    size_t probe_key_col) {
  if (table == nullptr) {
    return Status::InvalidArgument("join probe requires a table");
  }
  if (probe_key_col >= probe_schema.num_fields()) {
    return Status::InvalidArgument("probe key column out of range");
  }
  std::vector<Field> fields = probe_schema.fields();
  for (const Field& f : table->build_schema().fields()) {
    Field out = f;
    if (probe_schema.HasField(out.name)) out.name = "b_" + out.name;
    fields.push_back(std::move(out));
  }
  return OperatorPtr(new HashJoinProbeOperator(std::move(table),
                                               std::move(probe_schema),
                                               probe_key_col,
                                               Schema(std::move(fields))));
}

OperatorTraits HashJoinProbeOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kJoinProbe;
  t.streaming = true;
  t.stateless = false;  // references the build table
  t.reduction_hint = 1.0;
  return t;
}

Status HashJoinProbeOperator::Push(DataChunk input,
                                   std::vector<DataChunk>* out) {
  RecordIn(input);
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  DFLOW_RETURN_NOT_OK(table_->Probe(input.column(probe_key_col_), &matches));
  if (matches.empty()) return Status::OK();

  // Emit in kVectorSize slices to keep chunk sizes bounded even for
  // high-multiplicity keys.
  for (size_t start = 0; start < matches.size(); start += kVectorSize) {
    const size_t count = std::min(kVectorSize, matches.size() - start);
    DataChunk chunk = DataChunk::EmptyFromSchema(output_schema_);
    for (size_t i = 0; i < count; ++i) {
      const auto& [probe_row, build_row] = matches[start + i];
      for (size_t c = 0; c < input.num_columns(); ++c) {
        chunk.column(c).AppendFrom(input.column(c), probe_row);
      }
      for (size_t c = 0; c < table_->build_schema().num_fields(); ++c) {
        chunk.column(input.num_columns() + c)
            .AppendFrom(table_->rows().column(c), build_row);
      }
    }
    RecordOut(chunk);
    out->push_back(std::move(chunk));
  }
  return Status::OK();
}

}  // namespace dflow

#ifndef DFLOW_EXEC_AGGREGATE_H_
#define DFLOW_EXEC_AGGREGATE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "dflow/exec/operator.h"

namespace dflow {

/// Aggregate functions supported by the hash aggregate. AVG is lowered by
/// the planner into SUM + COUNT plus a final division, so every function
/// here merges trivially across partial stages (sum of sums, min of mins,
/// ...), which is what makes the paper's staged pre-aggregation pipeline
/// (storage -> sending NIC -> receiving NIC -> CPU, §4.4) composable.
enum class AggFunc { kCount, kSum, kMin, kMax };

std::string_view AggFuncToString(AggFunc func);

/// One aggregate column: func over input column `input` (ignored for
/// COUNT(*), pass empty), emitted as `output_name`.
struct AggSpec {
  AggFunc func;
  std::string input;        // empty = COUNT(*)
  std::string output_name;
};

/// Where this aggregate sits in a multi-stage aggregation chain.
///  kComplete  raw rows in -> final values out (single-stage)
///  kPartial   raw rows in -> partial states out; may flush early when the
///             bounded table fills (accelerator mode)
///  kFinal     partial states in -> final values out
enum class AggMode { kComplete, kPartial, kFinal };

/// Vectorized hash group-by.
///
/// In kPartial mode with `max_groups > 0` the operator enforces the bounded
/// state budget accelerators require: when the table would exceed
/// max_groups, the current partials are emitted downstream and the table is
/// cleared. The result is still exact once a downstream kFinal stage merges
/// — only the *reduction factor* degrades, which is precisely the trade-off
/// §3.3 describes ("pre-aggregation ... probably only to parts of the
/// data").
class HashAggregateOperator : public Operator {
 public:
  /// `group_by` are input column names; `specs` the aggregates. For kFinal
  /// mode, `input_schema` must be the partial-stage output schema (group
  /// cols followed by agg cols, as produced by a kPartial instance).
  static Result<OperatorPtr> Make(const Schema& input_schema,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<AggSpec>& specs,
                                  AggMode mode, size_t max_groups = 0);

  std::string name() const override;
  const Schema& output_schema() const override { return output_schema_; }
  const Schema* input_schema() const override { return &input_schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;
  Status Finish(std::vector<DataChunk>* out) override;

  /// Number of early partial flushes forced by the bounded table.
  uint64_t partial_flushes() const { return partial_flushes_; }
  size_t num_groups() const { return groups_.size(); }

 private:
  struct Accumulator {
    int64_t count = 0;
    double sum_d = 0.0;
    int64_t sum_i = 0;
    Value min;
    Value max;
    bool seen = false;
  };
  struct Group {
    std::vector<Value> keys;
    std::vector<Accumulator> accs;
  };

  HashAggregateOperator() = default;

  Status UpdateGroups(const DataChunk& input, std::vector<DataChunk>* out);
  /// Id of the group whose keys equal row `row`'s group columns under
  /// `Value::Compare(...) == 0` (NULL matches only NULL), compared against
  /// the typed column slots without boxing; groups_.size() if none.
  size_t FindGroup(const DataChunk& input, size_t row, uint64_t hash) const;
  /// Appends a new group keyed by row `row`'s group columns; returns its id.
  size_t CreateGroup(const DataChunk& input, size_t row, uint64_t hash);
  Status EmitAll(std::vector<DataChunk>* out);
  Status EvictOldestHalf(std::vector<DataChunk>* out);
  void AppendAggValue(const Accumulator& acc, size_t spec_idx,
                      ColumnVector* col) const;

  AggMode mode_ = AggMode::kComplete;
  size_t max_groups_ = 0;
  std::vector<size_t> group_cols_;            // indices into input
  std::vector<AggSpec> specs_;
  std::vector<int64_t> agg_cols_;             // input index, -1 = COUNT(*)
  std::vector<DataType> agg_output_types_;
  Schema output_schema_;
  Schema input_schema_;

  // determinism-ok: hash-bucket index only; groups_ keeps insertion order
  // and is the sole source of output ordering.
  std::unordered_map<uint64_t, std::vector<size_t>> table_;
  std::vector<Group> groups_;
  uint64_t partial_flushes_ = 0;
};

/// Rewrites partial-stage specs into the merge specs a kFinal stage needs:
/// COUNT becomes SUM over the partial count column; SUM/MIN/MAX keep their
/// function but read the partial column. Inputs are positional: the partial
/// schema lays out group columns first, then one column per spec.
std::vector<AggSpec> MakeMergeSpecs(const std::vector<AggSpec>& specs);

}  // namespace dflow

#endif  // DFLOW_EXEC_AGGREGATE_H_

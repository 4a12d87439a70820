#ifndef DFLOW_VOLCANO_ITERATORS_H_
#define DFLOW_VOLCANO_ITERATORS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dflow/exec/aggregate.h"
#include "dflow/plan/expr.h"
#include "dflow/volcano/buffer_pool.h"

namespace dflow::volcano {

/// Shared execution state of one baseline query.
struct VolcanoContext {
  BufferPool* pool = nullptr;
  CostMeter* meter = nullptr;
  /// Peak bytes of operator state (join/agg/sort tables) — together with
  /// the pool this is the engine's resident footprint.
  uint64_t peak_operator_state_bytes = 0;

  void NoteOperatorState(uint64_t bytes) {
    peak_operator_state_bytes = std::max(peak_operator_state_bytes, bytes);
  }
};

/// Evaluates a resolved expression against one row (the tuple-at-a-time
/// interpreter). Semantics match the vectorized kernels: comparisons with
/// NULL are false, arithmetic with NULL is NULL.
Result<Value> EvalOnRow(const Expr& expr, const Row& row);

/// The classic pull interface ("the pull-based Volcano model", §1).
class RowIterator {
 public:
  virtual ~RowIterator() = default;
  virtual Status Open() = 0;
  /// Fills `row` and returns true, or returns false at end of stream.
  virtual Result<bool> Next(Row* row) = 0;
  virtual const Schema& schema() const = 0;
};

using RowIteratorPtr = std::unique_ptr<RowIterator>;

/// Full scan through the buffer pool.
class SeqScanIterator : public RowIterator {
 public:
  SeqScanIterator(const HeapFile* file, VolcanoContext* ctx);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return file_->schema(); }

 private:
  const HeapFile* file_;
  VolcanoContext* ctx_;
  size_t page_ = 0;
  BufferPool::PageRows current_rows_;  // null before the first page
  size_t row_in_page_ = 0;
};

class FilterIterator : public RowIterator {
 public:
  /// `predicate` must be resolved against the child schema.
  FilterIterator(RowIteratorPtr child, ExprPtr predicate, VolcanoContext* ctx);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  RowIteratorPtr child_;
  ExprPtr predicate_;
  VolcanoContext* ctx_;
};

class ProjectIterator : public RowIterator {
 public:
  static Result<RowIteratorPtr> Make(RowIteratorPtr child,
                                     std::vector<ExprPtr> exprs,
                                     std::vector<std::string> names,
                                     VolcanoContext* ctx);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return schema_; }

 private:
  ProjectIterator(RowIteratorPtr child, std::vector<ExprPtr> exprs,
                  Schema schema, VolcanoContext* ctx)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        schema_(std::move(schema)),
        ctx_(ctx) {}

  RowIteratorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  VolcanoContext* ctx_;
  Row input_;  // the child's row, reused from call to call
};

/// Hash equi-join: consumes the build child entirely at Open (charged as
/// CPU join-build work and operator state), then streams the probe child.
class HashJoinIterator : public RowIterator {
 public:
  HashJoinIterator(RowIteratorPtr build, RowIteratorPtr probe,
                   size_t build_key, size_t probe_key, VolcanoContext* ctx);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return schema_; }

 private:
  RowIteratorPtr build_;
  RowIteratorPtr probe_;
  size_t build_key_;
  size_t probe_key_;
  VolcanoContext* ctx_;
  Schema schema_;
  std::unordered_map<uint64_t, std::vector<size_t>> table_;
  std::vector<Row> build_rows_;
  Row current_probe_;
  std::vector<size_t> current_matches_;
  size_t match_pos_ = 0;
};

/// Group-by: consumes everything at Open (delegating the actual
/// aggregation to the vectorized operator so semantics are identical to
/// the data-flow engine), then emits result rows.
class HashAggIterator : public RowIterator {
 public:
  static Result<RowIteratorPtr> Make(RowIteratorPtr child,
                                     const std::vector<std::string>& group_by,
                                     const std::vector<AggSpec>& specs,
                                     VolcanoContext* ctx);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override;

 private:
  HashAggIterator(RowIteratorPtr child, OperatorPtr agg, VolcanoContext* ctx)
      : child_(std::move(child)), agg_(std::move(agg)), ctx_(ctx) {}

  RowIteratorPtr child_;
  OperatorPtr agg_;
  VolcanoContext* ctx_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

class SortIterator : public RowIterator {
 public:
  static Result<RowIteratorPtr> Make(RowIteratorPtr child,
                                     const std::string& sort_col,
                                     bool descending, uint64_t limit,
                                     VolcanoContext* ctx);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  SortIterator(RowIteratorPtr child, size_t sort_col, bool descending,
               uint64_t limit, VolcanoContext* ctx)
      : child_(std::move(child)),
        sort_col_(sort_col),
        descending_(descending),
        limit_(limit),
        ctx_(ctx) {}

  RowIteratorPtr child_;
  size_t sort_col_;
  bool descending_;
  uint64_t limit_;
  VolcanoContext* ctx_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class LimitIterator : public RowIterator {
 public:
  LimitIterator(RowIteratorPtr child, uint64_t limit)
      : child_(std::move(child)), limit_(limit) {}
  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  RowIteratorPtr child_;
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

/// Drains an iterator tree into rows (Open + Next loop).
Result<std::vector<Row>> DrainIterator(RowIterator* it);

}  // namespace dflow::volcano

#endif  // DFLOW_VOLCANO_ITERATORS_H_

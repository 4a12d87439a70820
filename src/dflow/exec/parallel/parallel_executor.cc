#include "dflow/exec/parallel/parallel_executor.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "dflow/exec/parallel/error_slot.h"
#include "dflow/exec/parallel/mpmc_queue.h"
#include "dflow/exec/parallel/task_scheduler.h"
#include "dflow/types/value.h"
#include "dflow/vector/column_vector.h"

namespace dflow::parallel {

namespace {

/// Worker output in flight to the merge: the chunks one morsel (or one
/// worker's Finish) produced, tagged with its position in the canonical
/// order.
struct ResultItem {
  uint64_t sequence = 0;
  std::vector<DataChunk> chunks;
};

/// Pushes `chunk` through ops[from..] and appends the tail-stage output.
Status PushThroughChain(std::vector<OperatorPtr>* ops, size_t from,
                        DataChunk chunk, std::vector<DataChunk>* out) {
  std::vector<DataChunk> current;
  current.push_back(std::move(chunk));
  for (size_t i = from; i < ops->size(); ++i) {
    std::vector<DataChunk> next;
    for (DataChunk& c : current) {
      DFLOW_RETURN_NOT_OK((*ops)[i]->Push(std::move(c), &next));
    }
    current = std::move(next);
  }
  for (DataChunk& c : current) out->push_back(std::move(c));
  return Status::OK();
}

/// Finishes each op in order, flowing its flush output through the rest of
/// the chain (a stage's Finish runs only after it has seen every upstream
/// chunk, including upstream Finish output).
Status FinishChain(std::vector<OperatorPtr>* ops,
                   std::vector<DataChunk>* out) {
  for (size_t i = 0; i < ops->size(); ++i) {
    std::vector<DataChunk> flushed;
    DFLOW_RETURN_NOT_OK((*ops)[i]->Finish(&flushed));
    for (DataChunk& c : flushed) {
      DFLOW_RETURN_NOT_OK(PushThroughChain(ops, i + 1, std::move(c), out));
    }
  }
  return Status::OK();
}

/// Runs chunks through an optional single-threaded chain (push + finish).
Result<std::vector<DataChunk>> RunSerialChain(
    const ChainFactory& factory, std::vector<DataChunk> chunks) {
  if (!factory) return chunks;
  DFLOW_ASSIGN_OR_RETURN(std::vector<OperatorPtr> ops, factory());
  if (ops.empty()) return chunks;
  std::vector<DataChunk> out;
  for (DataChunk& c : chunks) {
    DFLOW_RETURN_NOT_OK(PushThroughChain(&ops, 0, std::move(c), &out));
  }
  DFLOW_RETURN_NOT_OK(FinishChain(&ops, &out));
  return out;
}

/// Concatenates row-compatible chunks and re-emits them sorted by every
/// column left-to-right (Value::Compare: nulls equal, null < non-null).
/// The total order this induces is a function of the row *set* alone, so
/// the emitted stream is identical across runs, worker counts, and steal
/// schedules.
std::vector<DataChunk> CanonicalOrder(const std::vector<DataChunk>& chunks) {
  size_t total_rows = 0;
  for (const DataChunk& c : chunks) total_rows += c.num_rows();
  if (total_rows == 0) return chunks;

  DataChunk all;
  bool first = true;
  for (const DataChunk& c : chunks) {
    if (c.num_rows() == 0 && c.num_columns() == 0) continue;
    if (first) {
      all = c;
      first = false;
      continue;
    }
    all.Append(c);
  }

  std::vector<uint32_t> order(all.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&all](uint32_t a, uint32_t b) {
                     for (size_t col = 0; col < all.num_columns(); ++col) {
                       const int cmp =
                           all.GetValue(a, col).Compare(all.GetValue(b, col));
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });

  std::vector<DataChunk> out;
  for (size_t begin = 0; begin < order.size(); begin += kVectorSize) {
    const size_t end = std::min(order.size(), begin + kVectorSize);
    std::vector<uint32_t> slice(order.begin() + begin, order.begin() + end);
    out.push_back(all.Gather(SelectionVector(std::move(slice))));
  }
  return out;
}

}  // namespace

Result<std::vector<DataChunk>> RunMorselPipeline(
    const std::vector<DataChunk>& inputs, const ParallelPipelineSpec& spec,
    const ParallelExecOptions& options, ParallelExecStats* stats) {
  if (!spec.make_worker_chain) {
    return Status::InvalidArgument("parallel pipeline needs a worker chain");
  }
  if (options.workers == 0) {
    return Status::InvalidArgument("parallel pipeline needs >= 1 worker");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument(
        "result queue needs >= 1 credit of capacity");
  }
  const auto wall_start = std::chrono::steady_clock::now();

  const std::vector<Morsel> morsels =
      SplitIntoMorsels(inputs, options.morsel_rows);
  const uint32_t workers = options.workers;

  // One private operator chain per worker: stateful stages (partial
  // aggregation, counting) accumulate worker-locally and flush at Finish.
  std::vector<std::vector<OperatorPtr>> chains;
  chains.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<OperatorPtr> chain,
                           spec.make_worker_chain());
    chains.push_back(std::move(chain));
  }

  MpmcQueue<ResultItem> queue(options.queue_capacity);
  ErrorSlot errors;

  WorkStealingScheduler::Options sched_options;
  sched_options.workers = workers;
  sched_options.steal_seed = options.steal_seed;
  std::vector<DataChunk> collected;
  uint64_t rows_in = 0;
  uint64_t queue_items = 0;
  WorkStealingScheduler::Stats sched_stats;
  {
    WorkStealingScheduler scheduler(sched_options);

    // One task per morsel, dealt round-robin; stealing rebalances skew.
    for (size_t i = 0; i < morsels.size(); ++i) {
      const Morsel& morsel = morsels[i];
      rows_in += morsel.num_rows();
      scheduler.SubmitTo(
          static_cast<uint32_t>(i % workers), [&, morsel](uint32_t worker) {
            if (errors.failed()) return;
            std::vector<DataChunk> outs;
            const Status s = PushThroughChain(&chains[worker], 0,
                                              morsel.Materialize(), &outs);
            if (!s.ok()) {
              errors.Record(s);
              return;
            }
            if (outs.empty()) return;
            // Blocks when the merge side is `queue_capacity` chunks
            // behind — the same backpressure the simulator applies via
            // edge credits.
            queue.Push(ResultItem{morsel.sequence, std::move(outs)});
          });
    }

    // The closer drains the scheduler, flushes each worker chain in worker
    // order (sequence-tagged after every morsel), and closes the queue so
    // the collector below terminates.
    const uint64_t finish_base = morsels.size();
    std::thread closer([&] {
      errors.Record(scheduler.Wait());
      if (!errors.failed()) {
        for (uint32_t w = 0; w < workers; ++w) {
          std::vector<DataChunk> flushed;
          const Status s = FinishChain(&chains[w], &flushed);
          if (!s.ok()) {
            errors.Record(s);
            break;
          }
          if (flushed.empty()) continue;
          queue.Push(ResultItem{finish_base + w, std::move(flushed)});
        }
      }
      queue.Close();
    });

    // Collect (this thread is the merge-side consumer), then restore the
    // canonical order: results sorted by originating sequence.
    std::vector<ResultItem> items;
    ResultItem item;
    while (queue.Pop(&item) == QueueOp::kOk) {
      ++queue_items;
      items.push_back(std::move(item));
    }
    closer.join();
    sched_stats = scheduler.stats();

    std::sort(items.begin(), items.end(),
              [](const ResultItem& a, const ResultItem& b) {
                return a.sequence < b.sequence;
              });
    for (ResultItem& it : items) {
      for (DataChunk& c : it.chunks) collected.push_back(std::move(c));
    }
  }  // joins the worker pool

  DFLOW_RETURN_NOT_OK(errors.first());

  DFLOW_ASSIGN_OR_RETURN(
      std::vector<DataChunk> merged,
      RunSerialChain(spec.make_merge_chain, std::move(collected)));
  if (spec.canonical_order) merged = CanonicalOrder(merged);
  DFLOW_ASSIGN_OR_RETURN(
      std::vector<DataChunk> final_chunks,
      RunSerialChain(spec.make_output_chain, std::move(merged)));

  if (stats != nullptr) {
    stats->morsels = morsels.size();
    stats->rows_in = rows_in;
    stats->tasks_run = sched_stats.tasks_run;
    stats->steals = sched_stats.steals;
    stats->queue_items = queue_items;
    stats->wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
  }
  return final_chunks;
}

}  // namespace dflow::parallel

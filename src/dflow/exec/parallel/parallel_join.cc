#include "dflow/exec/parallel/parallel_join.h"

#include <chrono>
#include <deque>
#include <memory>
#include <utility>

#include "dflow/common/lock_rank.h"
#include "dflow/common/thread_annotations.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/join.h"
#include "dflow/exec/parallel/error_slot.h"
#include "dflow/exec/parallel/morsel.h"
#include "dflow/exec/parallel/task_scheduler.h"
#include "dflow/exec/partition.h"

namespace dflow::parallel {

namespace {

/// One join partition during the BUILD phase: workers route build rows to
/// shards and insert under the shard lock — distinct partitions insert
/// concurrently, same-partition inserts serialize. Insert order inside a
/// partition varies with scheduling, but a hash table's *contents* — and
/// so its probe match counts — do not. After the build barrier
/// (scheduler.Wait()) the tables are immutable and the PROBE phase reads
/// them lock-free through the plain `tables` vector: the barrier, not the
/// mutex, publishes them (phase-based hand-off, DESIGN.md §9).
struct BuildShard {
  RankedMutex mu{LockRank::kJoinPartition};
  JoinHashTable* table DFLOW_PT_GUARDED_BY(mu) = nullptr;

  Status Insert(const DataChunk& rows) DFLOW_EXCLUDES(mu) {
    RankedMutexLock lock(&mu);
    return table->Insert(rows);
  }
};

/// Probe-side match counters, merged per task under one leaf lock.
class MatchCounters {
 public:
  explicit MatchCounters(uint32_t partitions)
      : counts_(partitions, 0) {}

  void Merge(const std::vector<int64_t>& local) DFLOW_EXCLUDES(mu_) {
    RankedMutexLock lock(&mu_);
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += local[i];
  }

  std::vector<int64_t> Take() DFLOW_EXCLUDES(mu_) {
    RankedMutexLock lock(&mu_);
    return std::move(counts_);
  }

 private:
  RankedMutex mu_{LockRank::kJoinPartition};
  std::vector<int64_t> counts_ DFLOW_GUARDED_BY(mu_);
};

}  // namespace

Result<ParallelJoinResult> RunParallelHashJoin(
    const ParallelJoinInputs& inputs, const ParallelExecOptions& options,
    ParallelExecStats* stats) {
  if (inputs.partitions == 0) {
    return Status::InvalidArgument("join needs >= 1 partition");
  }
  if (options.workers == 0) {
    return Status::InvalidArgument("join needs >= 1 worker");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const uint32_t p = inputs.partitions;

  std::vector<std::shared_ptr<JoinHashTable>> tables;
  tables.reserve(p);
  for (uint32_t i = 0; i < p; ++i) {
    tables.push_back(
        std::make_shared<JoinHashTable>(inputs.build_schema, inputs.build_key));
  }
  // std::deque: BuildShard holds a RankedMutex and cannot move.
  std::deque<BuildShard> shards(p);
  for (uint32_t i = 0; i < p; ++i) shards[i].table = tables[i].get();

  ErrorSlot errors;

  WorkStealingScheduler::Options sched_options;
  sched_options.workers = options.workers;
  sched_options.steal_seed = options.steal_seed;

  const HashPartitioner build_part(inputs.build_key, p);
  const HashPartitioner probe_part(inputs.probe_key, p);

  uint64_t tasks = 0;
  uint64_t steals = 0;
  uint64_t morsel_count = 0;
  uint64_t probe_rows = 0;

  // ------------------------------------------------------- build phase
  {
    const std::vector<Morsel> morsels =
        SplitIntoMorsels(inputs.build_chunks, options.morsel_rows);
    morsel_count += morsels.size();
    WorkStealingScheduler scheduler(sched_options);
    for (size_t i = 0; i < morsels.size(); ++i) {
      const Morsel& morsel = morsels[i];
      scheduler.SubmitTo(
          static_cast<uint32_t>(i % options.workers),
          [&, morsel](uint32_t) {
            if (errors.failed()) return;
            const DataChunk chunk = morsel.Materialize();
            std::vector<DataChunk> parts;
            Status s = build_part.Split(chunk, &parts);
            if (!s.ok()) {
              errors.Record(s);
              return;
            }
            for (uint32_t part = 0; part < p; ++part) {
              if (parts[part].empty()) continue;
              s = shards[part].Insert(parts[part]);
              if (!s.ok()) {
                errors.Record(s);
                return;
              }
            }
          });
    }
    errors.Record(scheduler.Wait());
    const WorkStealingScheduler::Stats ss = scheduler.stats();
    tasks += ss.tasks_run;
    steals += ss.steals;
  }
  DFLOW_RETURN_NOT_OK(errors.first());

  // ------------------------------------------------------- probe phase
  MatchCounters counters(p);
  {
    const std::vector<Morsel> morsels =
        SplitIntoMorsels(inputs.probe_chunks, options.morsel_rows);
    morsel_count += morsels.size();
    for (const Morsel& m : morsels) probe_rows += m.num_rows();
    WorkStealingScheduler scheduler(sched_options);
    for (size_t i = 0; i < morsels.size(); ++i) {
      const Morsel& morsel = morsels[i];
      scheduler.SubmitTo(
          static_cast<uint32_t>(i % options.workers),
          [&, morsel](uint32_t) {
            if (errors.failed()) return;
            DataChunk chunk = morsel.Materialize();
            if (inputs.probe_filter != nullptr) {
              auto filter = FilterOperator::Make(inputs.probe_filter,
                                                 inputs.probe_schema);
              if (!filter.ok()) {
                errors.Record(filter.status());
                return;
              }
              std::vector<DataChunk> kept;
              const Status s =
                  filter.ValueOrDie()->Push(std::move(chunk), &kept);
              if (!s.ok()) {
                errors.Record(s);
                return;
              }
              if (kept.empty()) return;
              chunk = std::move(kept[0]);
              for (size_t k = 1; k < kept.size(); ++k) {
                for (size_t r = 0; r < kept[k].num_rows(); ++r) {
                  chunk.AppendRowFrom(kept[k], r);
                }
              }
            }
            if (chunk.empty()) return;
            std::vector<DataChunk> parts;
            Status s = probe_part.Split(chunk, &parts);
            if (!s.ok()) {
              errors.Record(s);
              return;
            }
            std::vector<int64_t> local(p, 0);
            for (uint32_t part = 0; part < p; ++part) {
              if (parts[part].empty()) continue;
              std::vector<std::pair<uint32_t, uint32_t>> matches;
              // Lock-free read: the build barrier published the tables and
              // nothing mutates them during the probe phase.
              s = tables[part]->Probe(parts[part].column(inputs.probe_key),
                                      &matches);
              if (!s.ok()) {
                errors.Record(s);
                return;
              }
              local[part] += static_cast<int64_t>(matches.size());
            }
            counters.Merge(local);
          });
    }
    errors.Record(scheduler.Wait());
    const WorkStealingScheduler::Stats ss = scheduler.stats();
    tasks += ss.tasks_run;
    steals += ss.steals;
  }
  DFLOW_RETURN_NOT_OK(errors.first());

  ParallelJoinResult result;
  result.partition_counts = counters.Take();
  for (int64_t c : result.partition_counts) result.total_rows += c;
  result.probe_rows_in = probe_rows;
  if (stats != nullptr) {
    stats->morsels = morsel_count;
    stats->rows_in = probe_rows;
    stats->tasks_run = tasks;
    stats->steals = steals;
    stats->wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
  }
  return result;
}

}  // namespace dflow::parallel

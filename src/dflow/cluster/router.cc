#include "dflow/cluster/router.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "dflow/common/hash.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/join.h"
#include "dflow/exec/local_executor.h"
#include "dflow/exec/misc_ops.h"

namespace dflow::cluster {
namespace {

/// Modeled per-row cost of router-level operators (pre-aggregation, merge,
/// join build/probe on exchanged rows). The heavy lifting — scans, filters,
/// projections — is priced by each node's fabric simulator; this constant
/// only keeps the cluster-level merge work from being free.
constexpr sim::SimTime kClusterOpNsPerRow = 40;

/// Output column names of a local fragment (scan+filter+project only, so
/// either the projection names or, select-all, the full table schema).
std::vector<std::string> LocalOutputNames(const QuerySpec& spec,
                                          const Schema& table_schema) {
  if (!spec.projections.empty()) return spec.projection_names;
  std::vector<std::string> names;
  names.reserve(table_schema.num_fields());
  for (const Field& f : table_schema.fields()) names.push_back(f.name);
  return names;
}

/// Schema of the chunks flowing between fragments, recovered from the
/// first non-empty chunk (chunks carry types but not names). nullopt when
/// every node produced zero rows.
std::optional<Schema> InferSchema(
    const std::vector<std::vector<DataChunk>>& per_node,
    const std::vector<std::string>& names) {
  for (const auto& chunks : per_node) {
    for (const DataChunk& chunk : chunks) {
      if (chunk.num_rows() == 0 || chunk.num_columns() != names.size()) {
        continue;
      }
      std::vector<Field> fields;
      fields.reserve(names.size());
      for (size_t i = 0; i < names.size(); ++i) {
        fields.push_back(Field{names[i], chunk.column(i).type()});
      }
      return Schema(std::move(fields));
    }
  }
  return std::nullopt;
}

std::optional<Schema> InferSchema(const std::vector<DataChunk>& chunks,
                                  const std::vector<std::string>& names) {
  std::vector<std::vector<DataChunk>> wrap;
  wrap.push_back(chunks);
  return InferSchema(wrap, names);
}

/// Column names of the final (coordinator-side) result, for resolving the
/// ORDER BY column.
std::vector<std::string> FinalOutputNames(const QuerySpec& spec,
                                          const Schema& table_schema) {
  if (spec.count_only) return {"count"};
  if (!spec.aggregates.empty()) {
    std::vector<std::string> names = spec.group_by;
    for (const AggSpec& a : spec.aggregates) names.push_back(a.output_name);
    return names;
  }
  return LocalOutputNames(spec, table_schema);
}

}  // namespace

std::string_view TaskStateToString(TaskInfo::State state) {
  switch (state) {
    case TaskInfo::State::kRegistered:
      return "REGISTERED";
    case TaskInfo::State::kRunning:
      return "RUNNING";
    case TaskInfo::State::kDone:
      return "DONE";
    case TaskInfo::State::kCancelled:
      return "CANCELLED";
    case TaskInfo::State::kFailed:
      return "FAILED";
  }
  return "?";
}

QueryRouter::QueryRouter(Cluster* cluster, RouterOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    schedulers_.push_back(std::make_unique<Scheduler>(&cluster_->node(i)));
    ledgers_.push_back(std::make_unique<DemandLedger>());
  }
  if (options_.coordinator < 0 ||
      options_.coordinator >= cluster_->num_nodes() ||
      !cluster_->node_alive(options_.coordinator)) {
    options_.coordinator = cluster_->AliveNodes().empty()
                               ? 0
                               : cluster_->AliveNodes().front();
  }
}

Status QueryRouter::PrepareCluster() {
  if (cluster_->needs_reshard()) {
    DFLOW_RETURN_NOT_OK(cluster_->ReshardAll());
    // The coordinator itself may have been the lost node: re-home it.
    if (!cluster_->node_alive(options_.coordinator)) {
      const std::vector<int> alive = cluster_->AliveNodes();
      if (alive.empty()) {
        return Status::InvalidArgument("cluster has no alive nodes");
      }
      options_.coordinator = alive.front();
    }
  }
  return Status::OK();
}

Result<QueryResult> QueryRouter::RunLocalFragment(int node,
                                                  const QuerySpec& spec) {
  Engine& engine = cluster_->node(node);
  // Charge this fragment's estimated demand to the node's ledger for the
  // duration of the run — the same charge/release discipline the serving
  // loop applies, kept per node so a hot shard's commitment is visible.
  CostEstimate cost;
  Result<std::vector<RankedPlacement>> variants = engine.PlanVariants(spec);
  if (variants.ok() && !variants.ValueOrDie().empty()) {
    cost = variants.ValueOrDie()[0].cost;
  }
  ledgers_[node]->Charge(*schedulers_[node], cost);
  ledger_charges_++;
  ExecOptions exec;
  exec.placement = options_.placement;
  exec.verify = options_.verify;
  Result<QueryResult> result = engine.Execute(spec, exec);
  ledgers_[node]->Release(*schedulers_[node], cost);
  ledger_releases_++;
  return result;
}

void QueryRouter::DetectStragglers(DistributedResult* result) {
  std::vector<sim::SimTime> times;
  for (const TaskInfo& task : result->tasks) {
    if (task.fragment == "local") times.push_back(task.local_ns);
  }
  if (times.size() < 2) return;
  std::sort(times.begin(), times.end());
  const sim::SimTime median = times[times.size() / 2];
  if (median == 0) return;
  const double threshold =
      static_cast<double>(median) * cluster_->config().straggler_factor;
  for (TaskInfo& task : result->tasks) {
    if (task.fragment != "local") continue;
    if (static_cast<double>(task.local_ns) > threshold) {
      task.straggler = true;
      result->straggler_events++;
    }
  }
}

Result<int> QueryRouter::HomeNode(const std::string& tenant) const {
  const std::vector<int> alive = cluster_->AliveNodes();
  if (alive.empty()) {
    return Status::InvalidArgument("cluster has no alive nodes");
  }
  return alive[HashString(tenant) % alive.size()];
}

Result<DistributedResult> QueryRouter::ExecuteQuery(const QuerySpec& spec) {
  DFLOW_RETURN_NOT_OK(PrepareCluster());
  const std::vector<int> alive = cluster_->AliveNodes();
  if (alive.empty()) {
    return Status::InvalidArgument("cluster has no alive nodes");
  }
  const int n = cluster_->num_nodes();
  const int coord = options_.coordinator;
  DistributedResult result;

  DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<Table> any_shard,
                         cluster_->node(alive.front()).catalog().Lookup(
                             spec.table));
  const Schema& table_schema = any_shard->schema();

  // ---- Exchange-plan verification: the VY_XCHG_* family runs over the
  // plan snapshot before any frame moves; strict mode refuses errors.
  const bool has_agg = !spec.count_only && !spec.aggregates.empty();
  const bool grouped = has_agg && !spec.group_by.empty();
  {
    verify::ExchangePlanSpec plan;
    plan.num_nodes = n;
    plan.lost_nodes = cluster_->LostNodes();
    plan.lossy_links = cluster_->link_faults_armed();
    for (int i : alive) plan.fragments.push_back("scan@" + std::to_string(i));
    if (grouped) {
      for (int i : alive) {
        plan.fragments.push_back("merge@" + std::to_string(i));
      }
    }
    plan.fragments.push_back("coord");
    const uint32_t credits = cluster_->config().xlink_credits;
    if (grouped) {
      verify::ExchangeSpec shuffle;
      shuffle.name = "shuffle.partial";
      shuffle.kind = verify::ExchangeKind::kShuffle;
      shuffle.from_nodes = alive;
      shuffle.to_nodes = alive;
      shuffle.partition_count = static_cast<uint32_t>(alive.size());
      shuffle.credits = credits;
      shuffle.key_col = 0;  // group columns lead the partial layout
      shuffle.input_arity =
          static_cast<int>(spec.group_by.size() + spec.aggregates.size());
      shuffle.consumer = "merge@" + std::to_string(alive.front());
      plan.exchanges.push_back(std::move(shuffle));
    }
    verify::ExchangeSpec gather;
    gather.name = "gather.result";
    gather.kind = verify::ExchangeKind::kGather;
    gather.from_nodes = alive;
    gather.to_nodes = {coord};
    gather.credits = credits;
    gather.consumer = "coord";
    plan.exchanges.push_back(std::move(gather));
    result.verify = verify::VerifyExchangePlan(plan);
    if (options_.verify == verify::VerifyMode::kStrict &&
        !result.verify.ok()) {
      return Status::InvalidArgument("exchange plan rejected: " +
                                     result.verify.ToString());
    }
  }

  // ---- Phase A: per-node local fragments, each on its own fabric.
  // Aggregation, ordering and limits move to the merge phases; the scan/
  // filter/project work (the bytes-heavy part) runs against each shard.
  QuerySpec local_spec = spec;
  local_spec.order_by.reset();
  local_spec.limit = 0;
  if (!spec.count_only) {
    local_spec.aggregates.clear();
    local_spec.group_by.clear();
  }

  std::vector<std::vector<DataChunk>> local(n);
  std::vector<sim::SimTime> ready(n, 0);
  const ClusterFaultConfig& fault = cluster_->config().fault;
  for (int i : alive) {
    TaskInfo task;
    task.node = i;
    task.fragment = "local";
    task.state = TaskInfo::State::kRunning;
    DFLOW_ASSIGN_OR_RETURN(QueryResult run, RunLocalFragment(i, local_spec));
    sim::SimTime t = run.report.sim_ns;
    if (fault.slow_node == i && fault.slow_factor > 1.0) {
      t = static_cast<sim::SimTime>(static_cast<double>(t) *
                                    fault.slow_factor);
    }
    task.local_ns = t;
    task.state = TaskInfo::State::kDone;
    local[i] = std::move(run.chunks);
    ready[i] = t;
    result.tasks.push_back(std::move(task));
  }
  DetectStragglers(&result);

  // Maps a failed exchange onto the result: stable outcome code, tasks
  // closed out, no rows.
  auto fail_with = [&](const ExchangeResult& xr) {
    result.outcome = std::string(ExchangeOutcomeToString(xr.outcome));
    result.exchange.Accumulate(xr.stats);
    TaskInfo task;
    task.node = coord;
    task.fragment = "coord";
    task.state = xr.outcome == ExchangeOutcome::kCancelled
                     ? TaskInfo::State::kCancelled
                     : TaskInfo::State::kFailed;
    result.tasks.push_back(std::move(task));
    return result;
  };

  const std::vector<std::string> local_names =
      LocalOutputNames(spec, table_schema);

  // ---- Phases B/C by query shape.
  if (spec.count_only) {
    // Per-node counts gather to the coordinator, which sums them.
    ExchangeOperator gather(
        cluster_, {verify::ExchangeKind::kGather, 0, coord,
                   options_.cancel_at_ns, "gather.count"});
    DFLOW_ASSIGN_OR_RETURN(ExchangeResult xr, gather.Run(local, ready));
    if (xr.outcome != ExchangeOutcome::kDone) return fail_with(xr);
    result.exchange.Accumulate(xr.stats);
    int64_t total = 0;
    for (const DataChunk& chunk : xr.received[coord]) {
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        total += chunk.GetValue(r, 0).AsInt64();
      }
    }
    DataChunk out(std::vector<ColumnVector>{ColumnVector::FromInt64({total})});
    result.chunks.push_back(std::move(out));
    result.makespan_ns = xr.done_ns[coord] + kClusterOpNsPerRow;
  } else if (has_agg) {
    // Pre-aggregate per node, shuffle partial states so each group has one
    // home, merge, and gather merged rows to the coordinator (global
    // aggregates skip the shuffle: one kFinal merge at the coordinator).
    std::optional<Schema> in_schema = InferSchema(local, local_names);
    if (!in_schema.has_value()) {
      // Zero rows survived the filter on every shard, so the distributed
      // answer equals the full query over any (empty-result) shard: run it
      // on the coordinator, which also yields the scalar-aggregate
      // empty-state row with the right types.
      DFLOW_ASSIGN_OR_RETURN(QueryResult run, RunLocalFragment(coord, spec));
      result.chunks = std::move(run.chunks);
      sim::SimTime worst = 0;
      for (const TaskInfo& t : result.tasks) worst = std::max(worst, t.local_ns);
      result.makespan_ns = worst + run.report.sim_ns;
    } else {
      std::vector<std::vector<DataChunk>> partial(n);
      Schema partial_schema;
      for (int i : alive) {
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr agg,
            HashAggregateOperator::Make(*in_schema, spec.group_by,
                                        spec.aggregates, AggMode::kPartial));
        partial_schema = agg->output_schema();
        ready[i] += TotalRows(local[i]) * kClusterOpNsPerRow;
        DFLOW_ASSIGN_OR_RETURN(
            partial[i], RunLocalPipeline(std::move(local[i]), {agg.get()}));
      }
      const std::vector<AggSpec> merge_specs = MakeMergeSpecs(spec.aggregates);
      if (grouped) {
        DFLOW_ASSIGN_OR_RETURN(size_t key_col,
                               partial_schema.FieldIndex(spec.group_by[0]));
        ExchangeOperator shuffle(
            cluster_, {verify::ExchangeKind::kShuffle, key_col, coord,
                       options_.cancel_at_ns, "shuffle.partial"});
        DFLOW_ASSIGN_OR_RETURN(ExchangeResult xr, shuffle.Run(partial, ready));
        if (xr.outcome != ExchangeOutcome::kDone) return fail_with(xr);
        result.exchange.Accumulate(xr.stats);
        std::vector<std::vector<DataChunk>> merged(n);
        std::vector<sim::SimTime> merged_ready(n, 0);
        for (int i : alive) {
          TaskInfo task;
          task.node = i;
          task.fragment = "merge";
          DFLOW_ASSIGN_OR_RETURN(
              OperatorPtr fin,
              HashAggregateOperator::Make(partial_schema, spec.group_by,
                                          merge_specs, AggMode::kFinal));
          merged_ready[i] =
              xr.done_ns[i] +
              TotalRows(xr.received[i]) * kClusterOpNsPerRow;
          DFLOW_ASSIGN_OR_RETURN(
              merged[i],
              RunLocalPipeline(std::move(xr.received[i]), {fin.get()}));
          task.state = TaskInfo::State::kDone;
          result.tasks.push_back(std::move(task));
        }
        ExchangeOperator gather(
            cluster_, {verify::ExchangeKind::kGather, 0, coord,
                       options_.cancel_at_ns, "gather.result"});
        DFLOW_ASSIGN_OR_RETURN(ExchangeResult gr,
                               gather.Run(merged, merged_ready));
        if (gr.outcome != ExchangeOutcome::kDone) return fail_with(gr);
        result.exchange.Accumulate(gr.stats);
        result.chunks = std::move(gr.received[coord]);
        result.makespan_ns =
            gr.done_ns[coord] + TotalRows(result.chunks) * kClusterOpNsPerRow;
      } else {
        // Global aggregate: gather partial states, one merge at the
        // coordinator (which emits the empty-state row when nothing came).
        ExchangeOperator gather(
            cluster_, {verify::ExchangeKind::kGather, 0, coord,
                       options_.cancel_at_ns, "gather.result"});
        DFLOW_ASSIGN_OR_RETURN(ExchangeResult xr, gather.Run(partial, ready));
        if (xr.outcome != ExchangeOutcome::kDone) return fail_with(xr);
        result.exchange.Accumulate(xr.stats);
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr fin,
            HashAggregateOperator::Make(partial_schema, spec.group_by,
                                        merge_specs, AggMode::kFinal));
        result.makespan_ns =
            xr.done_ns[coord] +
            TotalRows(xr.received[coord]) * kClusterOpNsPerRow;
        DFLOW_ASSIGN_OR_RETURN(
            result.chunks,
            RunLocalPipeline(std::move(xr.received[coord]), {fin.get()}));
      }
    }
  } else {
    // Plain select: gather every surviving row to the coordinator.
    ExchangeOperator gather(
        cluster_, {verify::ExchangeKind::kGather, 0, coord,
                   options_.cancel_at_ns, "gather.result"});
    DFLOW_ASSIGN_OR_RETURN(ExchangeResult xr, gather.Run(local, ready));
    if (xr.outcome != ExchangeOutcome::kDone) return fail_with(xr);
    result.exchange.Accumulate(xr.stats);
    result.chunks = std::move(xr.received[coord]);
    result.makespan_ns =
        xr.done_ns[coord] + TotalRows(result.chunks) * kClusterOpNsPerRow;
  }

  // ---- ORDER BY / LIMIT at the coordinator, over the gathered result.
  // Same operators as the single-node engine, so tie-breaking and top-K
  // selection are identical by construction.
  if (!spec.count_only &&
      (spec.order_by.has_value() || spec.limit > 0)) {
    const std::vector<std::string> final_names =
        FinalOutputNames(spec, table_schema);
    std::optional<Schema> out_schema = InferSchema(result.chunks, final_names);
    if (out_schema.has_value()) {
      std::vector<OperatorPtr> owned;
      std::vector<Operator*> ops;
      if (spec.order_by.has_value()) {
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr sort,
            SortOperator::Make(*out_schema, spec.order_by->column,
                               spec.order_by->descending,
                               spec.order_by->limit));
        ops.push_back(sort.get());
        owned.push_back(std::move(sort));
      }
      if (spec.limit > 0) {
        owned.push_back(
            std::make_unique<LimitOperator>(*out_schema, spec.limit));
        ops.push_back(owned.back().get());
      }
      const uint64_t sorted_rows = TotalRows(result.chunks);
      DFLOW_ASSIGN_OR_RETURN(result.chunks,
                             RunLocalPipeline(std::move(result.chunks), ops));
      result.makespan_ns += sorted_rows * kClusterOpNsPerRow;
    }
  }

  TaskInfo task;
  task.node = coord;
  task.fragment = "coord";
  task.state = TaskInfo::State::kDone;
  result.tasks.push_back(std::move(task));
  return result;
}

Result<DistributedResult> QueryRouter::ExecuteJoin(const JoinSpec& spec) {
  DFLOW_RETURN_NOT_OK(PrepareCluster());
  const std::vector<int> alive = cluster_->AliveNodes();
  if (alive.empty()) {
    return Status::InvalidArgument("cluster has no alive nodes");
  }
  const int n = cluster_->num_nodes();
  const int coord = options_.coordinator;
  DistributedResult result;

  DFLOW_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> build_shard,
      cluster_->node(alive.front()).catalog().Lookup(spec.build_table));
  DFLOW_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> probe_shard,
      cluster_->node(alive.front()).catalog().Lookup(spec.probe_table));
  const Schema& build_schema = build_shard->schema();
  const Schema& probe_schema = probe_shard->schema();
  DFLOW_ASSIGN_OR_RETURN(size_t build_key,
                         build_schema.FieldIndex(spec.build_key));
  DFLOW_ASSIGN_OR_RETURN(size_t probe_key,
                         probe_schema.FieldIndex(spec.probe_key));

  // ---- Phase A: scan both sides locally (filter pushed to the probe
  // scan), so exchange volume is already post-filter.
  QuerySpec build_scan;
  build_scan.table = spec.build_table;
  QuerySpec probe_scan;
  probe_scan.table = spec.probe_table;
  probe_scan.filter = spec.probe_filter;

  std::vector<std::vector<DataChunk>> build_rows(n);
  std::vector<std::vector<DataChunk>> probe_rows(n);
  std::vector<sim::SimTime> ready(n, 0);
  uint64_t total_build_rows = 0;
  const ClusterFaultConfig& fault = cluster_->config().fault;
  for (int i : alive) {
    TaskInfo task;
    task.node = i;
    task.fragment = "local";
    task.state = TaskInfo::State::kRunning;
    DFLOW_ASSIGN_OR_RETURN(QueryResult b, RunLocalFragment(i, build_scan));
    DFLOW_ASSIGN_OR_RETURN(QueryResult p, RunLocalFragment(i, probe_scan));
    sim::SimTime t = b.report.sim_ns + p.report.sim_ns;
    if (fault.slow_node == i && fault.slow_factor > 1.0) {
      t = static_cast<sim::SimTime>(static_cast<double>(t) *
                                    fault.slow_factor);
    }
    task.local_ns = t;
    task.state = TaskInfo::State::kDone;
    total_build_rows += TotalRows(b.chunks);
    build_rows[i] = std::move(b.chunks);
    probe_rows[i] = std::move(p.chunks);
    ready[i] = t;
    result.tasks.push_back(std::move(task));
  }
  DetectStragglers(&result);

  const bool broadcast =
      options_.broadcast_build_max_rows > 0 &&
      total_build_rows <= options_.broadcast_build_max_rows;

  // ---- Exchange-plan verification.
  {
    verify::ExchangePlanSpec plan;
    plan.num_nodes = n;
    plan.lost_nodes = cluster_->LostNodes();
    plan.lossy_links = cluster_->link_faults_armed();
    for (int i : alive) plan.fragments.push_back("scan@" + std::to_string(i));
    for (int i : alive) plan.fragments.push_back("join@" + std::to_string(i));
    plan.fragments.push_back("coord");
    const uint32_t credits = cluster_->config().xlink_credits;
    auto add = [&](verify::ExchangeSpec x) {
      x.credits = credits;
      plan.exchanges.push_back(std::move(x));
    };
    verify::ExchangeSpec b;
    b.name = broadcast ? "broadcast.build" : "shuffle.build";
    b.kind = broadcast ? verify::ExchangeKind::kBroadcast
                       : verify::ExchangeKind::kShuffle;
    b.from_nodes = alive;
    b.to_nodes = alive;
    b.partition_count =
        broadcast ? 0 : static_cast<uint32_t>(alive.size());
    b.key_col = static_cast<int>(build_key);
    b.input_arity = static_cast<int>(build_schema.num_fields());
    b.consumer = "join@" + std::to_string(alive.front());
    add(std::move(b));
    if (!broadcast) {
      verify::ExchangeSpec p;
      p.name = "shuffle.probe";
      p.kind = verify::ExchangeKind::kShuffle;
      p.from_nodes = alive;
      p.to_nodes = alive;
      p.partition_count = static_cast<uint32_t>(alive.size());
      p.key_col = static_cast<int>(probe_key);
      p.input_arity = static_cast<int>(probe_schema.num_fields());
      p.consumer = "join@" + std::to_string(alive.front());
      add(std::move(p));
    }
    verify::ExchangeSpec g;
    g.name = "gather.counts";
    g.kind = verify::ExchangeKind::kGather;
    g.from_nodes = alive;
    g.to_nodes = {coord};
    g.consumer = "coord";
    add(std::move(g));
    result.verify = verify::VerifyExchangePlan(plan);
    if (options_.verify == verify::VerifyMode::kStrict &&
        !result.verify.ok()) {
      return Status::InvalidArgument("exchange plan rejected: " +
                                     result.verify.ToString());
    }
  }

  auto fail_with = [&](const ExchangeResult& xr) {
    result.outcome = std::string(ExchangeOutcomeToString(xr.outcome));
    result.exchange.Accumulate(xr.stats);
    TaskInfo task;
    task.node = coord;
    task.fragment = "coord";
    task.state = xr.outcome == ExchangeOutcome::kCancelled
                     ? TaskInfo::State::kCancelled
                     : TaskInfo::State::kFailed;
    result.tasks.push_back(std::move(task));
    return result;
  };

  // ---- Phase B: move the build side (shuffle by key, or broadcast when
  // small), then the probe side (stays local under broadcast).
  ExchangeOperator build_xchg(
      cluster_,
      {broadcast ? verify::ExchangeKind::kBroadcast
                 : verify::ExchangeKind::kShuffle,
       build_key, coord, options_.cancel_at_ns,
       broadcast ? "broadcast.build" : "shuffle.build"});
  DFLOW_ASSIGN_OR_RETURN(ExchangeResult bx, build_xchg.Run(build_rows, ready));
  if (bx.outcome != ExchangeOutcome::kDone) return fail_with(bx);
  result.exchange.Accumulate(bx.stats);

  ExchangeResult px;
  if (broadcast) {
    px.received = std::move(probe_rows);
    px.done_ns = ready;
    px.outcome = ExchangeOutcome::kDone;
  } else {
    ExchangeOperator probe_xchg(
        cluster_, {verify::ExchangeKind::kShuffle, probe_key, coord,
                   options_.cancel_at_ns, "shuffle.probe"});
    DFLOW_ASSIGN_OR_RETURN(px, probe_xchg.Run(probe_rows, ready));
    if (px.outcome != ExchangeOutcome::kDone) return fail_with(px);
    result.exchange.Accumulate(px.stats);
  }

  // ---- Phase C: per-node build + probe + count, then gather the counts.
  std::vector<std::vector<DataChunk>> counts(n);
  std::vector<sim::SimTime> count_ready(n, 0);
  for (int i : alive) {
    TaskInfo task;
    task.node = i;
    task.fragment = "join";
    auto table = std::make_shared<JoinHashTable>(build_schema, build_key);
    for (const DataChunk& chunk : bx.received[i]) {
      DFLOW_RETURN_NOT_OK(table->Insert(chunk));
    }
    DFLOW_ASSIGN_OR_RETURN(
        OperatorPtr probe_op,
        HashJoinProbeOperator::Make(table, probe_schema, probe_key));
    CountOperator count_op;
    const uint64_t local_work =
        table->num_rows() + TotalRows(px.received[i]);
    DFLOW_ASSIGN_OR_RETURN(
        std::vector<DataChunk> count_chunks,
        RunLocalPipeline(std::move(px.received[i]),
                         {probe_op.get(), &count_op}));
    count_ready[i] = std::max(bx.done_ns[i], px.done_ns[i]) +
                     local_work * kClusterOpNsPerRow;
    counts[i] = std::move(count_chunks);
    task.state = TaskInfo::State::kDone;
    result.tasks.push_back(std::move(task));
  }

  ExchangeOperator gather(
      cluster_, {verify::ExchangeKind::kGather, 0, coord,
                 options_.cancel_at_ns, "gather.counts"});
  DFLOW_ASSIGN_OR_RETURN(ExchangeResult gx, gather.Run(counts, count_ready));
  if (gx.outcome != ExchangeOutcome::kDone) return fail_with(gx);
  result.exchange.Accumulate(gx.stats);

  int64_t total = 0;
  for (const DataChunk& chunk : gx.received[coord]) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      total += chunk.GetValue(r, 0).AsInt64();
    }
  }
  result.total_rows = total;
  result.makespan_ns = gx.done_ns[coord] + kClusterOpNsPerRow;

  TaskInfo task;
  task.node = coord;
  task.fragment = "coord";
  task.state = TaskInfo::State::kDone;
  result.tasks.push_back(std::move(task));
  return result;
}

}  // namespace dflow::cluster

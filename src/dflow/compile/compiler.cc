// The plan compiler: lowers a prepared, strict-verified query into an
// immutable DflowProgram and rebuilds dataflow graphs from programs without
// re-planning. It is the engine's only lowering: Execute, Verify and
// ExecuteConcurrent compile a program first. These are Engine member
// functions (lowering needs the engine's private query preparation); they
// live here because the program format, the fusion pass, and the cache they
// feed are this subsystem.

#include <utility>

#include "dflow/common/logging.h"
#include "dflow/compile/compiler.h"
#include "dflow/compile/fuse.h"
#include "dflow/compile/program.h"
#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/misc_ops.h"
#include "dflow/exec/project.h"
#include "dflow/exec/scan.h"
#include "dflow/plan/fingerprint.h"

namespace dflow {

namespace {

using compile::DflowProgram;
using compile::FusedGroup;
using compile::OpCode;
using compile::ProgramOp;

/// Appends every literal of `e` (pre-order) to the pool, recording its slot.
void CollectLiterals(const Expr& e, std::vector<Value>* pool,
                     std::vector<uint32_t>* slots) {
  if (e.kind() == Expr::Kind::kLiteral) {
    slots->push_back(static_cast<uint32_t>(pool->size()));
    pool->push_back(e.value());
    return;
  }
  for (const ExprPtr& c : e.children()) CollectLiterals(*c, pool, slots);
}

struct LoweredOps {
  std::vector<ProgramOp> ops;
  std::vector<Value> literals;
};

/// Instantiates the live operator for one opcode against the running input
/// schema (updated in place). `filter` and `projections` are resolved
/// against the scan schema. The single opcode -> operator mapping: the
/// lowering types its schema table through it, and the program VM builds
/// its stages through it.
Result<OperatorPtr> InstantiateOp(const QuerySpec& spec, const ExprPtr& filter,
                                  const std::vector<ExprPtr>& projections,
                                  const ProgramOp& pop, Schema* current) {
  switch (pop.code) {
    case OpCode::kDecode:
      return OperatorPtr(new DecodeOperator(*current));
    case OpCode::kFilter:
      return FilterOperator::Make(filter, *current);
    case OpCode::kProject: {
      std::vector<ExprPtr> exprs = projections;
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          ProjectOperator::Make(std::move(exprs), spec.projection_names,
                                *current));
      *current = op->output_schema();
      return op;
    }
    case OpCode::kCount: {
      OperatorPtr op(new CountOperator());
      *current = op->output_schema();
      return op;
    }
    case OpCode::kPartialAgg: {
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          HashAggregateOperator::Make(*current, spec.group_by, spec.aggregates,
                                      AggMode::kPartial, spec.preagg_budget));
      *current = op->output_schema();
      return op;
    }
    case OpCode::kFinalAgg: {
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          HashAggregateOperator::Make(*current, spec.group_by,
                                      MakeMergeSpecs(spec.aggregates),
                                      AggMode::kFinal));
      *current = op->output_schema();
      return op;
    }
    case OpCode::kCompleteAgg: {
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          HashAggregateOperator::Make(*current, spec.group_by, spec.aggregates,
                                      AggMode::kComplete));
      *current = op->output_schema();
      return op;
    }
    case OpCode::kSort:
      return SortOperator::Make(*current, spec.order_by->column,
                                spec.order_by->descending,
                                spec.order_by->limit);
    case OpCode::kLimit:
      return OperatorPtr(new LimitOperator(*current, spec.limit));
    case OpCode::kEncode:
      return OperatorPtr(new EncodeOperator(pop.output_schema));
    case OpCode::kReDecode:
      return OperatorPtr(new DecodeOperator(pop.output_schema));
  }
  return Status::Internal("unknown opcode in program");
}

/// Lowers (prepared, placement) to the final instruction list. Plan
/// normalization happens here and only here: a CPU-placed partial
/// aggregate collapses into a single complete aggregate, and
/// compress_uplink inserts the encode/decode pair around the network hop.
Result<LoweredOps> LowerStages(const QuerySpec& spec,
                               const Engine::PreparedQuery& prepared,
                               const Placement& placement) {
  using SK = Engine::PreparedQuery::StageKind;
  LoweredOps out;
  Schema current = prepared.scan_schema;
  bool partial_dropped = false;
  for (size_t i = 0; i < prepared.kinds.size(); ++i) {
    ProgramOp pop;
    pop.site = placement.sites[i];
    switch (prepared.kinds[i]) {
      case SK::kDecode:
        pop.code = OpCode::kDecode;
        pop.label = "decode";
        break;
      case SK::kFilter:
        pop.code = OpCode::kFilter;
        pop.label = "filter";
        if (prepared.filter != nullptr) {
          CollectLiterals(*prepared.filter, &out.literals, &pop.literal_slots);
        }
        break;
      case SK::kProject:
        pop.code = OpCode::kProject;
        pop.label = "project";
        for (const ExprPtr& p : prepared.projections) {
          CollectLiterals(*p, &out.literals, &pop.literal_slots);
        }
        break;
      case SK::kCount:
        pop.code = OpCode::kCount;
        pop.label = "count";
        break;
      case SK::kPartialAgg:
        if (pop.site == Site::kCpu) {
          partial_dropped = true;
          continue;
        }
        pop.code = OpCode::kPartialAgg;
        pop.label = "agg_partial";
        break;
      case SK::kFinalAgg:
        pop.code = partial_dropped ? OpCode::kCompleteAgg : OpCode::kFinalAgg;
        pop.label = "agg_final";
        break;
      case SK::kSort:
        pop.code = OpCode::kSort;
        pop.label = "sort";
        break;
      case SK::kLimit:
        pop.code = OpCode::kLimit;
        pop.label = "limit";
        break;
    }
    // Instantiating the operator types the op's output schema.
    DFLOW_RETURN_NOT_OK(InstantiateOp(spec, prepared.filter,
                                      prepared.projections, pop, &current)
                            .status());
    pop.output_schema = current;
    out.ops.push_back(std::move(pop));
  }

  if (spec.compress_uplink) {
    size_t last_storage = out.ops.size();
    for (size_t i = 0; i < out.ops.size(); ++i) {
      if (out.ops[i].site <= Site::kStorageNic) last_storage = i;
    }
    if (last_storage != out.ops.size()) {
      const Schema enc_schema = out.ops[last_storage].output_schema;
      Site dec_site = Site::kCpu;
      for (size_t i = last_storage + 1; i < out.ops.size(); ++i) {
        if (out.ops[i].site > Site::kStorageNic) {
          dec_site = out.ops[i].site;
          break;
        }
      }
      out.ops.insert(out.ops.begin() + last_storage + 1,
                     ProgramOp{OpCode::kEncode, "encode",
                               out.ops[last_storage].site, {}, enc_schema});
      out.ops.insert(out.ops.begin() + last_storage + 2,
                     ProgramOp{OpCode::kReDecode, "decode2", dec_site, {},
                               enc_schema});
    }
  }
  return out;
}

/// The scan of the program's table, with its projection and pruning.
Result<TableScanSource> ProgramScan(const DflowProgram& program) {
  return TableScanSource::Make(program.table(), program.scan_columns(),
                               program.filter());
}

/// The program "VM": replays the instruction list into a dataflow graph
/// fed by `batches` — one stage per op, or one fused stage per FusedGroup —
/// wiring the chain with the program's credit layout and capping its
/// network edge at `rate_limit_gbps` (0 = none). Produced batches make a
/// runnable graph; planned ones (ProgramScan(...).Plan()) a graph of the
/// same shape to verify. The only builder that turns a query into
/// single-pipeline graph stages.
Result<Engine::AdmittedPipeline> BuildProgramGraph(
    Engine* engine, DataflowGraph* graph, const DflowProgram& program,
    std::vector<ScanBatch> batches, int node, const std::string& label,
    double rate_limit_gbps) {
  Engine::AdmittedPipeline built;
  built.variant = program.variant();
  built.source =
      graph->AddSource("scan:" + label, engine->fabric().store_media(),
                       sim::CostClass::kScan, std::move(batches),
                       program.scan_schema());

  // Live operators, one per program op.
  std::vector<OperatorPtr> live;
  Schema current = program.scan_schema();
  for (const ProgramOp& pop : program.ops()) {
    DFLOW_ASSIGN_OR_RETURN(
        OperatorPtr op,
        InstantiateOp(program.spec(), program.filter(), program.projections(),
                      pop, &current));
    live.push_back(std::move(op));
  }

  // Collapse fused groups into single kernels.
  struct Stage {
    std::string name;
    OperatorPtr op;
    Site site;
  };
  std::vector<Stage> stages;
  const std::vector<FusedGroup>& groups = program.fused_groups();
  size_t gi = 0;
  for (size_t i = 0; i < live.size();) {
    if (gi < groups.size() && groups[gi].first == i) {
      const FusedGroup& g = groups[gi];
      std::string name = "fused(";
      std::vector<OperatorPtr> inner;
      for (uint32_t k = 0; k < g.count; ++k) {
        if (k > 0) name += "+";
        name += program.ops()[i + k].label;
        inner.push_back(std::move(live[i + k]));
      }
      name += ")";
      DFLOW_ASSIGN_OR_RETURN(OperatorPtr fused,
                             compile::FusedOperator::Make(std::move(inner)));
      stages.push_back(
          Stage{std::move(name), std::move(fused), program.ops()[i].site});
      i += g.count;
      ++gi;
    } else {
      stages.push_back(Stage{program.ops()[i].label, std::move(live[i]),
                             program.ops()[i].site});
      ++i;
    }
  }

  DataflowGraph::NodeId prev = built.source;
  int prev_site = -1;  // media, before kStorageProc
  auto connect = [&](DataflowGraph::NodeId from, DataflowGraph::NodeId to,
                     int from_site, int to_site) -> Status {
    std::vector<sim::Link*> path;
    if (from_site < 0) {
      path = engine->PathBetween(Site::kStorageProc,
                                 static_cast<Site>(to_site), node);
    } else {
      path = engine->PathBetween(static_cast<Site>(from_site),
                                 static_cast<Site>(to_site), node);
    }
    const bool crosses_network =
        from_site < static_cast<int>(Site::kComputeNic) &&
        to_site >= static_cast<int>(Site::kComputeNic);
    DFLOW_RETURN_NOT_OK(graph->Connect(from, to, std::move(path),
                                       program.credits()));
    if (crosses_network && !built.has_network_edge) {
      built.has_network_edge = true;
      built.net_from = from;
      built.net_to = to;
    }
    return Status::OK();
  };
  for (Stage& stage : stages) {
    const DataflowGraph::NodeId id = graph->AddStage(
        stage.name + ":" + label, std::move(stage.op),
        engine->SiteDevice(stage.site, node));
    DFLOW_RETURN_NOT_OK(
        connect(prev, id, prev_site, static_cast<int>(stage.site)));
    prev = id;
    prev_site = static_cast<int>(stage.site);
  }
  built.sink = graph->AddSink("client:" + label);
  DFLOW_RETURN_NOT_OK(connect(prev, built.sink, prev_site,
                              static_cast<int>(Site::kCpu)));
  if (rate_limit_gbps > 0 && built.has_network_edge) {
    DFLOW_RETURN_NOT_OK(
        graph->SetEdgeRateLimit(built.net_from, built.net_to, rate_limit_gbps));
  }
  return built;
}

}  // namespace

Result<std::shared_ptr<compile::CompiledQuery>> Engine::CompilePlan(
    const QuerySpec& spec) {
  auto plan = std::make_shared<compile::CompiledQuery>();
  DFLOW_RETURN_NOT_OK(EnumerateVariants(spec, plan.get()));
  plan->spec = spec;
  plan->plan_fingerprint = FingerprintQuerySpec(spec);
  plan->fabric_epoch = fabric_epoch_;
  plan->plan_cost_ns = compile::kPlanPrepareCostNs +
                       compile::kPlanScanSizingCostNs +
                       compile::kPlanPerVariantCostNs * plan->variants.size();
  DFLOW_TRACE(tracer_.get(),
              Instant("compile", "compiler", "plan",
                      fabric_.simulator().now(),
                      /*value=*/plan->variants.size(), spec.table));
  return plan;
}

Result<compile::ProgramPtr> Engine::CompileVariant(
    compile::CompiledQuery* plan, const Placement& placement,
    verify::VerifyMode mode, compile::FuseMode fuse, int node,
    uint32_t credits) {
  DFLOW_CHECK(plan != nullptr);
  if (compile::ProgramPtr existing = plan->ProgramFor(placement.name)) {
    return existing;
  }
  const QuerySpec& spec = plan->spec;
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  if (placement.sites.size() != prepared.kinds.size()) {
    return Status::InvalidArgument("placement '" + placement.name +
                                   "' does not match query stages");
  }
  CostEstimate demand;
  bool demand_found = false;
  for (const RankedPlacement& v : plan->variants) {
    if (v.placement.sites == placement.sites) {
      demand = v.cost;
      demand_found = true;
      break;
    }
  }
  if (!demand_found) {
    return Status::Internal("compiler: placement '" + placement.name +
                            "' is not among the enumerated plan variants");
  }
  DFLOW_ASSIGN_OR_RETURN(LoweredOps lowered,
                         LowerStages(spec, prepared, placement));

  auto fill_builder = [&]() {
    DflowProgram::Builder b;
    b.spec = spec;
    b.table = prepared.table;
    b.scan_columns = prepared.scan_columns;
    b.scan_schema = prepared.scan_schema;
    b.filter = prepared.filter;
    b.projections = prepared.projections;
    b.ops = lowered.ops;
    b.literals = lowered.literals;
    b.fuse = fuse;
    if (fuse == compile::FuseMode::kOn) b.fused_groups = PlanFusion(b.ops);
    b.placement = placement;
    b.credits = credits;
    b.demand = demand;
    b.plan_fingerprint = plan->plan_fingerprint;
    b.fabric_epoch = fabric_epoch_;
    b.verifier_version = verify::kVerifierVersion;
    b.compile_cost_ns = compile::kLowerPerOpCostNs * lowered.ops.size();
    return b;
  };

  // Verify once, at compile time, against the live fabric and health
  // registry. The scratch graph is fed the planned scan — the verifier
  // needs its shape, not its data — schedules nothing and charges no
  // fabric work, so verification (and Engine::Verify, which returns this
  // stamp) decodes nothing and is side-effect free on the fabric.
  verify::VerifyReport stamp;
  uint64_t verify_cost_ns = 0;
  if (mode != verify::VerifyMode::kOff) {
    compile::ProgramPtr pre = fill_builder().Build();
    DFLOW_ASSIGN_OR_RETURN(TableScanSource scan, ProgramScan(*pre));
    DataflowGraph scratch(&fabric_.simulator());
    DFLOW_RETURN_NOT_OK(BuildProgramGraph(this, &scratch, *pre, scan.Plan(),
                                          node, spec.table,
                                          /*rate_limit_gbps=*/0)
                            .status());
    stamp = VerifyGraphSpec(scratch.Describe());
    const uint64_t num_stages = lowered.ops.size() + 2;  // + source + sink
    verify_cost_ns = compile::kVerifyPerStageCostNs * num_stages +
                     compile::kVerifyPerEdgeCostNs * (num_stages - 1);
    for (const verify::VerifyIssue& issue : stamp.issues) {
      DFLOW_LOG(Warning) << "compile verify: " << issue.ToString();
    }
    if (mode == verify::VerifyMode::kStrict && !stamp.ok()) {
      return Status::InvalidArgument(
          "plan rejected by static verifier at compile time: " +
          stamp.ToString());
    }
  }

  DflowProgram::Builder builder = fill_builder();
  builder.verify_stamp = std::move(stamp);
  builder.compile_cost_ns += verify_cost_ns;
  const size_t num_fused = builder.fused_groups.size();
  compile::ProgramPtr program = std::move(builder).Build();
  DFLOW_TRACE(tracer_.get(),
              Instant("compile", "compiler", "compile",
                      fabric_.simulator().now(),
                      /*value=*/program->ops().size(),
                      spec.table + " -> " + placement.name));
  if (num_fused > 0) {
    DFLOW_TRACE(tracer_.get(),
                Instant("compile", "compiler", "fuse",
                        fabric_.simulator().now(), /*value=*/num_fused,
                        placement.name));
  }
  plan->programs[placement.name] = program;
  return program;
}

Result<compile::ProgramPtr> Engine::Compile(const QuerySpec& spec,
                                            PlacementChoice choice,
                                            verify::VerifyMode mode,
                                            compile::FuseMode fuse, int node) {
  DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<compile::CompiledQuery> plan,
                         CompilePlan(spec));
  return CompileVariant(plan.get(), ChoosePlacement(*plan, choice, node), mode,
                        fuse, node);
}

Result<QueryResult> Engine::ExecuteProgram(const compile::DflowProgram& program,
                                           const ExecOptions& options) {
  return ExecuteProgramImpl(program, options, /*allow_fallback=*/true);
}

Result<QueryResult> Engine::ExecuteProgramImpl(
    const compile::DflowProgram& program, const ExecOptions& options,
    bool allow_fallback) {
  if (options.trace.enabled && tracer_ == nullptr) {
    EnableTracing(options.trace);
  }
  if (options.reset_fabric) {
    fabric_.Reset();
    // Trace and report describe the same window: the events of this run.
    if (tracer_ != nullptr) tracer_->Clear();
  } else {
    // Chained run: keep the clock and timing state but zero the byte/busy
    // counters so this run's report counts only its own traffic.
    fabric_.ResetMetrics();
  }
  DataflowGraph graph(&fabric_.simulator());
  ArmGraph(&graph);
  DFLOW_TRACE(tracer_.get(),
              Instant("engine", "engine", "plan_choice",
                      fabric_.simulator().now(), /*value=*/0,
                      program.variant()));
  TableScanSource::ScanStats stats;
  DFLOW_ASSIGN_OR_RETURN(TableScanSource scan, ProgramScan(program));
  DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches, scan.Produce(&stats));
  DFLOW_ASSIGN_OR_RETURN(
      AdmittedPipeline built,
      BuildProgramGraph(this, &graph, program, std::move(batches),
                        options.node, program.spec().table,
                        options.network_rate_limit_gbps));
  const Status run_status = graph.Run();
  if (!run_status.ok()) {
    const std::string dead = graph.failed_device();
    if (allow_fallback && !dead.empty()) {
      // Graceful degradation (§7): a processing element died permanently
      // mid-query. Quarantine it (which bumps the fabric epoch, stranding
      // stale cache entries) and re-run the traditional CPU-centric plan,
      // which touches only the media, the links, and the CPU — compiled
      // with this program's fuse mode and credits.
      MarkDeviceUnhealthy(dead);
      const bool dead_is_unavoidable =
          dead == fabric_.store_media()->name() ||
          dead == fabric_.node(options.node).cpu->name();
      if (!dead_is_unavoidable) {
        DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<compile::CompiledQuery> plan,
                               CompilePlan(program.spec()));
        if (plan->cpu_only.sites != program.placement().sites) {
          DFLOW_ASSIGN_OR_RETURN(
              compile::ProgramPtr fallback,
              CompileVariant(plan.get(), plan->cpu_only, options.verify,
                             program.fuse(), options.node, program.credits()));
          ExecOptions retry = options;
          retry.reset_fabric = true;  // fresh timeline for the recovery run
          DFLOW_ASSIGN_OR_RETURN(
              QueryResult result,
              ExecuteProgramImpl(*fallback, retry, /*allow_fallback=*/false));
          result.report.fault.cpu_fallback = true;
          result.report.fault.failed_device = dead;
          result.report.variant += "(fallback:" + dead + ")";
          DFLOW_TRACE(tracer_.get(),
                      Instant("engine", "engine", "cpu_fallback",
                              fabric_.simulator().now(), /*value=*/0, dead));
          return result;
        }
      }
    }
    return run_status;
  }

  QueryResult result;
  result.chunks = graph.sink_chunks(built.sink);
  result.report = CollectReport(graph, built.sink, program.variant(), stats);
  result.report.verify = program.verify_stamp();
  return result;
}

Result<Engine::AdmittedPipeline> Engine::BuildProgramPipeline(
    DataflowGraph* graph, const compile::DflowProgram& program,
    const std::string& label, double rate_limit_gbps) {
  DFLOW_CHECK(graph != nullptr);
  ArmGraph(graph);
  DFLOW_ASSIGN_OR_RETURN(TableScanSource scan, ProgramScan(program));
  DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches, scan.Produce());
  return BuildProgramGraph(this, graph, program, std::move(batches),
                           /*node=*/0, label, rate_limit_gbps);
}

}  // namespace dflow

// Layer probes of the traced run. Layers inside ExecuteProgram and
// ServiceLoop::Run cannot be split from outside, so these time the same
// public functions directly on the workload's own tables and templates.
// Each probe repeats `reps` times and reports the median.

#include <algorithm>
#include <functional>

#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/join.h"
#include "dflow/storage/table.h"
#include "dflow/vector/kernels.h"
#include "dflow/workload/tpch_like.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using dflow::ColumnVector;
using dflow::DataChunk;
using dflow::Engine;
using dflow::Expr;
using dflow::ExprPtr;
using dflow::QuerySpec;
using dflow::Table;

double ToMs(double ns) { return ns / 1e6; }

/// Median host ns of `fn` over `reps` calls, each inside a span `name`.
double TimeNs(int reps, SpanLog* spans, const std::string& name,
              const std::function<void()>& fn) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(spans, name);
    const int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(ns);
}

size_t Column(const Table& table, const std::string& name) {
  return Must(table.schema().FieldIndex(name), "FieldIndex");
}

/// Decoded row groups, one chunk list per row group, restricted to `cols`.
std::vector<std::vector<DataChunk>> Decode(const Table& table,
                                           const std::vector<size_t>& cols) {
  std::vector<std::vector<DataChunk>> out;
  for (size_t g = 0; g < table.num_row_groups(); ++g) {
    out.push_back(Must(table.row_group(g).DecodeChunks(cols), "DecodeChunks"));
  }
  return out;
}

/// Column-vs-constant comparisons of a filter (conjunctions walked).
void CollectCompares(const ExprPtr& e,
                     std::vector<std::pair<std::string, ExprPtr>>* out) {
  if (e == nullptr) return;
  if (e->kind() == Expr::Kind::kAnd) {
    for (const ExprPtr& c : e->children()) CollectCompares(c, out);
  } else if (e->kind() == Expr::Kind::kCompare &&
             e->children()[0]->kind() == Expr::Kind::kColumnRef &&
             e->children()[1]->kind() == Expr::Kind::kLiteral) {
    out->emplace_back(e->children()[0]->column_name(), e);
  }
}

}  // namespace

void RunLayerProbes(ProbeInputs in, SpanLog* spans, MetricSet* layer) {
  const Table& lineitem = *in.lineitem;
  const int reps = std::max(1, in.reps);
  if (in.orders == nullptr) {
    // Join kernels need a build side; size it like the workload's orders.
    dflow::OrdersSpec spec;
    spec.rows = std::max<uint64_t>(1, lineitem.num_rows() / 8);
    in.orders = Must(dflow::MakeOrdersTable(spec), "MakeOrdersTable");
  }
  const Table& orders = *in.orders;

  // ---- storage: encode, zone maps, decode ------------------------------
  layer->Add("storage.encoded_mb",
             static_cast<double>(lineitem.EncodedBytes()) / (1 << 20), "MiB");
  {
    const std::vector<DataChunk> all = Must(lineitem.ToChunks(), "ToChunks");
    const size_t group_rows = lineitem.row_group(0).num_rows();
    layer->Add("storage.encode_ms",
               ToMs(TimeNs(reps, spans, "storage.encode", [&] {
                 dflow::TableBuilder builder("probe", lineitem.schema(),
                                             std::max<size_t>(group_rows, 1));
                 for (const DataChunk& c : all) Must(builder.Append(c), "Append");
                 Must(builder.Finish(), "Finish");
               })),
               "ms");
  }
  {
    double ns = 0;
    for (size_t g = 0; g < lineitem.num_row_groups(); ++g) {
      for (size_t c = 0; c < lineitem.schema().num_fields(); ++c) {
        const ColumnVector col =
            Must(lineitem.row_group(g).DecodeColumnAt(c), "DecodeColumnAt");
        ns += TimeNs(reps, nullptr, "",
                     [&] { (void)dflow::ZoneMap::Compute(col); });
      }
    }
    layer->Add("storage.zonemap_ms", ToMs(ns), "ms");
  }

  Engine engine(in.fabric);
  Must(engine.catalog().Register(std::const_pointer_cast<Table>(in.lineitem)),
       "Register");

  // ---- opt / compile / verify / sim, per template ------------------------
  double plan_variants_ns = 0, variants = 0, plan_ns = 0, plan_modeled_ns = 0,
         variant_ns = 0, verify_ns = 0, execute_ns = 0, events = 0;
  std::vector<std::vector<size_t>> scan_cols;
  for (const QuerySpec& spec : in.templates) {
    size_t count = 0;
    plan_variants_ns += TimeNs(reps, spans, "opt.plan_variants", [&] {
      count = Must(engine.PlanVariants(spec), "PlanVariants").size();
    });
    variants += static_cast<double>(count);
    std::shared_ptr<dflow::compile::CompiledQuery> plan;
    plan_ns += TimeNs(reps, spans, "compile.plan", [&] {
      plan = Must(engine.CompilePlan(spec), "CompilePlan");
    });
    plan_modeled_ns += static_cast<double>(plan->plan_cost_ns);
    const dflow::Placement placement = plan->variants.front().placement;
    // CompileVariant memoises its program in the plan, so each timed call
    // gets a fresh plan.
    std::vector<std::shared_ptr<dflow::compile::CompiledQuery>> fresh;
    for (int r = 0; r < reps; ++r) {
      fresh.push_back(Must(engine.CompilePlan(spec), "CompilePlan"));
    }
    dflow::compile::ProgramPtr program;
    variant_ns += TimeNs(reps, spans, "compile.variant", [&] {
      auto& p = fresh.back();
      program = Must(engine.CompileVariant(p.get(), placement),
                     "CompileVariant");
      fresh.pop_back();
    });
    verify_ns += TimeNs(reps, spans, "verify", [&] {
      Must(engine.Verify(spec, placement), "Verify");
    });
    execute_ns += TimeNs(reps, spans, "sim.execute", [&] {
      Must(engine.ExecuteProgram(*program), "ExecuteProgram");
    });
    events += static_cast<double>(
        engine.fabric().simulator().events_processed());
    std::vector<size_t> cols;
    for (const std::string& name : program->scan_columns()) {
      cols.push_back(Column(lineitem, name));
    }
    scan_cols.push_back(cols);
  }
  const double n = static_cast<double>(std::max<size_t>(in.templates.size(), 1));
  layer->Add("opt.plan_variants_ms", ToMs(plan_variants_ns / n), "ms");
  layer->Add("opt.variants", variants / n, "count");
  layer->Add("compile.plan_ms", ToMs(plan_ns / n), "ms");
  // Modeled: CompiledQuery::plan_cost_ns is virtual time, not host time.
  layer->Add("compile.plan_modeled_ms", ToMs(plan_modeled_ns / n), "ms");
  layer->Add("compile.variant_ms", ToMs(variant_ns / n), "ms");
  layer->Add("verify.ms", ToMs(verify_ns / n), "ms");
  layer->Add("sim.execute_ms", ToMs(execute_ns / n), "ms");
  layer->Add("sim.events", events / n, "count");
  layer->Add("sim.host_ns_per_event", execute_ns / std::max(events, 1.0), "ns");

  // ---- storage decode + vector checksum over each template's scan -------
  {
    double decode_ns = 0, bytes = 0, checksum_ns = 0;
    for (const std::vector<size_t>& cols : scan_cols) {
      std::vector<std::vector<DataChunk>> decoded;
      decode_ns += TimeNs(reps, spans, "storage.decode",
                          [&] { decoded = Decode(lineitem, cols); });
      checksum_ns += TimeNs(reps, spans, "vector.checksum", [&] {
        for (const auto& group : decoded) {
          for (const DataChunk& c : group) (void)dflow::ChecksumChunk(c);
        }
      });
      for (const auto& group : decoded) {
        for (const DataChunk& c : group) bytes += static_cast<double>(c.ByteSize());
      }
    }
    const double mib = bytes / (1 << 20);
    layer->Add("storage.decode_ms", ToMs(decode_ns), "ms");
    layer->Add("storage.decode_mb_per_s", mib / std::max(decode_ns / 1e9, 1e-9),
               "MiB/s");
    layer->Add("vector.checksum_ms", ToMs(checksum_ns), "ms");
    layer->Add("vector.checksum_mb_per_s",
               mib / std::max(checksum_ns / 1e9, 1e-9), "MiB/s");
  }

  // ---- vector filter / hash kernels --------------------------------------
  {
    std::vector<std::pair<std::string, ExprPtr>> compares;
    for (const QuerySpec& spec : in.templates) {
      CollectCompares(spec.filter, &compares);
    }
    if (compares.empty()) {
      compares.emplace_back(
          "l_quantity",
          Expr::Cmp(dflow::CompareOp::kLt, Expr::Col("l_quantity"),
                    Expr::Lit(dflow::Value::Double(25))));
    }
    double ns = 0, rows = 0;
    for (const auto& [name, cmp] : compares) {
      const auto groups = Decode(lineitem, {Column(lineitem, name)});
      dflow::Mask mask;
      ns += TimeNs(reps, spans, "vector.filter", [&] {
        for (const auto& group : groups) {
          for (const DataChunk& c : group) {
            Must(dflow::CompareToConstant(c.column(0), cmp->compare_op(),
                                          cmp->children()[1]->value(), &mask),
                 "CompareToConstant");
          }
        }
      });
      rows += static_cast<double>(lineitem.num_rows());
    }
    layer->Add("vector.filter_ns_per_row", ns / rows, "ns");
  }
  {
    const std::vector<size_t> keys = {Column(lineitem, "l_returnflag"),
                                      Column(lineitem, "l_linestatus"),
                                      Column(lineitem, "l_orderkey")};
    const auto groups = Decode(lineitem, keys);
    std::vector<uint64_t> hashes;
    const double ns = TimeNs(reps, spans, "vector.hash", [&] {
      for (const auto& group : groups) {
        for (const DataChunk& c : group) {
          for (size_t k = 0; k < keys.size(); ++k) {
            hashes.clear();
            Must(dflow::HashColumn(c.column(k), &hashes), "HashColumn");
          }
        }
      }
    });
    layer->Add("vector.hash_ns_per_row",
               ns / static_cast<double>(lineitem.num_rows() * keys.size()),
               "ns");
  }

  // ---- exec: Q1 hash aggregate, join build and probe ----------------------
  {
    const std::vector<std::string> names = {"l_returnflag", "l_linestatus",
                                            "l_quantity", "l_extendedprice"};
    std::vector<size_t> cols;
    std::vector<dflow::Field> fields;
    for (const std::string& name : names) {
      cols.push_back(Column(lineitem, name));
      fields.push_back(lineitem.schema().field(cols.back()));
    }
    const dflow::Schema schema(fields);
    const auto groups = Decode(lineitem, cols);
    const double ns = TimeNs(reps, spans, "exec.aggregate", [&] {
      auto op = Must(dflow::HashAggregateOperator::Make(
                         schema, {"l_returnflag", "l_linestatus"},
                         {{dflow::AggFunc::kSum, "l_quantity", "sum_qty"},
                          {dflow::AggFunc::kSum, "l_extendedprice", "sum_price"},
                          {dflow::AggFunc::kCount, "", "count"}},
                         dflow::AggMode::kComplete),
                     "HashAggregateOperator::Make");
      std::vector<DataChunk> out;
      for (const auto& group : groups) {
        for (const DataChunk& c : group) Must(op->Push(c, &out), "Push");
      }
      Must(op->Finish(&out), "Finish");
    });
    layer->Add("exec.agg_ns_per_row",
               ns / static_cast<double>(lineitem.num_rows()), "ns");
  }
  {
    std::vector<size_t> build_cols(orders.schema().num_fields());
    for (size_t i = 0; i < build_cols.size(); ++i) build_cols[i] = i;
    const auto build_groups = Decode(orders, build_cols);
    const size_t build_key = Column(orders, "o_orderkey");
    const std::vector<size_t> probe_cols = {Column(lineitem, "l_orderkey"),
                                            Column(lineitem, "l_extendedprice")};
    const dflow::Schema probe_schema({lineitem.schema().field(probe_cols[0]),
                                      lineitem.schema().field(probe_cols[1])});
    const auto probe_groups = Decode(lineitem, probe_cols);

    std::shared_ptr<dflow::JoinHashTable> table;
    const double build_ns = TimeNs(reps, spans, "exec.join_build", [&] {
      table = std::make_shared<dflow::JoinHashTable>(orders.schema(), build_key);
      for (const auto& group : build_groups) {
        for (const DataChunk& c : group) Must(table->Insert(c), "Insert");
      }
    });
    // HashJoinProbeOperator::Push probes the table and materialises the
    // joined rows; its time covers JoinHashTable::Probe.
    const double probe_ns = TimeNs(reps, spans, "exec.join_probe", [&] {
      auto op = Must(dflow::HashJoinProbeOperator::Make(table, probe_schema, 0),
                     "HashJoinProbeOperator::Make");
      std::vector<DataChunk> out;
      for (const auto& group : probe_groups) {
        for (const DataChunk& c : group) {
          out.clear();
          Must(op->Push(c, &out), "Push");
        }
      }
    });
    layer->Add("exec.join_build_ns_per_row",
               build_ns / static_cast<double>(orders.num_rows()), "ns");
    layer->Add("exec.join_probe_ns_per_row",
               probe_ns / static_cast<double>(lineitem.num_rows()), "ns");
  }

  // ---- exec/parallel: the real-thread executor on each template ----------
  {
    dflow::ExecOptions options;
    options.mode = dflow::ExecMode::kParallel;
    options.parallel_workers = in.workers;
    std::vector<double> region_ms, serial_ms;
    uint64_t morsels = 0, steals = 0;
    for (const QuerySpec& spec : in.templates) {
      for (int r = 0; r < reps; ++r) {
        ScopedSpan span(spans, "exec.execute");
        const int64_t t0 = NowNs();
        auto result = Must(engine.Execute(spec, options), "Execute(kParallel)");
        const int64_t wall = NowNs() - t0;
        region_ms.push_back(ToMs(static_cast<double>(result.parallel.wall_ns)));
        serial_ms.push_back(
            ToMs(static_cast<double>(wall) -
                 static_cast<double>(result.parallel.wall_ns)));
        morsels += result.parallel.morsels;
        steals += result.parallel.steals;
      }
    }
    layer->Add("parallel.region_ms", Median(region_ms), "ms");
    layer->Add("parallel.serial_ms", Median(serial_ms), "ms");
    layer->Add("parallel.morsels", static_cast<double>(morsels), "count");
    layer->Add("parallel.steals", static_cast<double>(steals), "count");
    layer->Add("parallel.steal_frac",
               morsels == 0 ? 0.0
                            : static_cast<double>(steals) /
                                  static_cast<double>(morsels),
               "ratio");
  }
}

}  // namespace perfbench

#include <gtest/gtest.h>

#include "dflow/exec/aggregate.h"
#include "dflow/exec/dataflow.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/local_executor.h"
#include "dflow/exec/misc_ops.h"
#include "dflow/exec/scan.h"
#include "dflow/sim/fabric.h"
#include "dflow/storage/table.h"

namespace dflow {
namespace {

Schema KVSchema() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
}

// num_chunks chunks of kVectorSize rows each, k = row index, v = row % 100.
std::vector<ScanBatch> MakeBatches(size_t num_chunks,
                                   size_t rows_per_chunk = kVectorSize) {
  std::vector<ScanBatch> batches;
  int64_t next = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    DataChunk chunk;
    std::vector<int64_t> ks(rows_per_chunk), vs(rows_per_chunk);
    for (size_t i = 0; i < rows_per_chunk; ++i) {
      ks[i] = next;
      vs[i] = next % 100;
      ++next;
    }
    chunk.AddColumn(ColumnVector::FromInt64(std::move(ks)));
    chunk.AddColumn(ColumnVector::FromInt64(std::move(vs)));
    ScanBatch batch;
    batch.device_bytes = chunk.ByteSize();
    const uint64_t wire = chunk.ByteSize();
    batch.chunks.push_back(ScanChunk{std::move(chunk), wire});
    batches.push_back(std::move(batch));
  }
  return batches;
}

ExprPtr VLessThan(int64_t bound) {
  return Expr::Resolve(Expr::Cmp(CompareOp::kLt, Expr::Col("v"),
                                 Expr::Lit(Value::Int64(bound))),
                       KVSchema())
      .ValueOrDie();
}

TEST(DataflowGraphTest, SourceFilterSink) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         MakeBatches(4));
  auto filter = g.AddStage(
      "filter", FilterOperator::Make(VLessThan(50), KVSchema()).ValueOrDie(),
      fabric.node(0).cpu.get());
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, filter,
                        {fabric.storage_uplink(), fabric.node(0).net_rx.get()})
                  .ok());
  ASSERT_TRUE(g.Connect(filter, sink, {}).ok());
  ASSERT_TRUE(g.Run().ok());

  // v = k % 100 over 8192 rows: 81 full hundreds contribute 50 each, the
  // final 92 rows (v = 0..91) contribute 50.
  EXPECT_EQ(TotalRows(g.sink_chunks(sink)), 81u * 50u + 50u);
  EXPECT_GT(g.sink_finish_time(sink), 0u);
  // All scanned bytes crossed both links.
  EXPECT_EQ(fabric.storage_uplink()->bytes_transferred(),
            fabric.node(0).net_rx->bytes_transferred());
  EXPECT_GT(fabric.storage_uplink()->bytes_transferred(), 0u);
  // The store device did the reads.
  EXPECT_EQ(fabric.store_media()->items_processed(), 4u);
}

TEST(DataflowGraphTest, ResultsMatchLocalExecution) {
  // The simulated pipeline must produce exactly what the local executor
  // produces.
  auto batches = MakeBatches(3);
  std::vector<DataChunk> inputs;
  for (const auto& b : batches) {
    for (const auto& sc : b.chunks) inputs.push_back(sc.chunk);
  }
  auto local_filter =
      FilterOperator::Make(VLessThan(10), KVSchema()).ValueOrDie();
  auto expected =
      RunLocalPipeline(inputs, {local_filter.get()}).ValueOrDie();

  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         std::move(batches));
  auto filter = g.AddStage(
      "filter", FilterOperator::Make(VLessThan(10), KVSchema()).ValueOrDie(),
      fabric.storage_proc());
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, filter, {}).ok());
  ASSERT_TRUE(
      g.Connect(filter, sink, {fabric.storage_uplink()}).ok());
  ASSERT_TRUE(g.Run().ok());

  EXPECT_EQ(TotalRows(g.sink_chunks(sink)), TotalRows(expected));
  DataChunk got = ConcatChunks(g.sink_chunks(sink));
  DataChunk want = ConcatChunks(expected);
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t r = 0; r < got.num_rows(); ++r) {
    EXPECT_EQ(got.GetValue(r, 0).int64_value(),
              want.GetValue(r, 0).int64_value());
  }
}

TEST(DataflowGraphTest, CreditCapBoundsQueueMemory) {
  sim::Fabric slow;  // CPU far slower than the source: queue would explode
  DataflowGraph g(&slow.simulator());
  auto src = g.AddSource("scan", slow.store_media(), sim::CostClass::kScan,
                         MakeBatches(32));
  auto agg = g.AddStage(
      "agg",
      HashAggregateOperator::Make(KVSchema(), {"v"},
                                  {{AggFunc::kCount, "", "n"}},
                                  AggMode::kComplete)
          .ValueOrDie(),
      slow.node(0).cpu.get());
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, agg,
                        {slow.storage_uplink(), slow.node(0).net_rx.get()},
                        /*credits=*/4)
                  .ok());
  ASSERT_TRUE(g.Connect(agg, sink, {}).ok());
  ASSERT_TRUE(g.Run().ok());
  // Peak in-flight is bounded by 4 chunks' worth of bytes on the data edge.
  const uint64_t chunk_bytes = kVectorSize * 16;
  EXPECT_LE(g.EdgePeakQueueBytes(src, agg), 4 * chunk_bytes + 1024);
}

TEST(DataflowGraphTest, PartitionFansOutAllRows) {
  sim::FabricConfig config;
  config.num_compute_nodes = 2;
  sim::Fabric fabric(config);
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         MakeBatches(4));
  auto part = g.AddPartitionStage("scatter", HashPartitioner(0, 2),
                                  fabric.storage_nic());
  auto sink0 = g.AddSink("node0");
  auto sink1 = g.AddSink("node1");
  ASSERT_TRUE(g.Connect(src, part, {}).ok());
  ASSERT_TRUE(g.Connect(part, sink0,
                        {fabric.storage_uplink(), fabric.node(0).net_rx.get()})
                  .ok());
  ASSERT_TRUE(g.Connect(part, sink1,
                        {fabric.storage_uplink(), fabric.node(1).net_rx.get()})
                  .ok());
  ASSERT_TRUE(g.Run().ok());
  const uint64_t total =
      TotalRows(g.sink_chunks(sink0)) + TotalRows(g.sink_chunks(sink1));
  EXPECT_EQ(total, 4 * kVectorSize);
  EXPECT_GT(TotalRows(g.sink_chunks(sink0)), 0u);
  EXPECT_GT(TotalRows(g.sink_chunks(sink1)), 0u);
}

TEST(DataflowGraphTest, MergeTwoSourcesIntoOneStage) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src_a = g.AddSource("a", fabric.store_media(), sim::CostClass::kScan,
                           MakeBatches(2));
  auto src_b = g.AddSource("b", fabric.store_media(), sim::CostClass::kScan,
                           MakeBatches(3));
  auto count = g.AddStage("count", OperatorPtr(new CountOperator()),
                          fabric.node(0).cpu.get());
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src_a, count, {fabric.node(0).net_rx.get()}).ok());
  ASSERT_TRUE(g.Connect(src_b, count, {fabric.node(0).net_rx.get()}).ok());
  ASSERT_TRUE(g.Connect(count, sink, {}).ok());
  ASSERT_TRUE(g.Run().ok());
  ASSERT_EQ(TotalRows(g.sink_chunks(sink)), 1u);
  EXPECT_EQ(g.sink_chunks(sink)[0].GetValue(0, 0).int64_value(),
            static_cast<int64_t>(5 * kVectorSize));
}

TEST(DataflowGraphTest, PlacementValidationRejectsSortOnNic) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         MakeBatches(1));
  auto sort = g.AddStage(
      "sort", SortOperator::Make(KVSchema(), "k").ValueOrDie(),
      fabric.storage_nic());  // NIC cannot sort
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, sort, {}).ok());
  ASSERT_TRUE(g.Connect(sort, sink, {}).ok());
  Status st = g.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(DataflowGraphTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Fabric fabric;
    DataflowGraph g(&fabric.simulator());
    auto src = g.AddSource("scan", fabric.store_media(),
                           sim::CostClass::kScan, MakeBatches(8));
    auto filter = g.AddStage(
        "filter",
        FilterOperator::Make(VLessThan(30), KVSchema()).ValueOrDie(),
        fabric.node(0).cpu.get());
    auto sink = g.AddSink("client");
    EXPECT_TRUE(g.Connect(src, filter,
                          {fabric.storage_uplink(),
                           fabric.node(0).net_rx.get()})
                    .ok());
    EXPECT_TRUE(g.Connect(filter, sink, {}).ok());
    EXPECT_TRUE(g.Run().ok());
    return g.sink_finish_time(sink);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DataflowGraphTest, FinishFlushIsDelivered) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         MakeBatches(2));
  auto count = g.AddStage("count", OperatorPtr(new CountOperator()),
                          fabric.node(0).nic.get());
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, count, {fabric.node(0).net_rx.get()}).ok());
  ASSERT_TRUE(g.Connect(count, sink, {fabric.node(0).interconnect.get()}).ok());
  ASSERT_TRUE(g.Run().ok());
  ASSERT_EQ(g.sink_chunks(sink).size(), 1u);
  EXPECT_EQ(g.sink_chunks(sink)[0].GetValue(0, 0).int64_value(),
            static_cast<int64_t>(2 * kVectorSize));
  // COUNT on the NIC: only the 8-byte answer crossed the interconnect.
  EXPECT_LT(fabric.node(0).interconnect->bytes_transferred(), 100u);
}

TEST(DataflowGraphTest, RateLimitSlowsEdge) {
  auto run_with_limit = [](double gbps) {
    sim::FabricConfig config;
    config.store_request_latency_ns = 0;  // isolate the link from the media
    sim::Fabric fabric(config);
    DataflowGraph g(&fabric.simulator());
    auto src = g.AddSource("scan", fabric.store_media(),
                           sim::CostClass::kScan, MakeBatches(8));
    auto sink = g.AddSink("client");
    EXPECT_TRUE(g.Connect(src, sink, {fabric.storage_uplink()}).ok());
    if (gbps > 0) {
      EXPECT_TRUE(g.SetEdgeRateLimit(src, sink, gbps).ok());
    }
    EXPECT_TRUE(g.Run().ok());
    return g.sink_finish_time(sink);
  };
  const auto unlimited = run_with_limit(0);
  const auto limited = run_with_limit(0.1);
  EXPECT_GT(limited, unlimited);
}

TEST(DataflowGraphTest, CannotRunTwice) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         MakeBatches(1));
  auto sink = g.AddSink("client");
  ASSERT_TRUE(g.Connect(src, sink, {}).ok());
  ASSERT_TRUE(g.Run().ok());
  EXPECT_TRUE(g.Run().IsInvalidArgument());
}

TEST(DataflowGraphTest, StructuralValidation) {
  sim::Fabric fabric;
  {
    DataflowGraph g(&fabric.simulator());
    g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                MakeBatches(1));
    EXPECT_TRUE(g.Run().IsInvalidArgument());  // source with no output
  }
  {
    DataflowGraph g(&fabric.simulator());
    auto src = g.AddSource("scan", fabric.store_media(),
                           sim::CostClass::kScan, MakeBatches(1));
    auto part = g.AddPartitionStage("p", HashPartitioner(0, 3),
                                    fabric.storage_nic());
    auto sink = g.AddSink("s");
    EXPECT_TRUE(g.Connect(src, part, {}).ok());
    EXPECT_TRUE(g.Connect(part, sink, {}).ok());
    EXPECT_TRUE(g.Run().IsInvalidArgument());  // 3 partitions, 1 edge
  }
}

TEST(DataflowGraphTest, BroadcastReplicatesToAllTargets) {
  sim::FabricConfig config;
  config.num_compute_nodes = 3;
  sim::Fabric fabric(config);
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         MakeBatches(3));
  auto bcast = g.AddBroadcastStage("broadcast", fabric.storage_nic());
  ASSERT_TRUE(g.Connect(src, bcast, {}).ok());
  std::vector<DataflowGraph::NodeId> sinks;
  for (int i = 0; i < 3; ++i) {
    auto sink = g.AddSink("node" + std::to_string(i));
    ASSERT_TRUE(g.Connect(bcast, sink,
                          {fabric.storage_uplink(),
                           fabric.node(i).net_rx.get()})
                    .ok());
    sinks.push_back(sink);
  }
  ASSERT_TRUE(g.Run().ok());
  // Every node received the FULL stream (replication, not partitioning).
  for (auto sink : sinks) {
    EXPECT_EQ(TotalRows(g.sink_chunks(sink)), 3 * kVectorSize);
  }
  // The uplink carried ~3x the data of a single copy.
  EXPECT_GT(fabric.storage_uplink()->bytes_transferred(),
            2 * fabric.node(0).net_rx->bytes_transferred());
}

TEST(DataflowGraphTest, BroadcastNeedsOutputs) {
  sim::Fabric fabric;
  DataflowGraph g(&fabric.simulator());
  auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                         MakeBatches(1));
  auto bcast = g.AddBroadcastStage("broadcast", fabric.storage_nic());
  ASSERT_TRUE(g.Connect(src, bcast, {}).ok());
  EXPECT_TRUE(g.Run().IsInvalidArgument());
}

// ------------------------------------------------- planned scan shape --

// 12345 rows in row groups of 5000: the last holds 2345 rows, not a
// multiple of kVectorSize; ids ascend, so `id >= 5000` prunes the first.
std::shared_ptr<Table> ScanShapeTable() {
  const Schema schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
  DataChunk chunk = DataChunk::EmptyFromSchema(schema);
  for (int64_t i = 0; i < 12345; ++i) {
    chunk.column(0).AppendValue(Value::Int64(i));
    if (i % 7 == 0) {
      chunk.column(1).AppendNull();
    } else {
      chunk.column(1).AppendValue(Value::String(std::string(i % 5, 'x')));
    }
  }
  TableBuilder builder("shape", schema, 5000);
  DFLOW_CHECK(builder.Append(chunk).ok());
  return std::make_shared<Table>(builder.Finish().ValueOrDie());
}

// Plan gives, without decoding, exactly the shape Produce gives with data.
TEST(TableScanSourceTest, PlanEqualsProduceFieldByField) {
  const auto table = ScanShapeTable();
  const ExprPtr prune = Expr::Cmp(CompareOp::kGe, Expr::Col("id"),
                                  Expr::Lit(Value::Int64(5000)));
  for (const auto& columns :
       {std::vector<std::string>{}, std::vector<std::string>{"name"}}) {
    for (const ExprPtr& predicate : {ExprPtr(), prune}) {
      SCOPED_TRACE(columns.size());
      SCOPED_TRACE(predicate != nullptr);
      const TableScanSource scan =
          TableScanSource::Make(table, columns, predicate).ValueOrDie();
      TableScanSource::ScanStats planned_stats;
      TableScanSource::ScanStats produced_stats;
      const std::vector<ScanBatch> planned = scan.Plan(&planned_stats);
      const std::vector<ScanBatch> produced =
          scan.Produce(&produced_stats).ValueOrDie();

      EXPECT_EQ(planned_stats.row_groups_total, 3u);
      EXPECT_EQ(planned_stats.row_groups_pruned, predicate ? 1u : 0u);
      EXPECT_EQ(planned_stats.row_groups_total,
                produced_stats.row_groups_total);
      EXPECT_EQ(planned_stats.row_groups_pruned,
                produced_stats.row_groups_pruned);
      EXPECT_EQ(planned_stats.rows_produced, produced_stats.rows_produced);
      EXPECT_EQ(planned_stats.encoded_bytes_read,
                produced_stats.encoded_bytes_read);
      ASSERT_EQ(planned.size(), produced.size());
      ASSERT_EQ(planned.size(), predicate ? 2u : 3u);
      std::vector<size_t> indices;
      for (const Field& field : scan.output_schema().fields()) {
        indices.push_back(table->schema().FieldIndex(field.name).ValueOrDie());
      }
      for (size_t b = 0; b < planned.size(); ++b) {
        SCOPED_TRACE(b);
        const RowGroup& rg = table->row_group(produced[b].row_group);
        EXPECT_EQ(produced[b].device_bytes, rg.EncodedBytes(indices));
        EXPECT_EQ(planned[b].row_group, produced[b].row_group);
        EXPECT_EQ(planned[b].device_bytes, produced[b].device_bytes);
        EXPECT_EQ(planned[b].decoded_bytes, produced[b].decoded_bytes);
        ASSERT_EQ(planned[b].chunks.size(), produced[b].chunks.size());
        uint64_t chunk_bytes = 0;
        for (size_t c = 0; c < planned[b].chunks.size(); ++c) {
          const ScanChunk& p = planned[b].chunks[c];
          const ScanChunk& d = produced[b].chunks[c];
          EXPECT_EQ(p.rows, d.rows);
          EXPECT_EQ(p.wire_bytes, d.wire_bytes);
          EXPECT_EQ(p.chunk.num_columns(), 0u);
          EXPECT_EQ(d.chunk.num_rows(), d.rows);
          EXPECT_EQ(d.chunk.num_columns(), scan.output_schema().num_fields());
          // The row group's encoded bytes, pro-rated by rows.
          EXPECT_EQ(d.wire_bytes, produced[b].device_bytes *
                                      d.chunk.num_rows() / rg.num_rows());
          chunk_bytes += d.chunk.ByteSize();
        }
        EXPECT_EQ(produced[b].decoded_bytes, chunk_bytes);
      }
      // The short last row group ends in a short chunk.
      EXPECT_EQ(planned.back().row_group, 2u);
      EXPECT_EQ(planned.back().chunks.back().rows, 2345u % kVectorSize);
    }
  }
}

// A planned batch has a shape but no data; running it would silently skip
// its rows, so Run and Launch refuse it before anything moves.
TEST(TableScanSourceTest, PlannedBatchesNeverRun) {
  const auto table = ScanShapeTable();
  const TableScanSource scan =
      TableScanSource::Make(table, {}, nullptr).ValueOrDie();
  for (bool launch : {false, true}) {
    sim::Fabric fabric;
    DataflowGraph g(&fabric.simulator());
    auto src = g.AddSource("scan", fabric.store_media(), sim::CostClass::kScan,
                           scan.Plan(), scan.output_schema());
    auto sink = g.AddSink("client");
    ASSERT_TRUE(g.Connect(src, sink, {}).ok());
    const Status st = launch ? g.Launch() : g.Run();
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("planned scan batch"), std::string::npos)
        << st.ToString();
    fabric.simulator().Run();
    EXPECT_EQ(fabric.store_media()->bytes_processed(), 0u);
    EXPECT_TRUE(g.sink_chunks(sink).empty());
  }
}

}  // namespace
}  // namespace dflow

#ifndef DFLOW_EXEC_DATAFLOW_H_
#define DFLOW_EXEC_DATAFLOW_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dflow/exec/operator.h"
#include "dflow/exec/partition.h"
#include "dflow/exec/scan.h"
#include "dflow/lifecycle/cancel.h"
#include "dflow/sim/credit.h"
#include "dflow/sim/dma.h"
#include "dflow/sim/device.h"
#include "dflow/sim/fault.h"
#include "dflow/sim/simulator.h"
#include "dflow/trace/tracer.h"
#include "dflow/verify/graph_spec.h"

namespace dflow {

/// How the recovery layer reacts to an unreliable fabric. All times are
/// virtual, so recovery behaviour is exactly reproducible.
struct RecoveryPolicy {
  /// Grace period after a chunk's nominal arrival before the sender
  /// declares it lost and retransmits (first attempt; doubles per retry).
  sim::SimTime delivery_timeout_ns = 500'000;
  /// Cap on the backed-off delivery timeout.
  sim::SimTime max_backoff_ns = 8'000'000;
  /// Transmissions per chunk before the edge gives up (kIOError).
  uint32_t max_delivery_attempts = 10;
  /// Retries of a failed storage read before the source gives up.
  uint32_t max_storage_retries = 4;
  /// Backoff before a storage read retry (doubles per retry, capped at
  /// max_backoff_ns).
  sim::SimTime storage_retry_backoff_ns = 200'000;
};

/// The executable form of a query plan laid out over the fabric: a DAG of
/// stages, each pinned to a processing element, connected by credit-
/// controlled edges whose transfers ride DMA engines over links (§7.1).
///
/// Protocol per stage, entirely event-driven and deterministic:
///  - a stage takes a chunk from its inbox only when its device is free and
///    all previous outputs have been dispatched (local backpressure),
///  - taking a chunk returns a credit to the sender over the reverse path
///    (with the path's latency),
///  - a sender without credits buffers and stalls, which in turn stops it
///    from consuming its own inputs: backpressure propagates hop by hop,
///  - when every input has delivered end-of-stream and the inbox is empty,
///    the stage runs Finish(), flushes its outputs, and forwards EOS.
///
/// Data operations actually execute (results are real); time is charged to
/// the virtual clock via the device/link models.
class DataflowGraph {
 public:
  using NodeId = size_t;

  explicit DataflowGraph(sim::Simulator* sim);
  DataflowGraph(const DataflowGraph&) = delete;
  DataflowGraph& operator=(const DataflowGraph&) = delete;
  ~DataflowGraph();

  /// A source producing pre-scanned batches; `device` is charged `cc` work
  /// for each batch's device_bytes (e.g. the storage media doing a row-group
  /// read). Planned batches (TableScanSource::Plan) give the graph its
  /// shape for Describe; Run and Launch reject them with InvalidArgument.
  NodeId AddSource(std::string name, sim::Device* device, sim::CostClass cc,
                   std::vector<ScanBatch> batches);

  /// Same, with the schema of the emitted chunks declared. DataChunks carry
  /// no schema of their own, so only a declared source schema lets the
  /// static verifier type-check the first edge. Prefer this overload.
  NodeId AddSource(std::string name, sim::Device* device, sim::CostClass cc,
                   std::vector<ScanBatch> batches, Schema schema);

  /// A processing stage hosting `op` on `device`.
  NodeId AddStage(std::string name, OperatorPtr op, sim::Device* device,
                  double cost_factor = 1.0);

  /// A fan-out stage: splits each input chunk by hash and routes partition i
  /// to the i-th edge connected from this node (Connect order matters).
  NodeId AddPartitionStage(std::string name, HashPartitioner partitioner,
                           sim::Device* device);

  /// A replicating fan-out: every input chunk is copied to every outgoing
  /// edge — the broadcast collective a smart NIC can run for replicated
  /// joins and coordination (§4.4: "perform collective communication
  /// (scatter-gather, broadcast)"). The device is charged kMemcpy work once
  /// per input chunk per target.
  NodeId AddBroadcastStage(std::string name, sim::Device* device);

  /// A terminal collector. Chunks accumulate in arrival order;
  /// sink_finish_time() is when the last EOS arrived.
  NodeId AddSink(std::string name);

  /// Connects two nodes. `path` is the ordered list of links a chunk
  /// crosses (empty = colocated, instantaneous). `credits` bounds the
  /// number of chunks in flight on this edge. An edge declared `feedback`
  /// closes an intentional loop: the verifier exempts it from the illegal-
  /// cycle check (but still analyzes its credit window for deadlock).
  /// Run() rejects graphs with feedback edges — the executor's EOS
  /// protocol cannot terminate a loop, so such graphs are verify-only
  /// until an iterative runtime lands.
  Status Connect(NodeId from, NodeId to, std::vector<sim::Link*> path,
                 uint32_t credits = 8, bool feedback = false);

  /// Sets a rate limit (Gbps) on the DMA engine of the edge from->to.
  Status SetEdgeRateLimit(NodeId from, NodeId to, double gbps);

  /// Arms the recovery layer against `injector`'s faults: chunks sent over
  /// link paths carry checksums and are retransmitted on delivery timeout
  /// with capped exponential backoff; source storage reads that fail with
  /// an injected kIOError are retried with backoff; stages whose device the
  /// injector crashed fail the run with kIOError, and failed_device() names
  /// the casualty so the engine can degrade to a CPU-only plan.
  ///
  /// Must be armed whenever the graph's links have this injector attached —
  /// otherwise dropped chunks are simply lost. Colocated edges (empty link
  /// path) are function calls, not fabric transfers; they are always
  /// reliable. Retransmitted chunks can arrive after later chunks; the
  /// receiver reorders verified chunks back into send order before handing
  /// them to the operator, so a recovered run computes bit-identical
  /// results to a fault-free one.
  void SetFaultInjector(sim::FaultInjector* injector) { fault_ = injector; }
  void SetRecoveryPolicy(const RecoveryPolicy& policy) { policy_ = policy; }

  /// Attaches an event tracer: stages emit per-chunk process/finish spans,
  /// edges emit in-flight-byte counters, credit-stall instants, and
  /// recovery events (retransmit/timeout/checksum) on their own tracks, and
  /// the edges' DMA engines emit injection spans. nullptr detaches.
  /// Tracing never changes scheduling or results.
  void SetTracer(trace::Tracer* tracer);

  struct RecoveryStats {
    uint64_t retransmits = 0;
    uint64_t delivery_timeouts = 0;
    uint64_t checksum_failures = 0;
    uint64_t storage_io_errors = 0;
    uint64_t storage_retries = 0;
  };
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Name of the crashed device that failed the run ("" if the run
  /// succeeded or failed for another reason).
  const std::string& failed_device() const { return failed_device_; }

  /// Structured classification of why the graph stopped (kNone while
  /// running or after success). Stamped at the failure site, so callers
  /// never have to string-match status messages.
  lifecycle::FailureKind failure_kind() const { return failure_kind_; }

  /// Attaches a cooperative cancellation token. Event handlers poll it:
  /// once cancelled, the next event converts the token's reason into a
  /// graph failure (stages and edges stop emitting, the completion
  /// callback fires with the reason, credits quiesce). The owner may also
  /// call Cancel() directly for same-event teardown.
  void SetCancelToken(lifecycle::CancelTokenPtr token) {
    cancel_token_ = std::move(token);
  }

  /// Cancels a launched, unfinished graph: the first non-OK reason
  /// (kCancelled or kDeadlineExceeded by convention) becomes the graph's
  /// status and the completion callback fires immediately, letting the
  /// owner release scheduler ledger demand now instead of at drain. A
  /// no-op on graphs that already completed or failed.
  void Cancel(Status reason);

  /// Runs the whole graph to completion on the simulator. Fails if any
  /// operator errored or the event budget was exceeded.
  Status Run(uint64_t max_events = 200'000'000);

  // --------------------------------------------------------- service mode
  // A serving layer admits queries while the fabric simulation is live:
  // many independent DataflowGraphs share one Simulator (and its devices
  // and links), each launched when its query is admitted. Launch validates
  // and schedules this graph's sources but does NOT drain the simulator —
  // the caller owns the event loop and typically interleaves arrival
  // events with fabric events on the same virtual clock.

  /// Validates the graph and schedules every source to start producing
  /// (at its start time, see SetSourceStartTime; default: now). Unlike
  /// Run, returns immediately — the graph executes as the caller (or an
  /// enclosing service loop) drains the shared simulator. A graph may be
  /// launched only once and must not also call Run.
  Status Launch();

  /// Delays a source's first batch to the given absolute virtual time
  /// (clamped to "now" at launch). This is how the engine realises
  /// per-query admission offsets: a query admitted at t starts moving
  /// data at t, not at 0.
  Status SetSourceStartTime(NodeId source, sim::SimTime at);

  /// Called exactly once, when every sink has finished (success) or the
  /// graph failed (operator error, crashed device, delivery give-up). The
  /// callback runs inside the simulator event loop, so it may admit and
  /// Launch further graphs but must not drain the simulator itself.
  void SetCompletionCallback(std::function<void(const Status&)> callback);

  /// Execution status so far (OK while running or after success).
  const Status& status() const { return status_; }
  /// True once every node has finished (EOS fully propagated).
  bool finished() const;

  // --------------------------------------------------------------- results
  const std::vector<DataChunk>& sink_chunks(NodeId sink) const;
  sim::SimTime sink_finish_time(NodeId sink) const;
  /// The operator hosted at a stage (stats inspection). Null for non-stages.
  Operator* stage_operator(NodeId id);

  /// Peak bytes simultaneously in flight or queued, per edge and summed —
  /// the engine's "working memory" under credit flow control (§7.4).
  uint64_t TotalPeakQueueBytes() const;
  uint64_t EdgePeakQueueBytes(NodeId from, NodeId to) const;

  /// Plain-data snapshot of the graph's structure for the static verifier:
  /// node kinds/devices/traits, copied schemas, edge credit windows and hop
  /// counts. Valid independently of the graph's lifetime; building it has
  /// no effect on execution.
  verify::GraphSpec Describe() const;

 private:
  struct Edge;
  struct Node;

  Node* GetNode(NodeId id) { return nodes_[id].get(); }
  Edge* FindEdge(NodeId from, NodeId to) const;
  void Pump(Node* n);
  void CheckEdgeInvariants(Edge* e);
  void CheckEventTime();
  void StartWork(Node* n);
  void RouteOutputs(Node* n, std::vector<DataChunk> outputs);
  void RouteScanBatch(Node* n, size_t batch_index);
  void PumpEdges(Node* n);
  void PumpEdge(Edge* e);
  void Transmit(Edge* e, uint64_t seq);
  void DeliverPending(Edge* e, uint64_t seq, bool corrupted);
  void CheckDelivery(Edge* e, uint64_t seq, uint32_t attempt);
  void Deliver(Edge* e, DataChunk chunk, uint64_t wire_bytes);
  void PopCredit(Edge* e, uint64_t wire_bytes);
  void HandleEos(Edge* e);
  void MarkNodeDone(Node* n);
  bool SendQueuesEmpty(const Node* n) const;
  bool DeviceCrashed(Node* n);
  void Fail(Status status,
            lifecycle::FailureKind kind = lifecycle::FailureKind::kOther);
  /// Polls the cancel token; converts a pending cancellation into a graph
  /// failure and returns true when the graph is (now) cancelled.
  bool CancelRequested();
  Status Validate() const;
  Status Start();
  void MaybeComplete();

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Edge>> edges_;
  sim::FaultInjector* fault_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  RecoveryPolicy policy_;
  RecoveryStats recovery_stats_;
  std::string failed_device_;
  lifecycle::FailureKind failure_kind_ = lifecycle::FailureKind::kNone;
  lifecycle::CancelTokenPtr cancel_token_;
  Status status_;
  bool started_ = false;
  std::function<void(const Status&)> completion_callback_;
  bool completion_reported_ = false;
  size_t unfinished_sinks_ = 0;
  /// Latest event timestamp seen by this graph's handlers; the invariant
  /// oracle (exec/invariants.h) asserts virtual time never runs backwards.
  /// Maintained only when the oracle is compiled in.
  sim::SimTime inv_last_event_ns_ = 0;
};

}  // namespace dflow

#endif  // DFLOW_EXEC_DATAFLOW_H_

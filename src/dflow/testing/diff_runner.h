#ifndef DFLOW_TESTING_DIFF_RUNNER_H_
#define DFLOW_TESTING_DIFF_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/testing/canonical.h"
#include "dflow/testing/plan_gen.h"

namespace dflow::testing {

/// Deliberate, flag-guarded operator bugs the oracle must catch (shrinker
/// demo; see exec/test_hooks.h). kNone in every production configuration.
enum class BugKind { kNone, kFilterDropFirstRow };

std::string_view BugKindToString(BugKind k);
Result<BugKind> BugKindFromString(const std::string& text);

struct DiffOptions {
  /// Dataflow placement variants sampled beyond the CPU-only lane.
  size_t placement_samples = 2;
  /// Adds a lane that re-runs the plan under a seed-derived fault schedule
  /// (drops/corruption/stalls/storage errors) with recovery armed, and —
  /// for a seed-derived quarter of cases — a lane with a mid-query
  /// accelerator crash (degradation to CPU must still be exact).
  bool sample_faults = true;
  /// Injects the given operator bug into every dataflow lane (never the
  /// Volcano reference), so divergence is guaranteed detectable.
  BugKind inject_bug = BugKind::kNone;
  /// Buffer pool pages for the Volcano baseline.
  size_t pool_pages = 256;
  /// Adds the "real-parallel" lanes: the case re-runs on the morsel-driven
  /// work-stealing executor (ExecMode::kParallel) at each worker count in
  /// `parallel_worker_counts`, and every lane's canonical fingerprint must
  /// be byte-identical to the Volcano reference. Real threads, real
  /// interleavings — the lane that proves output never depends on
  /// scheduling. (fuzz_plans --parallel, default on)
  bool real_parallel = true;
  std::vector<uint32_t> parallel_worker_counts = {1, 2, 8};
  /// Adds the "compiled" lanes: the case is lowered to a fused
  /// DflowProgram (Engine::Compile, strict verification at compile time)
  /// and executed via Engine::ExecuteProgram — auto placement, CPU-only, a
  /// fusion-off cross-check, and (with sample_faults) a fault-schedule run.
  /// Every lane's fingerprint must match the Volcano reference, proving
  /// fused programs are result-identical to the unfused ones Execute runs.
  /// (fuzz_plans --compiled, default on)
  bool compiled = true;
  /// Adds the "chaos-serve" lane: the query is served repeatedly through a
  /// ServiceLoop on a faulty fabric with a flapping (crash + restore)
  /// accelerator, deadlines, a scheduled cancellation, circuit breakers,
  /// and retries enabled. Every query that completes — including ones that
  /// were retried onto a fallback placement — must fingerprint identically
  /// to the fault-free Volcano reference; misses/cancels are legal
  /// outcomes, silent wrong answers are not. (fuzz_plans --deadlines)
  bool chaos_serve = false;
  /// Adds the "cluster:nN" lanes: the case's tables are hash-sharded
  /// across an N-node cluster and the query runs distributed through
  /// QueryRouter (local fragments, exchange shuffle/broadcast/gather,
  /// merge-at-coordinator), once per entry in `cluster_node_counts`, plus
  /// a "cluster:faults" lane on the largest count with lossy inter-node
  /// links (checksummed retransmission must still be exact). Every DONE
  /// distributed run must fingerprint identically to the single-node
  /// Volcano reference. (fuzz_plans --cluster, default on)
  bool cluster = true;
  std::vector<int> cluster_node_counts = {1, 2, 4};
};

/// One engine/placement/fault execution of the case.
struct LaneResult {
  std::string lane;  // "volcano", "cpu_only", "variant:<name>", "faults", ...
  std::string fingerprint;
  uint64_t rows = 0;
  uint64_t sim_ns = 0;
  bool failed = false;  // the lane errored instead of producing a result
  std::string error;
};

struct DiffResult {
  bool diverged = false;
  /// Human-readable summary of the first divergence ("" when none).
  std::string divergence;
  /// The Volcano reference fingerprint all other lanes are held to.
  std::string reference_fingerprint;
  std::vector<LaneResult> lanes;
};

/// The differential oracle: executes a generated case on the Volcano
/// engine, the dataflow engine CPU-only, and K sampled placement variants —
/// plus optional fault-schedule lanes — under the strict static verifier,
/// and asserts canonicalized result equality and ExecutionReport sanity.
/// Deterministic: the same case yields byte-identical DiffResults.
class DiffRunner {
 public:
  explicit DiffRunner(DiffOptions options = DiffOptions());

  const DiffOptions& options() const { return options_; }

  /// Runs every lane. A Status error means the harness itself failed (e.g.
  /// table registration); lane-level execution errors are reported as
  /// divergences, not statuses.
  Result<DiffResult> Run(const GeneratedCase& c) const;

 private:
  DiffOptions options_;
};

}  // namespace dflow::testing

#endif  // DFLOW_TESTING_DIFF_RUNNER_H_

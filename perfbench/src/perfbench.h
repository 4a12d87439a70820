// Shared declarations of the DFLOW end-to-end benchmark (see README.md).
//
// The benchmark drives the library only through its public entry points
// and times those calls from outside. Two clocks are kept apart: host
// numbers (steady_clock, this process) and virtual numbers (the modelled
// fabric's simulated ns and bytes, exact for a given seed).

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/plan/query_spec.h"
#include "dflow/sim/fabric.h"
#include "dflow/storage/table.h"

namespace perfbench {

/// Host clock: ns since an arbitrary fixed point (steady_clock).
int64_t NowNs();

/// Aborts the run (non-zero exit, no result line) on a library error.
[[noreturn]] void Fail(const std::string& what);

inline void Must(const dflow::Status& st, const char* what) {
  if (!st.ok()) Fail(std::string(what) + ": " + st.ToString());
}
template <typename T>
T Must(dflow::Result<T> r, const char* what) {
  if (!r.ok()) Fail(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

/// FNV-1a/64 of a string, hex-encoded (digests of virtual-clock reports).
std::string Fnv64Hex(const std::string& text);

/// Median of a sample (0 when empty).
double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);
/// The highest of 99.9/99/95/90/75/50 (in %) that leaves at least ten of
/// `samples` beyond it; 50 when there are fewer than 20 samples.
double TailPercentile(size_t samples);

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list; names are unique (a repeated Add overwrites).
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string ToJson() const;

 private:
  std::vector<Metric> items_;
};

// ------------------------------------------------------------------ spans

/// In-memory span recorder: one span per public call the benchmark makes,
/// with start, end, parent span and query id. Spans are written out at exit
/// (WriteJson). A layer's self time is its span minus its children.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t query_id = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span (child of the innermost open one); -1 when disabled.
  int Begin(const std::string& name, uint64_t query_id);
  void End(int id);
  /// Records a child of the innermost open span whose duration the library
  /// measured itself (e.g. ParallelExecStats::wall_ns); it is placed to end
  /// now, inside its parent.
  void AddMeasuredChild(const std::string& name, int64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the summed duration of direct children (children run
  /// on the calling thread, so they never overlap each other).
  std::vector<int64_t> SelfNs() const;
  void WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the log is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t query_id = 0)
      : log_(log),
        id_(log != nullptr ? log->Begin(name, query_id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// --------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for the self-test (seconds of work instead of minutes).
  bool tiny = false;
  /// Multiplies the serving workloads' open-loop arrival rate (shorter slots);
  /// the self-test raises it to force shedding.
  double load = 1.0;
  uint32_t workers = 1;
  std::string spans_out;
};

/// What one timed round did. A round is one ServiceLoop::Run over the
/// whole arrival trace (serve_*), or one query of each shape (adhoc,
/// native).
struct RoundStats {
  uint64_t attempted = 0;
  uint64_t done = 0;
  uint64_t rows = 0;
  int64_t wall_ns = 0;
  /// Host ms per query call (adhoc, native only).
  std::vector<double> query_ms;
};

enum class RoundMode {
  kPlain,   // the measured configuration
  kReplay,  // the previous round's exact queries, Engine tracing on
};

/// Metrics a workload reports beside the common ones, and the per-layer
/// numbers of its traced run.
struct WorkloadReport {
  MetricSet e2e;    // workload-specific end-to-end metrics (README table)
  MetricSet layer;  // loop-derived per-layer metrics
  /// Digest of the virtual-clock reports (and result fingerprints) of the
  /// first round: identical for one seed, whatever the host.
  std::string digest;
  /// Digest of the inputs generated from the seed.
  std::string inputs;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates tables (from the seed), builds engines, warms up.
  virtual void Setup(SpanLog* spans) = 0;
  virtual RoundStats RunRound(SpanLog* spans, RoundMode mode) = 0;
  /// Fingerprints every DONE query against its fault-free Volcano
  /// reference; calls Fail on a mismatch.
  virtual void Check() = 0;
  virtual WorkloadReport Report() = 0;
  /// Times the layers' public functions directly on this workload's tables
  /// and templates (traced run only).
  virtual void Probe(SpanLog* spans, MetricSet* layer) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Options& options);
bool IsWorkload(const std::string& name);

// ------------------------------------------------------------------ probes

/// Inputs the layer probes run over.
struct ProbeInputs {
  std::shared_ptr<const dflow::Table> lineitem;
  std::shared_ptr<const dflow::Table> orders;  // may be null
  std::vector<dflow::QuerySpec> templates;     // over lineitem
  dflow::sim::FabricConfig fabric;             // the workload's fabric
  uint32_t workers = 1;
  int reps = 3;
};

/// Fills the probe-defined per-layer metrics (storage, vector, exec, opt,
/// compile, verify, sim, exec/parallel). Generates an orders table when
/// `inputs.orders` is null, so join kernels are timed on every workload.
void RunLayerProbes(ProbeInputs inputs, SpanLog* spans, MetricSet* layer);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_

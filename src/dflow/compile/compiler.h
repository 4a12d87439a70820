#ifndef DFLOW_COMPILE_COMPILER_H_
#define DFLOW_COMPILE_COMPILER_H_

#include <cstdint>

// The plan compiler's entry points are Engine methods (Engine::CompilePlan,
// Engine::CompileVariant, Engine::Compile, Engine::ExecuteProgram,
// Engine::BuildProgramPipeline — see engine.h); their implementation lives
// in this subsystem (compiler.cc) because lowering needs the engine's
// private query preparation. This header carries the compiler's modeled
// cost constants, shared by the serving loop's cache accounting and the
// bench gates.

namespace dflow::compile {

/// Modeled virtual-time cost of planning and compilation, in nanoseconds.
/// These are *accounting* constants, not simulation events: admission
/// timing on the fabric is unchanged, but every admission adds the costs it
/// actually incurred to the service report's cache counters, which is what
/// makes "warm-path planning cost ~ 0" a gateable, deterministic number.
/// Magnitudes are loosely calibrated to a query-optimizer profile: parsing
/// + resolution tens of microseconds, per-variant costing microseconds,
/// verification per graph element, cache lookup sub-microsecond.
inline constexpr uint64_t kPlanPrepareCostNs = 20'000;
/// Sizing the scan's encoded/decoded byte counts. The optimizer reads them
/// from row-group metadata, so this over-states the measured cost; it is
/// kept because service reports account with it.
inline constexpr uint64_t kPlanScanSizingCostNs = 50'000;
inline constexpr uint64_t kPlanPerVariantCostNs = 5'000;
inline constexpr uint64_t kLowerPerOpCostNs = 1'000;
inline constexpr uint64_t kVerifyPerStageCostNs = 2'000;
inline constexpr uint64_t kVerifyPerEdgeCostNs = 1'000;
inline constexpr uint64_t kCacheLookupCostNs = 500;

}  // namespace dflow::compile

#endif  // DFLOW_COMPILE_COMPILER_H_

// Native execution of the rotation strategy on host threads.
//
// The discrete-event simulator (reduction_engine.cpp) is the measurement
// vehicle; this engine runs the *same* phased schedule as real
// `std::thread`s — one per simulated processor — with bounded-buffer
// message staging standing in for the EARTH network. It exists to
// demonstrate (and test) that the execution strategy is a correct
// parallel algorithm under genuine asynchrony, as the reproduction plan
// prescribes ("emulate fine-grained threads with tasks").
//
// The expensive preprocessing products — iteration distribution, rotation
// schedule, and LightInspector output — are factored into an immutable
// `ExecutionPlan` that executors take by `const&`. A plan depends only on
// the kernel's indirection arrays and the `PlanOptions`, never on sweep
// count or timeouts, so one plan can be built once and shared by any
// number of concurrent or repeated runs (the compile-once/run-many shape
// the service layer's PlanCache exploits; see src/service/).
//
// Synchronization structure (mirrors the fiber graph):
//   * portion rotation: a staging buffer per (receiver, phase) guarded by
//     full/free semaphores — the sender copies the portion in and posts
//     `full`; the receiver drains it at the start of the owning phase and
//     posts `free` (so a fast sender can run at most one sweep ahead);
//   * node-read replication: a staging buffer per (receiver, portion)
//     with the same protocol, drained at each sweep boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "core/kernel.hpp"
#include "core/layout.hpp"
#include "core/strategy.hpp"
#include "inspector/distribution.hpp"
#include "inspector/light_inspector.hpp"
#include "inspector/plan_verifier.hpp"
#include "inspector/rotation.hpp"

namespace earthred::core {

/// The parameters preprocessing depends on — everything that goes into an
/// ExecutionPlan (and therefore into the PlanCache key). Per-run knobs
/// (sweeps, timeouts) live in SweepOptions instead.
struct PlanOptions {
  std::uint32_t num_procs = 2;
  std::uint32_t k = 2;
  inspector::Distribution distribution = inspector::Distribution::Cyclic;
  /// Chunk size when distribution == BlockCyclic.
  std::uint32_t block_cyclic_size = 16;
  inspector::LightInspectorOptions inspector{};
  /// Run the structural plan verifier (inspector/plan_verifier.hpp) on
  /// the freshly built plan and throw verify_error if any rotation
  /// invariant fails. Defaults on in Debug builds (and CI, which builds
  /// Debug); off in Release, where the inspector is trusted and the
  /// <5%-of-cold-build budget matters. This does not change the plan
  /// produced, so it is NOT part of the PlanCache key.
#ifdef NDEBUG
  bool verify = false;
#else
  bool verify = true;
#endif
  /// Lowering strategy (core/strategy.hpp): Auto resolves through the
  /// cost model each time the plan runs; a concrete value forces that
  /// executor. Strategies can change result bits, so — unlike backend or
  /// verify — this IS part of the PlanCache key and the persisted plan
  /// header. Appended last so positional aggregate initializers written
  /// before the field existed stay valid.
  StrategyKind strategy = StrategyKind::Auto;
  /// Locality layout (core/layout.hpp): None reproduces the paper's plan
  /// exactly; Rcm/Auto run the three-step layout pass inside
  /// build_execution_plan. Results are bit-identical across layouts by
  /// construction, but the plan *bytes* differ, so — like strategy — this
  /// is part of the PlanCache key, the plan-store path, the persisted
  /// header, and the shard content key. Appended after `strategy` for the
  /// same positional-initializer reason.
  LayoutKind layout = LayoutKind::None;
  /// Override for the cache-blocked tile size (iterations per tile) the
  /// layout pass computes from the detected cache geometry; 0 = derive
  /// via core::layout_tile_iters. Ignored when the effective layout is
  /// None. Part of the plan (and thus the key) because it changes
  /// ExecutionPlan::tile_iters.
  std::uint32_t layout_tile_iters = 0;
};

/// The reusable preprocessing product: rotation schedule plus one
/// LightInspector result per processor. Immutable after build —
/// `run_native_plan` only reads it, so a single instance may back many
/// concurrent executions.
struct ExecutionPlan {
  KernelShape shape;
  PlanOptions options;
  inspector::RotationSchedule sched;
  /// Per-processor inspector output (phases, redirected indirection,
  /// second-loop copy lists).
  std::vector<inspector::InspectorResult> insp;
  /// Host seconds spent building this plan (distribution + inspector).
  double build_seconds = 0.0;
  /// Backing storage for zero-copy loads: a plan deserialized from the
  /// persistent plan store adopts its large arrays as views into the
  /// store file's memory mapping, and this handle keeps that mapping
  /// alive for the plan's lifetime (type-erased so core does not depend
  /// on the io layer). Built plans leave it null. A plan *patched* from a
  /// loaded base inherits the handle, because untouched phases still view
  /// the base's mapping.
  std::shared_ptr<const void> storage;

  // ---- layout products (core/layout.hpp) ------------------------------
  /// Node renumbering applied by the layout pass: perm[old] = new,
  /// perm_inv[new] = old. Empty = identity (no renumbering — either the
  /// layout is None, or the pass degenerated to the identity). When
  /// non-empty, the plan's redirected references live in the *relabeled*
  /// element space: run_native_plan executes a renumbered clone of the
  /// kernel (PhasedKernel::clone_renumbered) and un-permutes the result
  /// arrays at read-out. U32Buf so loaded plans adopt zero-copy views.
  inspector::U32Buf perm;
  inspector::U32Buf perm_inv;
  /// What the layout pass actually did: Rcm when the three-step pass ran,
  /// None when options.layout was None, or when Auto or an
  /// EARTHRED_FORCE_LAYOUT override fell back (kernel cannot renumber).
  /// Never Auto.
  LayoutKind applied_layout = LayoutKind::None;
  /// Cache-blocking tile size for the batched phase loops (0 = untiled;
  /// always 0 when applied_layout is None, preserving the pre-layout hot
  /// path exactly).
  std::uint32_t tile_iters = 0;

  /// Approximate heap footprint in bytes (drives PlanCache LRU budgets).
  std::uint64_t byte_size() const;
};

/// Runs distribution + LightInspector for every processor and returns the
/// immutable plan. Throws on invalid shapes (e.g. more portions than
/// elements), and — when opt.verify is set — verify_error if the built
/// plan violates a rotation invariant (structural verification only; the
/// kernel cross-check below is reserved for admission paths).
ExecutionPlan build_execution_plan(const PhasedKernel& kernel,
                                   const PlanOptions& opt);

/// Full plan verification: the structural invariant pass of
/// inspector::verify_plan plus — when `kernel` is non-null — a cross-check
/// that every scheduled reference resolves to the element the kernel's
/// indirection actually names (direct entries must equal ref(r, iter);
/// redirected entries must buffer that element), reported as
/// E-PLAN-REF-MISMATCH. The cross-check costs one virtual ref() call per
/// scheduled reference, which is why build_execution_plan doesn't do it;
/// the service's admission control, the CLI's --check, and the seeded-
/// defect tests do. Never throws on plan defects.
inspector::PlanVerifyReport verify_execution_plan(
    const ExecutionPlan& plan, const PhasedKernel* kernel = nullptr,
    const inspector::PlanVerifyOptions& vopt = {});

/// Incremental re-plan (the adaptive path): produces the plan
/// build_execution_plan would build for `kernel`, but by patching
/// `previous` through inspector::update_light_inspector instead of
/// rebuilding from scratch. `changed_iterations` lists the global
/// iteration ids whose indirection references differ from the kernel the
/// previous plan was built for; `kernel` carries the *new* references.
/// The result is bit-identical to a fresh build (property-tested in
/// tests/test_plan_patch.cpp) at a cost proportional to the touched
/// iterations per processor. Requires an identical shape and identical
/// PlanOptions (same distribution, procs, k) and a non-dedup plan —
/// violations throw precondition_error; when opt.verify is set the
/// patched plan is re-verified in the same mode as a cold build and a
/// violation throws verify_error. Callers wanting transparent fallback
/// (the PlanCache) catch and rebuild.
ExecutionPlan patch_execution_plan(
    const PhasedKernel& kernel, const ExecutionPlan& previous,
    std::span<const std::uint32_t> changed_iterations);

/// Thread placement for the native engine's workers. Each worker always
/// builds its own per-run state, so its pages are first touched by the
/// thread that uses them; pinning only fixes which CPU that thread runs on.
struct AffinityOptions {
  /// Pin worker thread p to CPU (p mod hardware_concurrency) via
  /// pthread_setaffinity_np where available; a best-effort no-op elsewhere.
  bool pin_threads = false;
};

/// Per-run execution knobs — do not affect the plan.
struct SweepOptions {
  std::uint32_t sweeps = 1;
  /// Wall-clock seconds any single staging-buffer wait may block before
  /// the whole run is declared stalled and aborted with a check_error
  /// naming the waiting processor and protocol step — a deadlocked
  /// protocol surfaces as a diagnostic instead of a hung process. 0 waits
  /// forever (the pre-watchdog behavior), though a failed worker still
  /// stops every wait.
  double stall_timeout = 30.0;
  /// Test hook: silently skip one ring forward, simulating a lost
  /// message, so the stall watchdog can be exercised deterministically.
  struct LostForward {
    bool enabled = false;
    std::uint32_t proc = 0;
    std::uint32_t phase = 0;
    std::uint32_t sweep = 0;
  } lose_forward;
  /// Execute each phase through the kernel's PhasedKernel::compute_phase
  /// override — one batched loop streaming the flattened indirection
  /// block. Off runs the base PhasedKernel::compute_phase instead, one
  /// virtual compute_edge call per edge. Results are bit-identical either
  /// way (the batch loops perform the same floating-point operations in
  /// the same order; tests/test_batch_equivalence.cpp proves it).
  bool batch = true;
  AffinityOptions affinity{};
  /// Compute backend for the batched phase loops (see core/backend.hpp).
  /// Auto resolves to the widest tier the host supports; a concrete
  /// request that the host cannot run raises "E-BACKEND-UNSUPPORTED".
  /// Backends are bit-identical by contract, so this is a run knob only
  /// — it never forks plans, caches, or shard routing.
  BackendKind backend = BackendKind::Auto;
};

/// One-shot options: plan parameters plus run parameters (the original
/// pre-service interface, kept for callers that don't reuse plans).
struct NativeOptions {
  PlanOptions plan;
  SweepOptions sweep;
};

struct NativeResult {
  /// Wall-clock seconds of the sweeps: from the moment every worker has
  /// built its per-run state to the join (excludes inspector and setup).
  double wall_seconds = 0.0;
  /// Final reduction arrays ([array][element], global indexing).
  std::vector<std::vector<double>> reduction;
  /// Final node read arrays.
  std::vector<std::vector<double>> node_read;
  /// Concrete compute backend the batched loops ran on (Scalar when the
  /// per-edge executor was used or no SIMD tier was available).
  BackendKind backend = BackendKind::Scalar;
  /// Concrete lowering strategy that executed (never Auto; the executor
  /// resolves the plan's request through core/strategy.hpp).
  StrategyKind strategy = StrategyKind::Phased;
};

/// Executes `sweeps` time steps of `kernel` under a prebuilt plan. The
/// plan is read-only and may be shared by concurrent callers; `kernel`
/// must be the kernel (or an identically-shaped twin) the plan was built
/// from. Raises check_error when a staging-buffer wait exceeds
/// stall_timeout (lost message / protocol deadlock). An exception thrown
/// on a worker thread (e.g. by the kernel) stops the other workers and is
/// rethrown here; the first one wins.
NativeResult run_native_plan(const PhasedKernel& kernel,
                             const ExecutionPlan& plan,
                             const SweepOptions& opt);

/// Builds a plan and runs it once (convenience; see run_native_plan). A
/// protocol violation that still completes surfaces as a wrong result,
/// which the caller should check against run_sequential_kernel.
NativeResult run_native_engine(const PhasedKernel& kernel,
                               const NativeOptions& opt);

}  // namespace earthred::core

#include "core/native_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <queue>
#include <semaphore>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inspector/plan_walk.hpp"
#include "inspector/rotation.hpp"
#include "mesh/mesh.hpp"
#include "support/check.hpp"

#if defined(__linux__) && defined(_GNU_SOURCE)
#include <pthread.h>
#include <sched.h>
#define EARTHRED_HAS_CPU_AFFINITY 1
#else
#define EARTHRED_HAS_CPU_AFFINITY 0
#endif

namespace earthred::core {

using inspector::InspectorResult;
using inspector::RotationSchedule;

namespace {

/// A token the phased executor hands from one worker to another: the
/// giver posts it, the taker acquires it.
struct Token {
  std::binary_semaphore posted{0};
};

/// Best-effort pin of the calling thread to one CPU (no-op where pthread
/// CPU affinity is unavailable; failure is ignored — pinning is a
/// performance hint, never a correctness requirement).
void pin_current_thread(std::uint32_t worker) {
#if EARTHRED_HAS_CPU_AFFINITY
  const std::uint32_t ncpu =
      std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(worker % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)worker;
#endif
}

/// Budget-mode structural verification shared by the cold build and the
/// incremental patch: no kernel.ref() cross-check and no per-entry
/// coverage walk unless a defect is detected, so the cost stays a small
/// fraction of the inspector run itself (bench_hotpath reports the
/// overhead; the budget is <5%). Admission and `earthred check` run the
/// exhaustive pass.
constexpr std::uint32_t kNoIter = 0xffffffffu;

/// Step 1 of the layout pass: the portion-preserving RCM permutation.
/// A global RCM rank is computed over the kernel's reference graph (one
/// pseudo-edge per distinct pair of reference targets of each iteration),
/// then elements are reordered by that rank *within each rotation portion
/// only* — every element keeps its portion, so phase assignment, buffer
/// allocation, and fold structure are untouched and the relabeled plan is
/// a pure isomorphism of the canonical one. Returns an empty vector when
/// the graph gives no signal (single-reference kernels).
std::vector<std::uint32_t> portion_preserving_perm(
    const PhasedKernel& kernel, const RotationSchedule& sched,
    const KernelShape& shape) {
  mesh::Mesh graph;
  graph.num_nodes = shape.num_nodes;
  if (shape.num_refs >= 2) {
    graph.edges.reserve(static_cast<std::size_t>(shape.num_edges));
    for (std::uint64_t e = 0; e < shape.num_edges; ++e) {
      const std::uint32_t a = kernel.ref(0, e);
      for (std::uint32_t r = 1; r < shape.num_refs; ++r) {
        const std::uint32_t b = kernel.ref(r, e);
        if (a != b) graph.edges.push_back(mesh::Edge{a, b});
      }
    }
  }
  if (graph.edges.empty()) return {};

  const std::vector<std::uint32_t> rank = mesh::rcm_permutation(graph);
  std::vector<std::uint32_t> perm(shape.num_nodes);
  std::vector<std::uint32_t> elems;
  for (std::uint32_t pid = 0; pid < sched.num_portions(); ++pid) {
    const std::uint32_t begin = sched.portion_begin(pid);
    const std::uint32_t end = sched.portion_end(pid);
    elems.resize(end - begin);
    std::iota(elems.begin(), elems.end(), begin);
    std::sort(elems.begin(), elems.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return rank[x] != rank[y] ? rank[x] < rank[y] : x < y;
              });
    for (std::uint32_t i = 0; i < elems.size(); ++i)
      perm[elems[i]] = begin + i;
  }
  if (std::is_sorted(perm.begin(), perm.end())) return {};  // identity
  return perm;
}

/// Step 2 of the layout pass: target-stable reordering of one phase.
/// Iterations are rescheduled so scatter targets ascend (sequential
/// stores instead of a random walk over the owned portion) under the
/// constraint that any two iterations touching the same *element* keep
/// their relative order — precedence-respecting list scheduling, so
/// per-element FP accumulation order (and thus the result bits) is
/// unchanged by construction. The chains are keyed on true (renumbered)
/// element ids, not the redirected slots: the phased executor would stay
/// bit-identical either way (one writer per buffer slot, folded in slot
/// order), but the privatized executor accumulates straight into element
/// arrays in edge order, and two iterations can share an element while
/// holding distinct buffer slots. `last_iter`/`last_ref`
/// are caller-owned scratch sized num_nodes and filled with kNoIter;
/// they are restored before returning so phases can share them.
void reorder_phase_target_stable(const PhasedKernel& kernel,
                                 std::span<const std::uint32_t> perm,
                                 inspector::PhaseSchedule& ph,
                                 std::uint32_t num_refs,
                                 std::vector<std::uint32_t>& last_iter,
                                 std::vector<std::uint32_t>& last_ref) {
  const std::size_t n = ph.iter_global.size();
  const std::uint32_t R = num_refs;
  if (n < 2 || R == 0) return;

  // Per-element FIFO chains as successor links: succ[j*R + r] is the next
  // iteration touching the element that iteration j touches through its
  // reference slot r (kNoIter when j is the chain tail or slot r repeats
  // an earlier slot's element within j).
  std::vector<std::uint32_t> succ(n * R, kNoIter);
  std::vector<std::uint32_t> indegree(n, 0);
  std::vector<std::uint32_t> key(n);
  std::vector<std::uint32_t> touched;
  std::vector<std::uint32_t> truej(R);
  for (std::size_t j = 0; j < n; ++j) {
    std::uint32_t k = ph.row(0)[j];
    for (std::uint32_t r = 1; r < R; ++r) k = std::min(k, ph.row(r)[j]);
    key[j] = k;
    const std::uint32_t e = ph.iter_global[j];
    for (std::uint32_t r = 0; r < R; ++r) {
      const std::uint32_t raw = kernel.ref(r, e);
      truej[r] = perm.empty() ? raw : perm[raw];
    }
    for (std::uint32_t r = 0; r < R; ++r) {
      const std::uint32_t t = truej[r];
      bool dup = false;
      for (std::uint32_t r2 = 0; r2 < r; ++r2)
        if (truej[r2] == t) {
          dup = true;
          break;
        }
      if (dup) continue;
      if (last_iter[t] != kNoIter) {
        succ[static_cast<std::size_t>(last_iter[t]) * R + last_ref[t]] =
            static_cast<std::uint32_t>(j);
        ++indegree[j];
      } else {
        touched.push_back(t);
      }
      last_iter[t] = static_cast<std::uint32_t>(j);
      last_ref[t] = r;
    }
  }
  for (const std::uint32_t t : touched) last_iter[t] = kNoIter;

  // Kahn's algorithm with a min-heap on (scatter key, original index):
  // always emit the ready iteration with the lowest target, ties by
  // original position — fully deterministic.
  using Entry = std::pair<std::uint32_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
  for (std::size_t j = 0; j < n; ++j)
    if (indegree[j] == 0)
      ready.emplace(key[j], static_cast<std::uint32_t>(j));
  std::vector<std::uint32_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::uint32_t j = ready.top().second;
    ready.pop();
    order.push_back(j);
    for (std::uint32_t r = 0; r < R; ++r) {
      const std::uint32_t s = succ[static_cast<std::size_t>(j) * R + r];
      if (s != kNoIter && --indegree[s] == 0) ready.emplace(key[s], s);
    }
  }
  ER_ENSURES(order.size() == n);  // chains are acyclic by construction

  std::vector<std::uint32_t> indir(static_cast<std::size_t>(R) * n);
  for (std::uint32_t r = 0; r < R; ++r) {
    const std::span<const std::uint32_t> row = ph.row(r);
    for (std::size_t i = 0; i < n; ++i) indir[r * n + i] = row[order[i]];
  }
  ph.indir_flat = inspector::U32Buf(std::move(indir));
  const auto permute = [&](inspector::U32Buf& buf) {
    std::vector<std::uint32_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = buf[order[i]];
    buf = inspector::U32Buf(std::move(out));
  };
  permute(ph.iter_global);
  permute(ph.iter_local);
}

/// Rough bytes streamed per iteration by the batched loops (indices plus
/// edge data plus one gathered double per reference) — only the scale
/// matters, the tile size is clamped anyway.
std::uint32_t layout_bytes_per_iter(std::uint32_t num_refs) {
  return 4u * (num_refs + 1) + 8u * num_refs + 24u;
}

void verify_or_throw(const ExecutionPlan& plan, const char* what) {
  inspector::PlanVerifyOptions vopt;
  vopt.exhaustive = false;
  const inspector::PlanVerifyReport report = inspector::verify_plan(
      plan.sched, plan.insp, plan.shape.num_edges, plan.shape.num_refs,
      vopt);
  if (!report.ok())
    throw verify_error(std::string(what) + " failed verification (" +
                       std::to_string(report.violations) +
                       " violation(s)): " + report.first_error());
}

}  // namespace

std::uint64_t ExecutionPlan::byte_size() const {
  // Every plan-owned buffer, including container-of-container headers:
  // the LRU budget of the PlanCache is only honest if growth anywhere in
  // the phase data is visible here (test_batch_equivalence asserts it).
  // The per-processor traversal is the shared plan walk, so this stays in
  // lockstep with the verifier's and the benches' accounting.
  std::uint64_t bytes = sizeof(ExecutionPlan);
  bytes += insp.capacity() * sizeof(InspectorResult);
  for (const InspectorResult& r : insp)
    bytes += inspector::inspector_byte_size(r);
  bytes += perm.footprint_bytes() + perm_inv.footprint_bytes();
  return bytes;
}

ExecutionPlan build_execution_plan(const PhasedKernel& kernel,
                                   const PlanOptions& opt) {
  const KernelShape shape = kernel.shape();
  ER_EXPECTS(opt.num_procs >= 1);
  ER_EXPECTS(opt.k >= 1);

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t P = opt.num_procs;
  ExecutionPlan plan{shape, opt,
                     RotationSchedule(shape.num_nodes, P, opt.k),
                     {}, 0.0, nullptr, {}, {}, LayoutKind::None, 0};

  // ---- layout pass, step 1 (core/layout.hpp) --------------------------
  // Resolve the request (environment override included) and compute the
  // portion-preserving permutation. The effective kind is written back
  // into plan.options so the plan and its cache/store key can never
  // disagree about what was built. An EARTHRED_FORCE_LAYOUT override
  // (the request itself was None) falls back like `auto` on kernels that
  // cannot renumber; only an explicit layout=rcm request is refused.
  const LayoutKind requested = effective_layout(opt.layout);
  const bool may_fall_back =
      requested == LayoutKind::Auto || opt.layout == LayoutKind::None;
  plan.options.layout = requested;
  std::vector<std::uint32_t> perm;
  if (requested != LayoutKind::None) {
    perm = portion_preserving_perm(kernel, plan.sched, shape);
    bool renumberable = true;
    if (!perm.empty()) renumberable = kernel.clone_renumbered(perm) != nullptr;
    if (renumberable) {
      plan.applied_layout = LayoutKind::Rcm;
    } else if (may_fall_back) {
      perm.clear();  // fall back: paper-faithful plan
    } else {
      throw check_error(
          "E-LAYOUT-UNSUPPORTED: layout=rcm requires a kernel that "
          "implements clone_renumbered");
    }
  }

  auto owned_iters = inspector::distribute_iterations(
      shape.num_edges, P, opt.distribution, opt.block_cyclic_size);
  plan.insp.resize(P);

  // One reference gather + inspector run per processor. Under a layout
  // the references are gathered *through the permutation* — the plan is
  // exactly what a fresh build against the renumbered kernel clone would
  // produce — and each finished phase is reordered target-stable (step 2).
  // Processor p's buffer slots follow those of processors 0..p-1, so the
  // phased executor lays them all into one reduction array.
  std::uint32_t first_slot = 0;
  for (std::uint32_t p = 0; p < P; ++p) {
    inspector::IterationRefs refs;
    refs.global_iter = std::move(owned_iters[p]);
    refs.refs.resize(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
      refs.refs[r].reserve(refs.global_iter.size());
      if (perm.empty()) {
        for (std::uint32_t e : refs.global_iter)
          refs.refs[r].push_back(kernel.ref(r, e));
      } else {
        for (std::uint32_t e : refs.global_iter)
          refs.refs[r].push_back(perm[kernel.ref(r, e)]);
      }
    }
    plan.insp[p] = inspector::run_light_inspector(plan.sched, p, refs,
                                                  opt.inspector, first_slot);
    first_slot += plan.insp[p].num_buffer_slots;
    if (plan.applied_layout != LayoutKind::None) {
      std::vector<std::uint32_t> last_iter(shape.num_nodes, kNoIter);
      std::vector<std::uint32_t> last_ref(last_iter.size(), 0);
      for (inspector::PhaseSchedule& ph : plan.insp[p].phases)
        reorder_phase_target_stable(kernel, perm, ph, shape.num_refs,
                                    last_iter, last_ref);
    }
  }

  // Step 3: cache-blocked tile size for the batched loops; 0 (untiled)
  // whenever the layout is None so the default hot path is untouched.
  if (plan.applied_layout != LayoutKind::None) {
    plan.tile_iters = layout_tile_iters(
        layout_bytes_per_iter(shape.num_refs), opt.layout_tile_iters);
    if (!perm.empty()) {
      std::vector<std::uint32_t> inv(perm.size());
      for (std::uint32_t v = 0; v < perm.size(); ++v) inv[perm[v]] = v;
      plan.perm = inspector::U32Buf(std::move(perm));
      plan.perm_inv = inspector::U32Buf(std::move(inv));
    }
  }

  plan.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (opt.verify) verify_or_throw(plan, "execution plan");
  return plan;
}

ExecutionPlan patch_execution_plan(
    const PhasedKernel& kernel, const ExecutionPlan& previous,
    std::span<const std::uint32_t> changed_iterations) {
  const KernelShape shape = kernel.shape();
  const PlanOptions& opt = previous.options;
  ER_EXPECTS_MSG(shape.num_nodes == previous.shape.num_nodes &&
                     shape.num_edges == previous.shape.num_edges &&
                     shape.num_refs == previous.shape.num_refs &&
                     shape.num_reduction_arrays ==
                         previous.shape.num_reduction_arrays &&
                     shape.num_node_read_arrays ==
                         previous.shape.num_node_read_arrays,
                 "incremental re-plan requires an identically-shaped kernel");
  for (std::uint32_t g : changed_iterations)
    ER_EXPECTS_MSG(g < shape.num_edges, "changed iteration id out of range");
  // Layout bases interleave the inspector's canonical iteration order
  // with the target-stable reorder, which the sparse updater cannot patch
  // through. Builds are deterministic, so rebuilding under the base's
  // options is bit-identical to a fresh build — the patch contract — just
  // not incremental; the PlanCache counts this fallback separately. A
  // base whose layout request fell back (auto or an env-forced rcm on a
  // kernel that cannot renumber) is in canonical order and patches like
  // a layout=none base.
  if (previous.applied_layout != LayoutKind::None)
    return build_execution_plan(kernel, previous.options);
  ER_EXPECTS_MSG(!opt.inspector.dedup_buffers,
                 "incremental re-plan supports the paper's one-slot-per-"
                 "reference scheme only");

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t P = opt.num_procs;
  // The patched plan keeps the base's schedule and storage handle:
  // untouched phases may still be zero-copy views into a plan-store
  // mapping owned by `previous`.
  ExecutionPlan plan{shape, opt, previous.sched, {}, 0.0, previous.storage,
                     {},    {},  LayoutKind::None, 0};
  plan.insp.resize(P);

  // The iteration distribution depends only on (num_edges, P,
  // distribution) — all unchanged — so each processor owns the same
  // iterations as in the base plan, and the handful of changed ids map to
  // their (processor, local index) homes in O(changes) through the
  // distribution inverse instead of an O(num_edges) re-distribution.
  // Only the changed columns of the reference table are re-gathered.
  std::vector<std::uint32_t> changed_sorted(changed_iterations.begin(),
                                            changed_iterations.end());
  std::sort(changed_sorted.begin(), changed_sorted.end());
  changed_sorted.erase(
      std::unique(changed_sorted.begin(), changed_sorted.end()),
      changed_sorted.end());
  std::vector<std::vector<inspector::ChangedIteration>> per_proc(P);
  for (std::uint32_t g : changed_sorted) {
    const inspector::IterationHome home = inspector::locate_iteration(
        shape.num_edges, P, opt.distribution, opt.block_cyclic_size, g);
    inspector::ChangedIteration ch;
    ch.local = home.local;
    ch.global = g;
    ch.refs.reserve(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r)
      ch.refs.push_back(kernel.ref(r, g));
    per_proc[home.proc].push_back(std::move(ch));
  }
  // Global ids ascending + a monotone local order per processor means
  // each per_proc list is already sorted by local index, as the sparse
  // update requires... except for block-cyclic, where locals of different
  // chunks interleave. Sort to be safe; the lists are tiny.
  for (auto& changes : per_proc)
    std::sort(changes.begin(), changes.end(),
              [](const auto& a, const auto& b) { return a.local < b.local; });

  // Slot ranges stay back to back: when a patched processor's slot count
  // changes, every later processor's range moves with it. A processor
  // with no changed iteration keeps its base result (shared, for a loaded
  // base), or a shifted copy once its range moves.
  std::uint32_t first_slot = 0;
  for (std::uint32_t p = 0; p < P; ++p) {
    plan.insp[p] = inspector::update_light_inspector(
        plan.sched, p, previous.insp[p], per_proc[p], first_slot,
        opt.inspector);
    first_slot += plan.insp[p].num_buffer_slots;
  }

  plan.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (opt.verify) verify_or_throw(plan, "patched execution plan");
  return plan;
}

inspector::PlanVerifyReport verify_execution_plan(
    const ExecutionPlan& plan, const PhasedKernel* kernel,
    const inspector::PlanVerifyOptions& vopt) {
  inspector::PlanVerifyReport report = inspector::verify_plan(
      plan.sched, plan.insp, plan.shape.num_edges, plan.shape.num_refs,
      vopt);
  if (kernel == nullptr) return report;

  const auto fail = [&](std::string msg) {
    ++report.violations;
    if (report.diagnostics.size() >= vopt.max_diagnostics) return;
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = "E-PLAN-REF-MISMATCH";
    d.message = std::move(msg);
    report.diagnostics.push_back(std::move(d));
  };

  // Cross-check: every scheduled reference must resolve — directly or
  // through its buffer slot — to the element the kernel's indirection
  // names for that (ref, iteration). This catches plans that satisfy
  // every rotation invariant but belong to a *different* kernel (stale
  // or aliased cache entries). A layout plan's references live in the
  // relabeled element space, so the expectation is mapped through the
  // plan's permutation.
  const inspector::U32Buf& perm = plan.perm;
  const std::uint32_t n_elems = plan.sched.num_elements();
  for (std::uint32_t p = 0; p < plan.insp.size(); ++p) {
    const InspectorResult& insp = plan.insp[p];
    for (const inspector::PhaseSchedule& phase : insp.phases) {
      const std::size_t n = phase.iter_global.size();
      if (phase.indir_flat.size() != plan.shape.num_refs * n)
        continue;  // already E-PLAN-SHAPE
      for (std::uint32_t r = 0; r < plan.shape.num_refs; ++r) {
        const std::span<const std::uint32_t> row = phase.row(r);
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint64_t g = phase.iter_global[j];
          if (g >= plan.shape.num_edges) continue;  // already E-PLAN-OOB
          std::uint32_t expected = kernel->ref(r, g);
          if (!perm.empty() && expected < perm.size())
            expected = perm[expected];
          const std::uint32_t v = row[j];
          std::uint32_t actual = v;
          if (v >= n_elems) {
            // slot_elem counts from this processor's first slot.
            const std::uint32_t slot = v - n_elems - insp.first_slot;
            if (v - n_elems < insp.first_slot ||
                slot >= insp.slot_elem.size())
              continue;  // E-PLAN-SLOT-RANGE
            actual = insp.slot_elem[slot];
          }
          if (actual != expected)
            fail("proc " + std::to_string(p) + " ref " + std::to_string(r) +
                 " iteration " + std::to_string(g) +
                 ": plan resolves to element " + std::to_string(actual) +
                 " but the kernel's indirection names " +
                 std::to_string(expected));
        }
      }
    }
  }
  return report;
}

namespace {

/// Synthetic-address cost tags sized for the kernel (detached contexts
/// ignore the charges, but kernels index the vectors).
CostTags make_cost_tags(std::uint32_t RA, std::uint32_t NA) {
  CostTags tags;
  earth::ArrayTagAllocator alloc;
  for (std::uint32_t a = 0; a < RA; ++a)
    tags.reduction.push_back(alloc.next());
  for (std::uint32_t a = 0; a < NA; ++a)
    tags.node_read.push_back(alloc.next());
  tags.edge_data = alloc.next();
  tags.indir = alloc.next();
  return tags;
}

/// The P worker threads of one native run, shared by both executors.
/// Worker p pins itself if asked, builds its share of the per-run state
/// (init), waits at the team barrier for every other init, runs the
/// executor's per-sweep loop (body) and leaves, so the calling thread does
/// no size-N setup. run() returns the seconds from the post-init barrier's
/// release to the join: the sweeps only.
///
/// Cooperative stop: one flag is polled by every token wait and checked
/// after every team barrier. A wait that outlives stall_timeout, or a
/// worker that throws (in init or body), raises it, so the other workers
/// unwind instead of blocking forever. A worker leaving — finished,
/// stopped or throwing — drops out of the barrier so the rest never wait
/// on it. run() then rethrows the first worker exception, or reports the
/// stall as a check_error naming the starved step.
class WorkerTeam {
 public:
  WorkerTeam(std::uint32_t num_workers, const SweepOptions& opt)
      : num_workers_(num_workers),
        opt_(opt),
        barrier_(static_cast<std::ptrdiff_t>(num_workers),
                 StampFirstRelease{&start_}) {}

  /// Acquires a token semaphore. Returns false when the team is
  /// stopping — the caller must return from its loop. `describe` builds
  /// the stall diagnostic and is only called when this wait is the one
  /// that times out, so a satisfied wait costs no allocation.
  template <typename Describe>
  bool wait(std::binary_semaphore& sem, Describe&& describe) {
    if (sem.try_acquire()) return true;
    const auto start = Clock::now();
    while (!sem.try_acquire_for(std::chrono::milliseconds(10))) {
      if (stopping()) return false;
      const std::chrono::duration<double> waited = Clock::now() - start;
      if (opt_.stall_timeout > 0.0 && waited.count() >= opt_.stall_timeout) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!stop_.exchange(true)) stall_what_ = describe();
        return false;
      }
    }
    return true;
  }

  /// Team barrier. Returns false when the team is stopping — the caller
  /// must return from its loop.
  bool sync() {
    barrier_.arrive_and_wait();
    return !stopping();
  }

  template <typename Init, typename Body>
  double run(const Init& init, const Body& body) {
    std::vector<std::thread> threads;
    threads.reserve(num_workers_);
    for (std::uint32_t p = 0; p < num_workers_; ++p) {
      try {
        threads.emplace_back([&, p] {
          try {
            if (opt_.affinity.pin_threads) pin_current_thread(p);
            init(p);
            if (sync()) body(p);
          } catch (...) {
            fail(std::current_exception());
          }
          barrier_.arrive_and_drop();
        });
      } catch (...) {
        // Worker p could not be spawned: stop the team and drop the
        // missing workers from the barrier so nobody waits for them.
        fail(std::current_exception());
        for (std::uint32_t q = p; q < num_workers_; ++q)
          barrier_.arrive_and_drop();
        break;
      }
    }
    for (std::thread& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);
    if (stopping())
      throw check_error("native engine stalled after " +
                        std::to_string(opt_.stall_timeout) +
                        "s: " + stall_what_);
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Barrier completion step: stamps the first (post-init) release. It
  /// runs before any worker is released; run() reads it after the join.
  struct StampFirstRelease {
    Clock::time_point* at;
    void operator()() noexcept {
      if (*at == Clock::time_point{}) *at = Clock::now();
    }
  };

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  /// Records the first failure and stops the team.
  void fail(std::exception_ptr error) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::move(error);
    stop_.store(true);
  }

  const std::uint32_t num_workers_;
  const SweepOptions& opt_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;  ///< guards error_ and stall_what_
  std::exception_ptr error_;
  std::string stall_what_;
  Clock::time_point start_{};
  std::barrier<StampFirstRelease> barrier_;
};

/// Runs one phase over `indir` (a flattened ref-major block): the
/// kernel's batch loop, or with `batch` off the base PhasedKernel loop of
/// compute_edge calls, which does the same floating-point operations in
/// the same order.
void run_phase(const PhasedKernel& kernel, earth::FiberContext& ctx,
               const CostTags& tags, const inspector::PhaseSchedule& phase,
               std::span<const std::uint32_t> indir, std::uint32_t num_refs,
               bool batch, BackendKind backend, std::uint32_t tile_iters,
               ProcArrays& ps) {
  PhaseView view;
  view.iter_global = phase.iter_global;
  view.iter_local = phase.iter_local;
  view.indir = indir;
  view.num_iters = phase.iter_global.size();
  view.num_refs = num_refs;
  view.backend = backend;
  view.tile_iters = tile_iters;
  if (batch)
    kernel.compute_phase(ctx, tags, view, ps);
  else
    kernel.PhasedKernel::compute_phase(ctx, tags, view, ps);
}

/// `count` arrays of `n` zeros, each allocated once (copies of a zeroed
/// prototype would allocate and fault in one array more per run).
std::vector<std::vector<double>> zeroed_arrays(std::uint32_t count,
                                               std::size_t n) {
  std::vector<std::vector<double>> arrays(count);
  for (std::vector<double>& a : arrays) a.assign(n, 0.0);
  return arrays;
}

/// The paper's executor, with ownership handed over instead of data (see
/// the header comment): portions of one shared reduction array rotate
/// through the processors over k*P phases as tokens, and the node reads
/// of sweep s come from node-read buffer s % 2 while the portions
/// finalized in sweep s are written to the other buffer. Deterministic;
/// bit-identical between the batched and per-edge paths.
NativeResult run_phased(const PhasedKernel& kernel,
                        const ExecutionPlan& plan, const SweepOptions& opt,
                        BackendKind backend) {
  const KernelShape shape = kernel.shape();
  const RotationSchedule& sched = plan.sched;
  const std::uint32_t P = plan.options.num_procs;
  const std::uint32_t k = plan.options.k;
  const std::uint32_t kp = P * k;
  const std::uint32_t RA = shape.num_reduction_arrays;
  const std::uint32_t NA = shape.num_node_read_arrays;
  const std::uint32_t N = shape.num_nodes;

  // ---- per-run mutable state (the plan itself stays untouched) ----------
  // red[a]: the elements, then every worker's buffer slots back to back
  // (the plan numbers them so); nr[b][a]: node-read buffer b. The workers
  // build them: worker 0 node-read buffer 0 with its initial values (the
  // longest task), the others the reduction arrays and the arrays of
  // node-read buffer 1 in turn. Nothing reads them before the post-init
  // barrier.
  std::vector<std::vector<double>> red(RA);
  std::array<std::vector<std::vector<double>>, 2> nr;
  nr[0].resize(NA);
  nr[1].resize(NA);
  const std::size_t red_size = plan.insp.back().local_array_size;
  const auto init = [&](std::uint32_t p) {
    if (p == 0) {
      for (std::vector<double>& a : nr[0]) a.assign(N, 0.0);
      kernel.init_node_arrays(nr[0]);
    }
    for (std::uint32_t i = 0; i < RA + NA; ++i) {
      if (p != (P == 1 ? 0 : 1 + i % (P - 1))) continue;  // another's
      if (i < RA)
        red[i].assign(red_size, 0.0);
      else
        nr[1][i - RA].assign(N, 0.0);
    }
  };
  // rotation[q * kp + ph]: posted when the portion q owns in phase ph is
  // q's to work on. publish[q * kp + pid]: posted when portion pid's node
  // values for q's next sweep are final (unused for the portions q
  // finalizes itself). A token never holds more than one post: a portion
  // passes through q before its sender can forward it to the same phase
  // again, and it passes through every worker of the ring in a sweep
  // before its final owner can publish it again.
  std::vector<Token> rotation(static_cast<std::size_t>(P) * kp);
  std::vector<Token> publish(static_cast<std::size_t>(P) * kp);

  const CostTags tags = make_cost_tags(RA, NA);
  const std::uint32_t sweeps = opt.sweeps;
  WorkerTeam team(P, opt);

  const auto worker = [&](std::uint32_t p) {
    earth::FiberContext ctx = earth::FiberContext::detached(p);
    const InspectorResult& insp = plan.insp[p];
    // views[b]: the reduction arrays with node-read buffer b.
    std::array<ProcArrays, 2> views;
    for (std::uint32_t b = 0; b < 2; ++b) {
      views[b].reduction.assign(red.begin(), red.end());
      views[b].node_read.assign(nr[b].begin(), nr[b].end());
    }

    for (std::uint32_t sweep = 0; sweep < sweeps; ++sweep) {
      ProcArrays& cur = views[sweep % 2];
      ProcArrays& next = views[(sweep + 1) % 2];
      for (std::uint32_t ph = 0; ph < kp; ++ph) {
        const std::uint32_t pid = sched.owned_portion(p, ph);
        const std::uint32_t begin = sched.portion_begin(pid);
        const std::uint32_t end = sched.portion_end(pid);

        // Sweep boundary: every portion the others finalized last sweep
        // must be published before this sweep reads its node values.
        if (ph == 0 && sweep > 0 && NA > 0) {
          for (std::uint32_t opid = 0; opid < sched.num_portions(); ++opid) {
            if (sched.final_owner(opid) == p) continue;  // finalized here
            if (!team.wait(publish[p * kp + opid].posted, [&] {
                  return "proc " + std::to_string(p) +
                         " stuck waiting for the node values of portion " +
                         std::to_string(opid) + " at sweep " +
                         std::to_string(sweep);
                }))
              return;
          }
        }

        // Portion arrival (the first k phases of sweep 0 start local).
        if (!(sweep == 0 && ph < k) &&
            !team.wait(rotation[p * kp + ph].posted, [&] {
              return "proc " + std::to_string(p) +
                     " stuck waiting for portion " + std::to_string(pid) +
                     " to arrive for phase " + std::to_string(ph) +
                     " at sweep " + std::to_string(sweep) +
                     " (lost forward?)";
            }))
          return;

        // Main loop over the flattened indirection block.
        const inspector::PhaseSchedule& phase = insp.phases[ph];
        run_phase(kernel, ctx, tags, phase, phase.indir_flat,
                  shape.num_refs, opt.batch, backend, plan.tile_iters, cur);
        // Second loop.
        for (std::size_t j = 0; j < phase.copy_dst.size(); ++j) {
          for (std::uint32_t a = 0; a < RA; ++a) {
            cur.reduction[a][phase.copy_dst[j]] +=
                cur.reduction[a][phase.copy_src[j]];
            cur.reduction[a][phase.copy_src[j]] = 0.0;
          }
        }

        // Portion complete: its node update goes to the other buffer,
        // then it is zeroed for the next sweep and published. The last
        // sweep leaves its values in place as the result.
        if (sched.last_owning_phase(pid) == ph) {
          for (std::uint32_t a = 0; a < NA; ++a)
            std::copy(cur.node_read[a].begin() + begin,
                      cur.node_read[a].begin() + end,
                      next.node_read[a].begin() + begin);
          kernel.update_nodes(ctx, tags, begin, end, begin, next);
          if (sweep + 1 < sweeps) {
            for (std::uint32_t a = 0; a < RA; ++a)
              std::fill(cur.reduction[a].begin() + begin,
                        cur.reduction[a].begin() + end, 0.0);
            if (NA > 0)
              for (std::uint32_t q = 0; q < P; ++q)
                if (q != p) publish[q * kp + pid].posted.release();
          }
        }

        // Hand the portion on around the ring.
        std::uint32_t tph = ph + k;
        const std::uint32_t tsweep = sweep + (tph >= kp ? 1 : 0);
        tph %= kp;
        if (tsweep < sweeps) {
          if (opt.lose_forward.enabled && opt.lose_forward.proc == p &&
              opt.lose_forward.phase == ph && opt.lose_forward.sweep == sweep)
            continue;  // fault hook: this forward silently vanishes
          rotation[sched.next_owner(p) * kp + tph].posted.release();
        }
      }
    }
  };

  NativeResult result;
  result.wall_seconds = team.run(init, worker);
  for (std::vector<double>& a : red) a.resize(N);  // drop the slots
  result.reduction = std::move(red);
  result.node_read = std::move(nr[sweeps % 2]);
  result.backend = opt.batch ? backend : BackendKind::Scalar;
  return result;
}

/// Privatized executor: every worker accumulates into a full private
/// replica of the reduction arrays using the *direct* element ids (the
/// plan's redirection undone via kernel.ref), then the replicas are
/// folded into a shared result in fixed worker-ascending order over
/// disjoint node ranges. The fixed fold order is the strategy's
/// bit-identity contract: the batched and per-edge paths perform the
/// same FP ops in the same order (the phased contract, inherited), and
/// the merge adds replica 0, 1, ..., P-1 per element regardless of
/// thread timing, so results never depend on interleaving.
NativeResult run_privatized(const PhasedKernel& kernel,
                            const ExecutionPlan& plan,
                            const SweepOptions& opt, BackendKind backend) {
  const KernelShape shape = kernel.shape();
  const std::uint32_t P = plan.options.num_procs;
  const std::uint32_t kp = P * plan.options.k;
  const std::uint32_t RA = shape.num_reduction_arrays;
  const std::uint32_t NA = shape.num_node_read_arrays;
  const std::uint32_t N = shape.num_nodes;
  const std::uint32_t R = shape.num_refs;

  // The shared arrays the fold writes and update_nodes reads/writes.
  OwnedArrays merged;
  merged.reduction.resize(RA);
  merged.node_read.resize(NA);

  std::vector<OwnedArrays> priv(P);
  // direct[p][ph]: the worker's schedule with redirection undone — a
  // flattened ref-major block of true element ids, same layout as the
  // plan's indir_flat, so the kernels' batched phase loops run unchanged
  // against the full-size replica.
  std::vector<std::vector<std::vector<std::uint32_t>>> direct(P);

  /// Builds worker p's replica, its direct ids and its share of `merged`:
  /// of the RA reduction then NA node-read arrays, worker i mod P builds
  /// array i, as zeros or as a copy of its own initialized replica.
  const auto init_proc_state = [&](std::uint32_t p) {
    priv[p].reduction = zeroed_arrays(RA, N);
    priv[p].node_read = zeroed_arrays(NA, N);
    kernel.init_node_arrays(priv[p].node_read);
    for (std::uint32_t i = p; i < RA + NA; i += P) {
      if (i < RA)
        merged.reduction[i].assign(N, 0.0);
      else
        merged.node_read[i - RA] = priv[p].node_read[i - RA];
    }
    direct[p].resize(kp);
    for (std::uint32_t ph = 0; ph < kp; ++ph) {
      const inspector::PhaseSchedule& phase = plan.insp[p].phases[ph];
      const std::size_t iters = phase.iter_global.size();
      std::vector<std::uint32_t>& flat = direct[p][ph];
      flat.resize(iters * R);
      for (std::uint32_t r = 0; r < R; ++r)
        for (std::size_t j = 0; j < iters; ++j)
          flat[static_cast<std::size_t>(r) * iters + j] =
              kernel.ref(r, phase.iter_global[j]);
    }
  };

  const CostTags tags = make_cost_tags(RA, NA);
  const std::uint32_t sweeps = opt.sweeps;
  WorkerTeam team(P, opt);

  const auto worker = [&](std::uint32_t p) {
    earth::FiberContext ctx = earth::FiberContext::detached(p);
    ProcArrays ps = priv[p].view();
    ProcArrays shared = merged.view();
    // This worker's node range: it folds, updates and publishes exactly
    // these elements.
    const std::uint32_t lo =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(N) * p / P);
    const std::uint32_t hi = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(N) * (p + 1) / P);

    for (std::uint32_t sweep = 0; sweep < sweeps; ++sweep) {
      for (std::uint32_t ph = 0; ph < kp; ++ph)
        run_phase(kernel, ctx, tags, plan.insp[p].phases[ph], direct[p][ph],
                  R, opt.batch, backend, plan.tile_iters, ps);

      // All replicas complete before anyone folds.
      if (!team.sync()) return;

      // Fixed-order fold over this worker's node range: replica 0 first,
      // then ascending — the deterministic-merge contract.
      for (std::uint32_t a = 0; a < RA; ++a) {
        for (std::uint32_t v = lo; v < hi; ++v) {
          double sum = priv[0].reduction[a][v];
          for (std::uint32_t q = 1; q < P; ++q) sum += priv[q].reduction[a][v];
          merged.reduction[a][v] = sum;
        }
      }
      kernel.update_nodes(ctx, tags, lo, hi, lo, shared);

      // Publish before anyone reads another range or zeroes a replica
      // someone may still be folding from.
      if (!team.sync()) return;

      if (sweep + 1 < sweeps) {
        for (std::uint32_t a = 0; a < RA; ++a)
          std::fill(ps.reduction[a].begin(), ps.reduction[a].end(), 0.0);
        for (std::uint32_t a = 0; a < NA; ++a)
          std::copy(merged.node_read[a].begin(), merged.node_read[a].end(),
                    ps.node_read[a].begin());
        if (!team.sync()) return;
      }
    }
  };

  NativeResult result;
  result.wall_seconds = team.run(init_proc_state, worker);
  result.reduction = std::move(merged.reduction);
  result.node_read = std::move(merged.node_read);
  result.backend = opt.batch ? backend : BackendKind::Scalar;
  return result;
}

}  // namespace

NativeResult run_native_plan(const PhasedKernel& kernel,
                             const ExecutionPlan& plan,
                             const SweepOptions& opt) {
  const KernelShape shape = kernel.shape();
  ER_EXPECTS(opt.sweeps >= 1);
  ER_CHECK_MSG(shape.num_nodes == plan.shape.num_nodes &&
                   shape.num_edges == plan.shape.num_edges &&
                   shape.num_refs == plan.shape.num_refs &&
                   shape.num_reduction_arrays ==
                       plan.shape.num_reduction_arrays &&
                   shape.num_node_read_arrays ==
                       plan.shape.num_node_read_arrays,
               "execution plan was built for a differently-shaped kernel");

  // Resolve the compute backend and the lowering strategy once, before
  // any worker spawns: Auto picks via host support / the cost model, and
  // an unsupported explicit request raises its E-* code here rather than
  // faulting in a worker. The per-edge executors ignore the backend but
  // still validate it.
  const BackendKind backend = resolve_backend(opt.backend);
  const StrategyKind strategy = resolve_strategy(
      plan.options.strategy,
      strategy_inputs(shape, plan.options.num_procs, plan.options.k));

  // Layout plans address the relabeled element space: every executor runs
  // against a renumbered clone of the kernel and the result arrays are
  // un-permuted at read-out, so callers never see the relabeling.
  std::unique_ptr<PhasedKernel> renumbered;
  const PhasedKernel* exec = &kernel;
  if (!plan.perm.empty()) {
    ER_CHECK_MSG(plan.perm.size() == shape.num_nodes,
                 "layout permutation does not match the kernel's node count");
    renumbered = kernel.clone_renumbered(plan.perm);
    ER_CHECK_MSG(renumbered != nullptr,
                 "E-LAYOUT-UNSUPPORTED: plan carries a layout permutation "
                 "but the kernel cannot renumber");
    exec = renumbered.get();
  }

  NativeResult result;
  switch (strategy) {
    case StrategyKind::Privatized:
      result = run_privatized(*exec, plan, opt, backend);
      break;
    case StrategyKind::Auto:  // unreachable after resolution
    case StrategyKind::Phased:
      result = run_phased(*exec, plan, opt, backend);
      break;
  }
  result.strategy = strategy;

  if (!plan.perm.empty()) {
    // res_old[a][v] = res_new[a][perm[v]] — one gather per array.
    std::vector<double> tmp;
    const auto unpermute = [&](std::vector<std::vector<double>>& arrs) {
      for (std::vector<double>& a : arrs) {
        tmp.resize(a.size());
        for (std::uint32_t v = 0; v < shape.num_nodes; ++v)
          tmp[v] = a[plan.perm[v]];
        a.swap(tmp);
      }
    };
    unpermute(result.reduction);
    unpermute(result.node_read);
  }
  return result;
}

NativeResult run_native_engine(const PhasedKernel& kernel,
                               const NativeOptions& opt) {
  const ExecutionPlan plan = build_execution_plan(kernel, opt.plan);
  return run_native_plan(kernel, plan, opt.sweep);
}

}  // namespace earthred::core

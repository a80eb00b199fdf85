// Cross-executor equivalence for the batched hot path (PR 3).
//
// The native engine runs each phase either through per-edge virtual
// compute_edge calls (the original executor, kept as fallback) or through
// one batched compute_phase call streaming the flattened indirection
// block. The batch loops perform the same floating-point operations in
// the same order, so the two executors must agree *bit for bit* — these
// tests assert exact equality, not tolerances, across every kernel,
// distribution, and k.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/native_engine.hpp"
#include "inspector/light_inspector.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "kernels/spmv_t.hpp"
#include "mesh/generators.hpp"
#include "sparse/nas_cg.hpp"
#include "support/prng.hpp"

namespace earthred::core {
namespace {

struct NamedKernel {
  std::string name;
  std::unique_ptr<const PhasedKernel> kernel;
};

std::vector<NamedKernel> make_kernels() {
  std::vector<NamedKernel> ks;
  ks.push_back({"fig1", std::make_unique<kernels::Fig1Kernel>(
                            kernels::Fig1Kernel::with_integer_values(
                                mesh::make_geometric_mesh({96, 500, 21})))});
  ks.push_back({"euler", std::make_unique<kernels::EulerKernel>(
                             mesh::make_geometric_mesh({160, 700, 8}))});
  ks.push_back({"moldyn", std::make_unique<kernels::MoldynKernel>(
                              mesh::make_moldyn_lattice({3, 300, 0.03, 2}))});
  const sparse::CsrMatrix A =
      sparse::make_nas_cg_matrix({120, 3, 0.1, 10.0, 314159265.0});
  Xoshiro256 rng(7);
  std::vector<double> x(A.nrows());
  for (auto& v : x) v = rng.uniform(-1, 1);
  ks.push_back(
      {"spmv_t", std::make_unique<kernels::SpmvTKernel>(A, std::move(x))});
  return ks;
}

void expect_results_identical(const NativeResult& a, const NativeResult& b,
                              const std::string& what) {
  ASSERT_EQ(a.reduction.size(), b.reduction.size()) << what;
  for (std::size_t arr = 0; arr < a.reduction.size(); ++arr)
    for (std::size_t i = 0; i < a.reduction[arr].size(); ++i)
      ASSERT_EQ(a.reduction[arr][i], b.reduction[arr][i])
          << what << " reduction[" << arr << "][" << i << "]";
  ASSERT_EQ(a.node_read.size(), b.node_read.size()) << what;
  for (std::size_t arr = 0; arr < a.node_read.size(); ++arr)
    for (std::size_t i = 0; i < a.node_read[arr].size(); ++i)
      ASSERT_EQ(a.node_read[arr][i], b.node_read[arr][i])
          << what << " node_read[" << arr << "][" << i << "]";
}

TEST(BatchEquivalence, BitIdenticalAcrossKernelsDistributionsAndK) {
  const std::vector<NamedKernel> kernels = make_kernels();
  for (const NamedKernel& nk : kernels) {
    for (const auto dist : {inspector::Distribution::Block,
                            inspector::Distribution::Cyclic,
                            inspector::Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u, 4u}) {
        PlanOptions popt;
        popt.num_procs = 4;
        popt.k = k;
        popt.distribution = dist;
        // This is a bit-identity gate for the *phased* executor; pin the
        // strategy so the CI strategy-matrix env cannot reroute it onto
        // a lowering with a different summation order.
        popt.strategy = StrategyKind::Phased;
        const ExecutionPlan plan = build_execution_plan(*nk.kernel, popt);

        SweepOptions sopt;
        sopt.sweeps = 3;  // multi-sweep: covers the broadcast path too
        sopt.batch = false;
        const NativeResult edge = run_native_plan(*nk.kernel, plan, sopt);
        sopt.batch = true;
        const NativeResult batch = run_native_plan(*nk.kernel, plan, sopt);

        expect_results_identical(
            edge, batch,
            nk.name + " dist=" + std::to_string(static_cast<int>(dist)) +
                " k=" + std::to_string(k));
      }
    }
  }
}

TEST(BatchEquivalence, AllBackendsBitIdenticalToPerEdgeReference) {
  // The acceptance bar for the compute-backend layer: every tier the
  // host can run (scalar always; AVX2/AVX-512 when supported) must
  // reproduce the per-edge reference bit for bit across every kernel,
  // distribution, and k. The SIMD tiers vectorize gathers and arithmetic
  // only — scatter accumulation stays scalar and in order — so exact
  // equality is the contract, not a tolerance.
  std::vector<BackendKind> tiers = {BackendKind::Scalar};
  if (backend_supported(BackendKind::Avx2))
    tiers.push_back(BackendKind::Avx2);
  if (backend_supported(BackendKind::Avx512))
    tiers.push_back(BackendKind::Avx512);

  const std::vector<NamedKernel> kernels = make_kernels();
  for (const NamedKernel& nk : kernels) {
    for (const auto dist : {inspector::Distribution::Block,
                            inspector::Distribution::Cyclic,
                            inspector::Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u, 4u}) {
        PlanOptions popt;
        popt.num_procs = 4;
        popt.k = k;
        popt.distribution = dist;
        popt.strategy = StrategyKind::Phased;  // bit-identity gate: pin
        const ExecutionPlan plan = build_execution_plan(*nk.kernel, popt);

        SweepOptions sopt;
        sopt.sweeps = 3;
        sopt.batch = false;
        const NativeResult edge = run_native_plan(*nk.kernel, plan, sopt);

        sopt.batch = true;
        for (const BackendKind tier : tiers) {
          sopt.backend = tier;
          const NativeResult got = run_native_plan(*nk.kernel, plan, sopt);
          EXPECT_EQ(got.backend, tier);
          expect_results_identical(
              edge, got,
              nk.name + " backend=" + std::string(to_string(tier)) +
                  " dist=" + std::to_string(static_cast<int>(dist)) +
                  " k=" + std::to_string(k));
        }
      }
    }
  }
}

TEST(BatchEquivalence, AffinityKnobsDoNotChangeResults) {
  // Pinning moves thread placement and scheduling, never arithmetic:
  // results stay bit-identical with it on.
  const kernels::EulerKernel kernel(mesh::make_geometric_mesh({160, 700, 8}));
  PlanOptions popt;
  popt.num_procs = 4;
  popt.k = 2;
  popt.strategy = StrategyKind::Phased;  // bit-identity gate: pin
  const ExecutionPlan plan = build_execution_plan(kernel, popt);

  SweepOptions sopt;
  sopt.sweeps = 3;
  const NativeResult plain = run_native_plan(kernel, plan, sopt);
  sopt.affinity.pin_threads = true;
  const NativeResult pinned = run_native_plan(kernel, plan, sopt);
  expect_results_identical(plain, pinned, "affinity on vs off");

  sopt.batch = false;  // and the per-edge executor, pinned
  const NativeResult pinned_edge = run_native_plan(kernel, plan, sopt);
  expect_results_identical(plain, pinned_edge, "affinity + per-edge");
}

TEST(BatchEquivalence, ByteSizeCountsPhaseData) {
  // byte_size drives PlanCache eviction, so it must track everything the
  // plan owns: a mesh with more edges (more phase iterations, more
  // flattened indirection) must report a strictly larger footprint, and
  // the footprint must at least cover the flattened blocks it carries.
  const kernels::EulerKernel small_k(mesh::make_geometric_mesh({96, 400, 5}));
  const kernels::EulerKernel big_k(mesh::make_geometric_mesh({96, 1600, 5}));
  PlanOptions popt;
  popt.num_procs = 4;
  popt.k = 2;
  const ExecutionPlan small_plan = build_execution_plan(small_k, popt);
  const ExecutionPlan big_plan = build_execution_plan(big_k, popt);
  EXPECT_GT(big_plan.byte_size(), small_plan.byte_size());

  std::uint64_t flat_bytes = 0;
  for (const inspector::InspectorResult& insp : small_plan.insp)
    for (const inspector::PhaseSchedule& ph : insp.phases)
      flat_bytes += ph.indir_flat.size() * sizeof(std::uint32_t);
  EXPECT_GT(flat_bytes, 0u);
  EXPECT_GE(small_plan.byte_size(), flat_bytes);
}

TEST(BatchEquivalence, StrategySweepKeepsExecutorContracts) {
  // The strategy sweep of the original equivalence gate: for every
  // strategy, the batched executor must reproduce that strategy's
  // per-edge run bit for bit, and report the strategy it ran.
  const std::vector<NamedKernel> kernels = make_kernels();
  for (const NamedKernel& nk : kernels) {
    for (const auto dist : {inspector::Distribution::Block,
                            inspector::Distribution::Cyclic,
                            inspector::Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u, 4u}) {
        for (const StrategyKind s :
             {StrategyKind::Phased, StrategyKind::Privatized}) {
          PlanOptions popt;
          popt.num_procs = 4;
          popt.k = k;
          popt.distribution = dist;
          popt.strategy = s;
          const ExecutionPlan plan = build_execution_plan(*nk.kernel, popt);

          SweepOptions sopt;
          sopt.sweeps = 3;
          sopt.batch = false;
          const NativeResult edge = run_native_plan(*nk.kernel, plan, sopt);
          EXPECT_EQ(edge.strategy, s);
          sopt.batch = true;
          const NativeResult batch = run_native_plan(*nk.kernel, plan, sopt);
          EXPECT_EQ(batch.strategy, s);

          expect_results_identical(
              edge, batch,
              nk.name + " strategy=" + std::string(to_string(s)) +
                  " dist=" + std::to_string(static_cast<int>(dist)) +
                  " k=" + std::to_string(k));
        }
      }
    }
  }
}

TEST(BatchEquivalence, LayoutPassIsBitIdenticalToLayoutNone) {
  // The layout pass's acceptance bar: RCM renumbering + target-stable
  // edge reorder + cache tiles form a pure plan isomorphism — the same
  // floating-point operations at relabeled addresses, per-target
  // accumulation order preserved by the stable sort, results un-permuted
  // at read-out. Every layout plan must therefore reproduce the
  // layout=none *per-edge reference* bit for bit, through both
  // executors, across kernels x distributions x k.
  const std::vector<NamedKernel> kernels = make_kernels();
  for (const NamedKernel& nk : kernels) {
    for (const auto dist : {inspector::Distribution::Block,
                            inspector::Distribution::Cyclic,
                            inspector::Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u}) {
        PlanOptions popt;
        popt.num_procs = 4;
        popt.k = k;
        popt.distribution = dist;
        popt.strategy = StrategyKind::Phased;  // bit-identity gate: pin
        const ExecutionPlan none = build_execution_plan(*nk.kernel, popt);

        SweepOptions sopt;
        sopt.sweeps = 3;
        sopt.batch = false;
        const NativeResult ref = run_native_plan(*nk.kernel, none, sopt);

        for (const LayoutKind layout : {LayoutKind::Rcm, LayoutKind::Auto}) {
          popt.layout = layout;
          const ExecutionPlan plan = build_execution_plan(*nk.kernel, popt);
          // All four built-in kernels can renumber, so both rcm and auto
          // must actually apply the pass (and size its tiles).
          EXPECT_EQ(plan.applied_layout, LayoutKind::Rcm);
          EXPECT_GT(plan.tile_iters, 0u);

          sopt.batch = false;
          const NativeResult edge = run_native_plan(*nk.kernel, plan, sopt);
          sopt.batch = true;
          const NativeResult batch = run_native_plan(*nk.kernel, plan, sopt);

          const std::string what =
              nk.name + " layout=" + std::string(to_string(layout)) +
              " dist=" + std::to_string(static_cast<int>(dist)) +
              " k=" + std::to_string(k);
          expect_results_identical(ref, edge, what + " (per-edge)");
          expect_results_identical(ref, batch, what + " (batched)");
        }
      }
    }
  }
}

TEST(BatchEquivalence, InspectorFlattensIndirConsistently) {
  // indir_flat is the batch executor's input: after both the full run and
  // an incremental update it must be ref-major, row(r)[j] resolving
  // (directly or through its buffer slot) to reference r of the phase's
  // j-th iteration.
  using namespace inspector;
  const RotationSchedule sched(64, 4, 2);
  Xoshiro256 rng(11);
  IterationRefs iters;
  iters.refs.resize(2);
  for (std::uint32_t i = 0; i < 200; ++i) {
    iters.global_iter.push_back(i);
    iters.refs[0].push_back(static_cast<std::uint32_t>(rng.below(64)));
    iters.refs[1].push_back(static_cast<std::uint32_t>(rng.below(64)));
  }
  const auto check_flat = [&](const InspectorResult& r) {
    for (const PhaseSchedule& ph : r.phases) {
      const std::size_t n = ph.iter_global.size();
      ASSERT_EQ(ph.indir_flat.size(), iters.num_refs() * n);
      for (std::size_t rr = 0; rr < iters.num_refs(); ++rr)
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint32_t v = ph.indir_flat[rr * n + j];
          ASSERT_EQ(ph.row(rr)[j], v);
          const std::uint32_t elem = v < 64 ? v : r.slot_elem[v - 64];
          ASSERT_EQ(elem, iters.refs[rr][ph.iter_local[j]]);
        }
    }
  };
  const InspectorResult base = run_light_inspector(sched, 1, iters);
  check_flat(base);

  std::vector<std::uint32_t> changed;
  for (std::uint32_t i = 0; i < 200; i += 7) {
    iters.refs[0][i] = static_cast<std::uint32_t>(rng.below(64));
    changed.push_back(i);
  }
  const InspectorResult incr =
      update_light_inspector(sched, 1, iters, base, changed);
  check_flat(incr);
}

}  // namespace
}  // namespace earthred::core

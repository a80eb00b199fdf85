// The data-layout optimization pass (core/layout.hpp + the layout steps
// inside build_execution_plan): knob parsing and env resolution, the
// tile-size heuristic, the portion-preserving RCM permutation's
// invariants, clone_renumbered semantics per kernel, the unsupported /
// fallback paths, and the PlanCache's counted layout-patch fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/layout.hpp"
#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "kernels/spmv_t.hpp"
#include "mesh/generators.hpp"
#include "service/plan_cache.hpp"
#include "sparse/nas_cg.hpp"
#include "support/check.hpp"
#include "support/cpu_features.hpp"
#include "support/prng.hpp"

namespace earthred::core {
namespace {

TEST(Layout, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_layout("none"), LayoutKind::None);
  EXPECT_EQ(parse_layout("rcm"), LayoutKind::Rcm);
  EXPECT_EQ(parse_layout("auto"), LayoutKind::Auto);
  for (const LayoutKind l :
       {LayoutKind::None, LayoutKind::Rcm, LayoutKind::Auto})
    EXPECT_EQ(parse_layout(std::string(to_string(l))), l);
  try {
    parse_layout("fancy");
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("E-LAYOUT-NAME"),
              std::string::npos)
        << e.what();
  }
}

TEST(Layout, EnvOverrideAppliesOnlyToDefaultRequests) {
  ::unsetenv("EARTHRED_FORCE_LAYOUT");
  EXPECT_EQ(effective_layout(LayoutKind::None), LayoutKind::None);
  EXPECT_EQ(effective_layout(LayoutKind::Rcm), LayoutKind::Rcm);

  ::setenv("EARTHRED_FORCE_LAYOUT", "rcm", 1);
  // The override rewrites only the *default* request — an explicit knob
  // always wins, mirroring EARTHRED_FORCE_STRATEGY.
  EXPECT_EQ(effective_layout(LayoutKind::None), LayoutKind::Rcm);
  EXPECT_EQ(effective_layout(LayoutKind::Auto), LayoutKind::Auto);
  ::unsetenv("EARTHRED_FORCE_LAYOUT");
}

TEST(Layout, TileHeuristicFollowsCacheAndOverride) {
  // An explicit override always wins.
  EXPECT_EQ(layout_tile_iters(100, 777), 777u);

  // Heuristic: half the detected L1d, clamped to [256, 1<<20].
  support::CacheInfo ci;
  ci.l1d_bytes = 32 * 1024;
  support::set_cache_info_for_test(&ci);
  EXPECT_EQ(layout_tile_iters(32, 0), (32u * 1024 / 2) / 32);
  // Tiny budget or huge iteration footprint clamps low...
  EXPECT_EQ(layout_tile_iters(1 << 20, 0), 256u);
  // ...and an unknown cache falls back to the 32 KiB default.
  ci.l1d_bytes = 0;
  support::set_cache_info_for_test(&ci);
  EXPECT_EQ(layout_tile_iters(32, 0), (32u * 1024 / 2) / 32);
  support::set_cache_info_for_test(nullptr);
}

TEST(Layout, PermutationIsAPortionPreservingBijection) {
  // The bit-identity argument rests on this invariant: the permutation
  // reorders elements *within* each rotation portion only, so phase
  // assignment, slot numbering, and fold structure are untouched and the
  // plan is a pure isomorphism of the layout=none plan.
  const kernels::EulerKernel kernel(mesh::make_geometric_mesh({400, 2200, 5}));
  PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  opt.layout = LayoutKind::Rcm;
  const ExecutionPlan plan = build_execution_plan(kernel, opt);
  ASSERT_EQ(plan.applied_layout, LayoutKind::Rcm);
  ASSERT_EQ(plan.perm.size(), plan.shape.num_nodes);
  ASSERT_EQ(plan.perm_inv.size(), plan.shape.num_nodes);

  std::vector<bool> hit(plan.perm.size(), false);
  for (std::uint32_t v = 0; v < plan.perm.size(); ++v) {
    const std::uint32_t pv = plan.perm[v];
    ASSERT_LT(pv, plan.perm.size());
    EXPECT_FALSE(hit[pv]) << "duplicate target " << pv;
    hit[pv] = true;
    EXPECT_EQ(plan.perm_inv[pv], v);
    EXPECT_EQ(plan.sched.portion_of(pv), plan.sched.portion_of(v))
        << "node " << v << " left its portion";
  }
}

TEST(Layout, CloneRenumberedRelabelsReferences) {
  // mesh::renumber preserves edge order, so for every mesh kernel the
  // clone's reference r of edge e must be perm[original ref(r, e)] — the
  // exact property build_execution_plan relies on when it gathers refs
  // through the permutation instead of cloning during the build.
  struct Named {
    std::string name;
    std::unique_ptr<const PhasedKernel> kernel;
  };
  std::vector<Named> ks;
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

  for (const Named& nk : ks) {
    const KernelShape shape = nk.kernel->shape();
    // A deterministic nontrivial permutation: rotate each half.
    std::vector<std::uint32_t> perm(shape.num_nodes);
    std::iota(perm.begin(), perm.end(), 0u);
    const std::uint32_t half = shape.num_nodes / 2;
    std::rotate(perm.begin(), perm.begin() + 1,
                perm.begin() + half);
    std::rotate(perm.begin() + half, perm.begin() + half + 1, perm.end());

    const std::unique_ptr<PhasedKernel> clone =
        nk.kernel->clone_renumbered(perm);
    ASSERT_NE(clone, nullptr) << nk.name;
    const KernelShape cs = clone->shape();
    EXPECT_EQ(cs.num_nodes, shape.num_nodes) << nk.name;
    EXPECT_EQ(cs.num_edges, shape.num_edges) << nk.name;
    EXPECT_EQ(cs.num_refs, shape.num_refs) << nk.name;
    for (std::uint32_t r = 0; r < shape.num_refs; ++r)
      for (std::uint64_t e = 0; e < shape.num_edges; ++e)
        ASSERT_EQ(clone->ref(r, e), perm[nk.kernel->ref(r, e)])
            << nk.name << " ref " << r << " edge " << e;
  }
}

/// A kernel that cannot renumber — it inherits PhasedKernel's default
/// clone_renumbered (nullptr), which is what any not-yet-ported kernel,
/// e.g. a compiler-synthesized one, looks like to the layout pass. A
/// forwarding wrapper because Fig1Kernel itself is final.
class NoRenumberKernel final : public PhasedKernel {
 public:
  explicit NoRenumberKernel(mesh::Mesh m)
      : inner_(kernels::Fig1Kernel::with_integer_values(std::move(m))) {}
  KernelShape shape() const override { return inner_.shape(); }
  std::uint32_t ref(std::uint32_t r, std::uint64_t edge) const override {
    return inner_.ref(r, edge);
  }
  void init_node_arrays(
      std::vector<std::vector<double>>& arrays) const override {
    inner_.init_node_arrays(arrays);
  }
  void compute_edge(earth::FiberContext& ctx, const CostTags& tags,
                    std::uint64_t edge_global, std::uint64_t edge_slot,
                    std::span<const std::uint32_t> redirected,
                    ProcArrays& arrays) const override {
    inner_.compute_edge(ctx, tags, edge_global, edge_slot, redirected,
                        arrays);
  }
  void update_nodes(earth::FiberContext& ctx, const CostTags& tags,
                    std::uint32_t begin, std::uint32_t end,
                    std::uint32_t base, ProcArrays& arrays) const override {
    inner_.update_nodes(ctx, tags, begin, end, base, arrays);
  }

 private:
  kernels::Fig1Kernel inner_;
};

TEST(Layout, AutoFallsBackAndRcmRefusesOnNonRenumberableKernels) {
  const NoRenumberKernel kernel(mesh::make_geometric_mesh({96, 500, 21}));
  PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;

  opt.layout = LayoutKind::Auto;
  const ExecutionPlan plan = build_execution_plan(kernel, opt);
  EXPECT_EQ(plan.applied_layout, LayoutKind::None);
  EXPECT_TRUE(plan.perm.empty());
  EXPECT_EQ(plan.tile_iters, 0u);  // fallback leaves the hot path untouched

  opt.layout = LayoutKind::Rcm;
  try {
    build_execution_plan(kernel, opt);
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("E-LAYOUT-UNSUPPORTED"),
              std::string::npos)
        << e.what();
  }
}

TEST(Layout, EnvForcedRcmFallsBackOnNonRenumberableKernels) {
  // The env override rewrites default requests wholesale, so a kernel
  // that cannot renumber gets the paper-faithful plan, like `auto`.
  const NoRenumberKernel kernel(mesh::make_geometric_mesh({96, 500, 21}));
  PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  ::setenv("EARTHRED_FORCE_LAYOUT", "rcm", 1);
  const ExecutionPlan plan = build_execution_plan(kernel, opt);
  ::unsetenv("EARTHRED_FORCE_LAYOUT");
  EXPECT_EQ(plan.options.layout, LayoutKind::Rcm);  // matches the plan key
  EXPECT_EQ(plan.applied_layout, LayoutKind::None);
  EXPECT_TRUE(plan.perm.empty());
  EXPECT_EQ(plan.tile_iters, 0u);

  // The fallen-back base patches in place; the rebuild path would re-read
  // layout=rcm as an explicit request and refuse.
  const std::vector<std::uint32_t> changed = {0, 5};
  const ExecutionPlan patched = patch_execution_plan(kernel, plan, changed);
  EXPECT_EQ(patched.applied_layout, LayoutKind::None);
}

TEST(Layout, PatchOnLayoutBaseRebuildsBitIdentically) {
  // patch_execution_plan cannot patch through a renumbering (the mutation
  // changes the reference graph the permutation was computed from), so on
  // a layout base it transparently rebuilds — and deterministic builds
  // make that bit-identical to patching-then-rebuilding by hand.
  kernels::Fig1Kernel base(kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({250, 1500, 21})));
  PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  opt.layout = LayoutKind::Rcm;
  const ExecutionPlan base_plan = build_execution_plan(base, opt);
  ASSERT_EQ(base_plan.applied_layout, LayoutKind::Rcm);

  // Mutate a few edges, then patch against the layout base.
  mesh::Mesh mutated_mesh = mesh::make_geometric_mesh({250, 1500, 21});
  std::vector<std::uint32_t> changed;
  for (std::uint32_t e = 0; e < 40; e += 4) {
    mutated_mesh.edges[e].b =
        (mutated_mesh.edges[e].b + 7) % mutated_mesh.num_nodes;
    if (mutated_mesh.edges[e].a == mutated_mesh.edges[e].b)
      mutated_mesh.edges[e].b =
          (mutated_mesh.edges[e].b + 1) % mutated_mesh.num_nodes;
    changed.push_back(e);
  }
  const kernels::Fig1Kernel mutated(
      kernels::Fig1Kernel::with_integer_values(std::move(mutated_mesh)));

  const ExecutionPlan patched =
      patch_execution_plan(mutated, base_plan, changed);
  const ExecutionPlan rebuilt = build_execution_plan(mutated, opt);
  EXPECT_TRUE(plans_bit_identical(patched, rebuilt));
}

TEST(Layout, PlanCacheCountsLayoutPatchFallbacks) {
  // The service path: patch_or_build on a layout base must not attempt
  // an in-place patch — it routes to a full build and counts the event,
  // and the client sees a working plan either way.
  kernels::Fig1Kernel base(kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({250, 1500, 21})));
  PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  opt.layout = LayoutKind::Auto;

  service::PlanCache cache;
  const service::PlanPtr base_plan = cache.lookup_or_build(base, opt);
  ASSERT_NE(base_plan, nullptr);
  ASSERT_EQ(base_plan->applied_layout, LayoutKind::Rcm);
  const std::uint64_t base_fp = service::kernel_fingerprint(base);

  mesh::Mesh mutated_mesh = mesh::make_geometric_mesh({250, 1500, 21});
  mutated_mesh.edges[3].b = (mutated_mesh.edges[3].b + 11) % 250;
  if (mutated_mesh.edges[3].a == mutated_mesh.edges[3].b)
    mutated_mesh.edges[3].b = (mutated_mesh.edges[3].b + 1) % 250;
  const kernels::Fig1Kernel mutated(
      kernels::Fig1Kernel::with_integer_values(std::move(mutated_mesh)));

  const std::vector<std::uint32_t> changed{3u};
  service::PlanCache::Outcome how{};
  const service::PlanPtr patched =
      cache.patch_or_build(mutated, opt, base_fp, changed, {}, &how);
  ASSERT_NE(patched, nullptr);
  EXPECT_EQ(how, service::PlanCache::Outcome::Built);
  EXPECT_EQ(cache.counters().layout_patch_fallbacks, 1u);
  EXPECT_EQ(cache.counters().patched, 0u);
  EXPECT_EQ(cache.counters().patch_fallbacks, 0u);
}

TEST(Layout, PlanKeyResolvesEnvForcedLayout) {
  // make_plan_key must key what build_execution_plan will actually build,
  // or a forced env could serve a layout plan under a none key.
  const kernels::Fig1Kernel kernel(kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21})));
  PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;

  ::setenv("EARTHRED_FORCE_LAYOUT", "rcm", 1);
  const service::PlanKey forced = service::make_plan_key(kernel, opt);
  EXPECT_EQ(forced.layout, LayoutKind::Rcm);
  ::unsetenv("EARTHRED_FORCE_LAYOUT");
  const service::PlanKey plain = service::make_plan_key(kernel, opt);
  EXPECT_EQ(plain.layout, LayoutKind::None);
  EXPECT_NE(forced, plain);
}

}  // namespace
}  // namespace earthred::core

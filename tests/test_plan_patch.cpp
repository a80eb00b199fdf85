// Incremental re-planning (core::patch_execution_plan and the sparse
// inspector update behind it): the contract is bit-identical output — a
// patched plan must be indistinguishable from a fresh build of the
// mutated kernel, across every kernel x distribution x k configuration,
// and must pass the exhaustive plan verifier. Also pins down
// locate_iteration, the O(1) inverse of distribute_iterations the patch
// path relies on to avoid materializing the full distribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "inspector/distribution.hpp"
#include "inspector/light_inspector.hpp"
#include "inspector/plan_verifier.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "scratch_dir.hpp"
#include "service/job_builder.hpp"
#include "service/plan_cache.hpp"
#include "support/check.hpp"

namespace earthred {
namespace {

using inspector::Distribution;

std::unique_ptr<const core::PhasedKernel> kernel_for(const std::string& name,
                                                     mesh::Mesh m) {
  if (name == "fig1")
    return std::make_unique<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(std::move(m)));
  if (name == "euler")
    return std::make_unique<kernels::EulerKernel>(std::move(m));
  return std::make_unique<kernels::MoldynKernel>(std::move(m));
}

mesh::Mesh mesh_for(const std::string& name) {
  if (name == "fig1") return mesh::make_geometric_mesh({300, 1800, 5});
  if (name == "euler") return mesh::make_geometric_mesh({260, 1500, 7});
  return mesh::make_geometric_mesh({320, 2100, 9});
}

void expect_exhaustive_clean(const core::ExecutionPlan& plan) {
  inspector::PlanVerifyOptions vopt;
  vopt.exhaustive = true;
  const auto report =
      inspector::verify_plan(plan.sched, plan.insp, plan.shape.num_edges,
                             plan.shape.num_refs, vopt);
  EXPECT_TRUE(report.ok()) << report.render();
}

TEST(LocateIteration, AgreesWithDistributeIterations) {
  for (const Distribution d :
       {Distribution::Block, Distribution::Cyclic,
        Distribution::BlockCyclic}) {
    for (const std::uint64_t n : {1ull, 7ull, 64ull, 97ull, 1000ull}) {
      for (const std::uint32_t P : {1u, 2u, 3u, 4u, 7u, 16u}) {
        for (const std::uint32_t bc : {1u, 3u, 16u}) {
          const auto owned =
              inspector::distribute_iterations(n, P, d, bc);
          for (std::uint32_t p = 0; p < P; ++p)
            for (std::size_t l = 0; l < owned[p].size(); ++l) {
              const auto home =
                  inspector::locate_iteration(n, P, d, bc, owned[p][l]);
              EXPECT_EQ(home.proc, p)
                  << to_string(d) << " n=" << n << " P=" << P
                  << " bc=" << bc << " g=" << owned[p][l];
              EXPECT_EQ(home.local, l)
                  << to_string(d) << " n=" << n << " P=" << P
                  << " bc=" << bc << " g=" << owned[p][l];
            }
          if (d != Distribution::BlockCyclic) break;  // bc is ignored
        }
      }
    }
  }
}

TEST(LocateIteration, RejectsOutOfRange) {
  EXPECT_THROW(
      inspector::locate_iteration(10, 4, Distribution::Block, 16, 10),
      precondition_error);
  EXPECT_THROW(
      inspector::locate_iteration(10, 0, Distribution::Cyclic, 16, 0),
      precondition_error);
}

// The tentpole property: for every kernel x distribution x k, a plan
// patched for a small mutation is bit-identical to a from-scratch build
// of the mutated kernel, and exhaustive-verifier clean.
TEST(PlanPatch, BitIdenticalToRebuildAcrossConfigurations) {
  for (const std::string name : {"fig1", "euler", "moldyn"}) {
    const mesh::Mesh base_mesh = mesh_for(name);
    const auto kernel = kernel_for(name, base_mesh);

    mesh::Mesh mutated_mesh = base_mesh;
    const std::vector<std::uint32_t> changed =
        mesh::rewire_edges(mutated_mesh, 9, /*seed=*/41);
    const auto mutated = kernel_for(name, std::move(mutated_mesh));

    for (const Distribution d :
         {Distribution::Block, Distribution::Cyclic,
          Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u, 4u}) {
        core::PlanOptions opt;
        opt.num_procs = 4;
        opt.k = k;
        opt.distribution = d;
        opt.block_cyclic_size = 8;

        const core::ExecutionPlan base =
            core::build_execution_plan(*kernel, opt);
        const core::ExecutionPlan rebuilt =
            core::build_execution_plan(*mutated, opt);
        const core::ExecutionPlan patched =
            core::patch_execution_plan(*mutated, base, changed);

        EXPECT_TRUE(core::plans_bit_identical(patched, rebuilt))
            << name << " " << to_string(d) << " k=" << k;
        expect_exhaustive_clean(patched);
      }
    }
  }
}

// A plan numbers the processors' buffer slots back to back, so a patch
// that changes one processor's slot count must move the ranges of every
// later processor — also when the base's arrays are views into a loaded
// plan file.
TEST(PlanPatch, SlotCountChangeMovesLaterRangesFromBuiltAndLoadedBases) {
  const mesh::Mesh base_mesh = mesh_for("fig1");
  const auto kernel = kernel_for("fig1", base_mesh);
  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  opt.distribution = Distribution::Cyclic;
  const core::ExecutionPlan base = core::build_execution_plan(*kernel, opt);
  const inspector::RotationSchedule& sched = base.sched;

  // Rewire edge 1 (processor 1's first under cyclic) so that it defers
  // one reference more or one fewer: its far end moves into the portion
  // of its near end, or out of it.
  const std::uint32_t e = 1;
  mesh::Mesh mutated_mesh = base_mesh;
  mesh::Edge& edge = mutated_mesh.edges[e];
  const std::uint32_t near_portion = sched.portion_of(edge.a);
  const std::uint32_t begin = sched.portion_begin(near_portion);
  if (sched.portion_of(edge.b) != near_portion)
    edge.b = edge.a == begin ? begin + 1 : begin;
  else
    edge.b = sched.portion_begin((near_portion + 1) % sched.num_portions());
  const auto mutated = kernel_for("fig1", std::move(mutated_mesh));
  const std::vector<std::uint32_t> changed = {e};

  const core::ExecutionPlan rebuilt =
      core::build_execution_plan(*mutated, opt);
  ASSERT_NE(rebuilt.insp[1].num_buffer_slots, base.insp[1].num_buffer_slots);
  ASSERT_NE(rebuilt.insp[2].first_slot, base.insp[2].first_slot);

  const core::ExecutionPlan from_built =
      core::patch_execution_plan(*mutated, base, changed);
  EXPECT_TRUE(core::plans_bit_identical(from_built, rebuilt));
  expect_exhaustive_clean(from_built);

  const test::ScratchDir dir;
  const std::string path = dir.file("base.plan");
  {
    const std::vector<std::byte> bytes = core::serialize_plan(base, 1);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const core::PlanLoadResult loaded = core::load_plan_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error_code << ": " << loaded.detail;
  const core::ExecutionPlan from_loaded =
      core::patch_execution_plan(*mutated, *loaded.plan, changed);
  EXPECT_TRUE(core::plans_bit_identical(from_loaded, rebuilt));
  expect_exhaustive_clean(from_loaded);
}

TEST(PlanPatch, EmptyChangeSetReproducesTheBasePlan) {
  const auto kernel = kernel_for("fig1", mesh_for("fig1"));
  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  const core::ExecutionPlan base = core::build_execution_plan(*kernel, opt);
  const core::ExecutionPlan patched =
      core::patch_execution_plan(*kernel, base, {});
  EXPECT_TRUE(core::plans_bit_identical(patched, base));
}

TEST(PlanPatch, RepeatedPatchingStaysCanonical) {
  // Patch output must be a valid *base* for the next patch (free_slots
  // drained, slot ids canonical) — the adaptive loop re-plans every
  // rebuild interval, not once.
  const std::string name = "moldyn";
  mesh::Mesh m = mesh_for(name);
  auto kernel = kernel_for(name, m);
  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  core::ExecutionPlan plan = core::build_execution_plan(*kernel, opt);

  for (std::uint64_t step = 0; step < 4; ++step) {
    mesh::Mesh next = m;
    const std::vector<std::uint32_t> changed =
        mesh::rewire_edges(next, 6, /*seed=*/100 + step);
    m = next;
    auto next_kernel = kernel_for(name, std::move(next));
    const core::ExecutionPlan rebuilt =
        core::build_execution_plan(*next_kernel, opt);
    core::ExecutionPlan patched =
        core::patch_execution_plan(*next_kernel, plan, changed);
    ASSERT_TRUE(core::plans_bit_identical(patched, rebuilt)) << step;
    for (const auto& insp : patched.insp)
      EXPECT_TRUE(insp.free_slots.empty()) << step;
    plan = std::move(patched);
    kernel = std::move(next_kernel);
  }
}

TEST(PlanPatch, SparseUpdateMatchesFullTableOverload) {
  // The convenience overload (full IterationRefs table + changed local
  // list) must agree with a fresh inspector run — it forwards to the
  // sparse core, so this also pins the sparse path against the
  // from-scratch reference on a single processor.
  const mesh::Mesh base_mesh = mesh::make_geometric_mesh({120, 700, 3});
  mesh::Mesh mut_mesh = base_mesh;
  const std::vector<std::uint32_t> changed_edges =
      mesh::rewire_edges(mut_mesh, 7, /*seed=*/11);

  const auto base_kernel = kernel_for("fig1", base_mesh);
  const auto mut_kernel = kernel_for("fig1", mut_mesh);

  const inspector::RotationSchedule sched(
      base_kernel->shape().num_nodes, /*num_procs=*/3, /*k=*/2);
  const auto owned = inspector::distribute_iterations(
      base_kernel->shape().num_edges, 3, Distribution::Cyclic, 16);

  for (std::uint32_t p = 0; p < 3; ++p) {
    inspector::IterationRefs base_iters, mut_iters;
    base_iters.global_iter = owned[p];
    mut_iters.global_iter = owned[p];
    const std::uint32_t R = base_kernel->shape().num_refs;
    base_iters.refs.resize(R);
    mut_iters.refs.resize(R);
    std::vector<std::uint32_t> changed_local;
    for (std::size_t l = 0; l < owned[p].size(); ++l) {
      const std::uint32_t g = owned[p][l];
      bool differs = false;
      for (std::uint32_t r = 0; r < R; ++r) {
        base_iters.refs[r].push_back(base_kernel->ref(r, g));
        mut_iters.refs[r].push_back(mut_kernel->ref(r, g));
        differs |= base_iters.refs[r].back() != mut_iters.refs[r].back();
      }
      if (differs)
        changed_local.push_back(static_cast<std::uint32_t>(l));
    }

    const inspector::InspectorResult base_res =
        inspector::run_light_inspector(sched, p, base_iters);
    const inspector::InspectorResult fresh =
        inspector::run_light_inspector(sched, p, mut_iters);
    const inspector::InspectorResult updated =
        inspector::update_light_inspector(sched, p, mut_iters, base_res,
                                          changed_local, {});

    EXPECT_EQ(updated.num_buffer_slots, fresh.num_buffer_slots) << p;
    EXPECT_TRUE(updated.slot_elem == fresh.slot_elem) << p;
    EXPECT_TRUE(updated.free_slots.empty()) << p;
    ASSERT_EQ(updated.phases.size(), fresh.phases.size()) << p;
    for (std::size_t ph = 0; ph < fresh.phases.size(); ++ph) {
      EXPECT_TRUE(updated.phases[ph].iter_global ==
                  fresh.phases[ph].iter_global);
      EXPECT_TRUE(updated.phases[ph].iter_local ==
                  fresh.phases[ph].iter_local);
      EXPECT_TRUE(updated.phases[ph].indir_flat ==
                  fresh.phases[ph].indir_flat);
      EXPECT_TRUE(updated.phases[ph].copy_dst == fresh.phases[ph].copy_dst);
      EXPECT_TRUE(updated.phases[ph].copy_src == fresh.phases[ph].copy_src);
    }
  }
}

TEST(PlanPatch, RejectsMismatchedChangeSets) {
  const auto kernel = kernel_for("fig1", mesh_for("fig1"));
  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  const core::ExecutionPlan base = core::build_execution_plan(*kernel, opt);

  // Out-of-range global iteration id.
  const std::vector<std::uint32_t> oob = {
      static_cast<std::uint32_t>(kernel->shape().num_edges)};
  EXPECT_THROW((void)core::patch_execution_plan(*kernel, base, oob),
               precondition_error);
}

TEST(JobBuilderMutate, MatchesRewiredRegeneratedBaseWithOrWithoutBaseLine) {
  // A mutate= line rewires the base mesh of its line. Expected values
  // come from generating that mesh from scratch, the way the line's keys
  // describe it; the builder must agree whether or not a plain line on
  // the same mesh came first, and must leave the shared base untouched.
  const std::string keys = " nodes=600 edges=3000 seed=8 procs=2 k=2";
  for (const std::string name : {"euler", "moldyn", "fig1"}) {
    SCOPED_TRACE(name);
    mesh::Mesh m = mesh::make_geometric_mesh({600, 3000, 8});
    const std::uint64_t base_fp =
        service::kernel_fingerprint(*kernel_for(name, m));
    const std::vector<std::uint32_t> changed = mesh::rewire_edges(m, 40, 5);
    const std::uint64_t mutated_fp =
        service::kernel_fingerprint(*kernel_for(name, std::move(m)));

    const std::string base_line = "kernel=" + name + keys;
    const std::string mutate_line = base_line + " mutate=40 mutate-seed=5";
    for (const bool prior_base : {false, true}) {
      SCOPED_TRACE(prior_base ? "after a base line" : "first line");
      service::JobBuilder builder;
      if (prior_base) {
        const service::JobBuild b = builder.build(base_line, 1);
        ASSERT_TRUE(b.ok()) << b.code << ": " << b.detail;
        EXPECT_EQ(b.requests[0].fingerprint, base_fp);
      }
      const service::JobBuild b = builder.build(mutate_line, 2);
      ASSERT_TRUE(b.ok()) << b.code << ": " << b.detail;
      const service::JobRequest& req = b.requests.at(0);
      EXPECT_EQ(req.changed_edges, changed);
      EXPECT_EQ(req.fingerprint, mutated_fp);
      EXPECT_EQ(service::kernel_fingerprint(*req.kernel), mutated_fp);
      EXPECT_EQ(req.patch_base, base_fp);

      const service::JobBuild again = builder.build(base_line, 3);
      ASSERT_TRUE(again.ok()) << again.code << ": " << again.detail;
      EXPECT_EQ(service::kernel_fingerprint(*again.requests[0].kernel),
                base_fp);
    }
  }
}

TEST(JobBuilderKernels, BudgetBoundsKeptKernelsAndEvictionKeepsMutations) {
  // Forty distinct 30k-node lines (~3.6 MB of kernel each, 144 MB in
  // all) pass through one builder: the kept bytes never exceed the
  // budget, and the least recently used kernels go first. A mutate= line
  // whose base was dropped re-synthesizes it and yields the same job.
  service::JobBuilder builder;
  const std::string base_line = "kernel=euler nodes=30000 edges=180000 seed=7";
  const std::string mutate_line =
      base_line + " procs=3 k=2 sweeps=2 mutate=50 mutate-seed=9";
  const auto mutated = [&] {
    const service::JobBuild b = builder.build(mutate_line, 1);
    EXPECT_TRUE(b.ok()) << b.code << ": " << b.detail;
    return b.requests.at(0);
  };
  const service::JobRequest before = mutated();

  for (int i = 0; i < 40; ++i) {
    const service::JobBuild b = builder.build(
        "kernel=euler nodes=30000 edges=180000 seed=" +
            std::to_string(100 + i),
        2);
    ASSERT_TRUE(b.ok()) << b.code << ": " << b.detail;
    EXPECT_LE(builder.kept_kernel_bytes(),
              service::JobBuilder::kKernelBudgetBytes)
        << i;
  }
  // The base line was the least recently used, so it is gone.
  EXPECT_LT(builder.kept_kernels(), 40u);

  const service::JobRequest after = mutated();
  EXPECT_EQ(after.changed_edges, before.changed_edges);
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_EQ(after.patch_base, before.patch_base);
  core::NativeOptions opt;
  opt.plan = before.plan;
  opt.sweep.sweeps = before.sweeps;
  EXPECT_EQ(service::result_digest(core::run_native_engine(*after.kernel, opt)),
            service::result_digest(
                core::run_native_engine(*before.kernel, opt)));
}

}  // namespace
}  // namespace earthred

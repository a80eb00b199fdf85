// Golden plan files: pins a hash of the serialize_plan bytes for fig1,
// euler and moldyn under layout none and rcm, with the paper's
// one-slot-per-reference buffers and with deduplicated ones, plus the
// bytes of one patched plan built from an in-memory base and one from a
// store-loaded base. A change to how plans are built, patched, stored or
// loaded cannot move a single byte of a plan file unnoticed. A plan
// numbers the processors' buffer slots back to back; with each
// processor's offset taken off, it is the paper's per-processor
// LightInspector output.
//
// Plans depend only on the mesh (never on floating-point values), so
// every line — euler's included — is host-independent. The layout tile
// size is fixed because its default derives from the host's cache
// geometry and is recorded in the file header; build_seconds is zeroed
// because it is a timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "inspector/distribution.hpp"
#include "inspector/light_inspector.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "scratch_dir.hpp"
#include "support/binio.hpp"

namespace earthred::core {
namespace {

constexpr std::uint64_t kContentHash = 0x676f6c64656e0001ull;

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Clears EARTHRED_FORCE_LAYOUT for the test's duration: the golden
/// lines name their layout explicitly.
struct LayoutEnvGuard {
  std::string saved;
  bool had = false;
  LayoutEnvGuard() {
    if (const char* v = std::getenv("EARTHRED_FORCE_LAYOUT")) {
      had = true;
      saved = v;
    }
    ::unsetenv("EARTHRED_FORCE_LAYOUT");
  }
  ~LayoutEnvGuard() {
    if (had) ::setenv("EARTHRED_FORCE_LAYOUT", saved.c_str(), 1);
  }
};

std::unique_ptr<const PhasedKernel> kernel_for(const std::string& name,
                                               mesh::Mesh m) {
  if (name == "fig1")
    return std::make_unique<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(std::move(m)));
  if (name == "euler")
    return std::make_unique<kernels::EulerKernel>(std::move(m));
  return std::make_unique<kernels::MoldynKernel>(std::move(m));
}

mesh::Mesh mesh_for(const std::string& name) {
  if (name == "fig1") return mesh::make_geometric_mesh({400, 2400, 21});
  if (name == "euler") return mesh::make_geometric_mesh({500, 3000, 8});
  return mesh::make_moldyn_lattice({4, 1500, 0.03, 2});
}

PlanOptions golden_options(LayoutKind layout, bool dedup) {
  PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  opt.distribution = inspector::Distribution::Cyclic;
  opt.layout = layout;
  opt.layout_tile_iters = 512;
  opt.inspector.dedup_buffers = dedup;
  return opt;
}

std::vector<std::byte> file_bytes(const ExecutionPlan& plan) {
  ExecutionPlan copy = plan;
  copy.build_seconds = 0.0;
  return serialize_plan(copy, kContentHash);
}

std::uint64_t file_hash(const ExecutionPlan& plan) {
  const std::vector<std::byte> bytes = file_bytes(plan);
  return support::fnv1a64(bytes.data(), bytes.size());
}

struct GoldenLine {
  const char* kernel;
  LayoutKind layout;
  bool dedup;
  std::uint64_t hash;
};

// clang-format off
constexpr GoldenLine kBuilt[] = {
    {"fig1",   LayoutKind::None, false, 0x55745b7008bd3ee1ull},
    {"fig1",   LayoutKind::Rcm,  false, 0x273a05192474fe06ull},
    {"fig1",   LayoutKind::None, true,  0xb6ad0e1087d94c05ull},
    {"euler",  LayoutKind::None, false, 0xafec820b2b7ab50eull},
    {"euler",  LayoutKind::Rcm,  false, 0x948490254bb4b27aull},
    {"euler",  LayoutKind::None, true,  0xa4ed5b2f1a439b9cull},
    {"moldyn", LayoutKind::None, false, 0x8e9e3ed613549af7ull},
    {"moldyn", LayoutKind::Rcm,  false, 0x12d2414ecca4cd06ull},
    {"moldyn", LayoutKind::None, true,  0xd3bb80852cde3a90ull},
};
constexpr std::uint64_t kPatchedEuler = 0xae7d576b946830f4ull;
// clang-format on

TEST(PlanGolden, BuiltPlanFilesMatchGoldenHashes) {
  const LayoutEnvGuard env;
  for (const GoldenLine& line : kBuilt) {
    const auto kernel = kernel_for(line.kernel, mesh_for(line.kernel));
    const ExecutionPlan plan = build_execution_plan(
        *kernel, golden_options(line.layout, line.dedup));
    EXPECT_EQ(hex(file_hash(plan)), hex(line.hash))
        << line.kernel << " layout=" << to_string(line.layout)
        << " dedup=" << line.dedup;
  }
}

/// `plan` with every processor's slots renumbered from 0: its offset
/// taken off each slot index of the blocks and fold sources.
ExecutionPlan slots_from_zero(const ExecutionPlan& plan) {
  ExecutionPlan out = plan;
  const std::uint32_t n = plan.sched.num_elements();
  for (inspector::InspectorResult& insp : out.insp) {
    for (inspector::PhaseSchedule& ph : insp.phases) {
      for (std::uint32_t& v : ph.indir_flat.mutate())
        if (v >= n) v -= insp.first_slot;
      for (std::uint32_t& v : ph.copy_src.mutate()) v -= insp.first_slot;
    }
    insp.local_array_size -= insp.first_slot;
    insp.first_slot = 0;
  }
  return out;
}

TEST(PlanGolden, OffsetFreeSlotsReproduceTheLightInspector) {
  // The layout pass reorders each phase after the inspector has run, so
  // only the layout=none lines have a plain inspector run to compare to.
  const LayoutEnvGuard env;
  for (const GoldenLine& line : kBuilt) {
    if (line.layout != LayoutKind::None) continue;
    const auto kernel = kernel_for(line.kernel, mesh_for(line.kernel));
    const PlanOptions opt = golden_options(line.layout, line.dedup);
    const ExecutionPlan plan = build_execution_plan(*kernel, opt);

    ExecutionPlan paper = plan;
    const KernelShape shape = kernel->shape();
    auto owned = inspector::distribute_iterations(
        shape.num_edges, opt.num_procs, opt.distribution,
        opt.block_cyclic_size);
    std::uint32_t next_slot = 0;
    for (std::uint32_t p = 0; p < opt.num_procs; ++p) {
      inspector::IterationRefs refs;
      refs.global_iter = std::move(owned[p]);
      refs.refs.resize(shape.num_refs);
      for (std::uint32_t r = 0; r < shape.num_refs; ++r)
        for (const std::uint32_t e : refs.global_iter)
          refs.refs[r].push_back(kernel->ref(r, e));
      paper.insp[p] = inspector::run_light_inspector(plan.sched, p, refs,
                                                     opt.inspector);
      EXPECT_EQ(plan.insp[p].first_slot, next_slot) << line.kernel << p;
      next_slot += paper.insp[p].num_buffer_slots;
    }
    EXPECT_TRUE(plans_bit_identical(slots_from_zero(plan), paper))
        << line.kernel << " dedup=" << line.dedup;
  }
}

TEST(PlanGolden, PatchedPlanFilesMatchFromBuiltAndLoadedBases) {
  const LayoutEnvGuard env;
  const test::ScratchDir dir;
  const mesh::Mesh base_mesh = mesh_for("euler");
  const auto base_kernel = kernel_for("euler", base_mesh);
  mesh::Mesh mutated_mesh = base_mesh;
  const std::vector<std::uint32_t> changed =
      mesh::rewire_edges(mutated_mesh, 40, /*seed=*/17);
  const auto mutated = kernel_for("euler", std::move(mutated_mesh));

  const ExecutionPlan base = build_execution_plan(
      *base_kernel, golden_options(LayoutKind::None, false));
  const ExecutionPlan from_built =
      patch_execution_plan(*mutated, base, changed);
  EXPECT_EQ(hex(file_hash(from_built)), hex(kPatchedEuler));

  const std::string path = dir.file("base.plan");
  {
    const std::vector<std::byte> bytes = file_bytes(base);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const PlanLoadResult loaded = load_plan_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error_code << ": " << loaded.detail;
  const ExecutionPlan from_loaded =
      patch_execution_plan(*mutated, *loaded.plan, changed);
  EXPECT_EQ(hex(file_hash(from_loaded)), hex(kPatchedEuler));

  // Phases the patch leaves alone keep viewing the base's mapping.
  std::size_t views = 0;
  for (const inspector::InspectorResult& insp : from_loaded.insp)
    for (const inspector::PhaseSchedule& ph : insp.phases)
      views += ph.indir_flat.adopted() ? 1 : 0;
  EXPECT_GT(views, 0u);
}

}  // namespace
}  // namespace earthred::core

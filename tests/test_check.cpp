// Static analysis end to end: golden diagnostics for the DSL
// reduction-legality checker (`earthred check`), AST-level checks the
// grammar cannot spell, the ExecutionPlan invariant verifier against a
// seeded-defect corpus of mutated plans, and the service's
// reject-with-diagnostic admission paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "compiler/check.hpp"
#include "compiler/compiler.hpp"
#include "core/native_engine.hpp"
#include "inspector/plan_verifier.hpp"
#include "inspector/plan_walk.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "service/job_scheduler.hpp"
#include "support/check.hpp"

namespace earthred {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  EXPECT_TRUE(is.good()) << "cannot open " << p;
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

// --- golden diagnostics over the shipped DSL corpus ---------------------

/// Renders a CheckReport the way the goldens are stored: one header()
/// line per diagnostic.
std::string headers(const compiler::CheckReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += d.header();
    out += '\n';
  }
  return out;
}

std::vector<fs::path> dsl_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".dsl") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(GoldenDiagnostics, ShippedExamplesAreCleanAndGoldensMatch) {
  // Every shipped example must check clean (zero diagnostics), and every
  // .dsl in the directory must carry a checked-in .expect — a new example
  // without a golden fails here rather than silently going untested.
  const fs::path dir = fs::path(EARTHRED_SOURCE_DIR) / "examples/loops";
  const std::vector<fs::path> files = dsl_files(dir);
  ASSERT_FALSE(files.empty());
  for (const fs::path& f : files) {
    fs::path expect = f;
    expect.replace_extension(".expect");
    ASSERT_TRUE(fs::exists(expect)) << "missing golden for " << f;
    const compiler::CheckReport report = compiler::check_source(slurp(f));
    EXPECT_EQ(headers(report), slurp(expect)) << "golden mismatch for " << f;
    EXPECT_FALSE(report.has_errors()) << f;
    EXPECT_EQ(report.diagnostics.size(), 0u)
        << f << " must check completely clean";
  }
}

TEST(GoldenDiagnostics, SeededDefectCorpusMatchesGoldens) {
  const fs::path dir = fs::path(EARTHRED_SOURCE_DIR) / "examples/loops/bad";
  const std::vector<fs::path> files = dsl_files(dir);
  ASSERT_FALSE(files.empty());
  for (const fs::path& f : files) {
    fs::path expect = f;
    expect.replace_extension(".expect");
    ASSERT_TRUE(fs::exists(expect)) << "missing golden for " << f;
    const compiler::CheckReport report = compiler::check_source(slurp(f));
    EXPECT_EQ(headers(report), slurp(expect)) << "golden mismatch for " << f;
  }
}

TEST(GoldenDiagnostics, EveryErrorFileIsRejectedWithItsCode) {
  // The acceptance contract in one assertion: each intentionally broken
  // file is rejected (has_errors), and its first golden line names the
  // code that identifies the defect class.
  const fs::path dir = fs::path(EARTHRED_SOURCE_DIR) / "examples/loops/bad";
  for (const fs::path& f : dsl_files(dir)) {
    const compiler::CheckReport report = compiler::check_source(slurp(f));
    const std::string golden = slurp(fs::path(f).replace_extension(".expect"));
    if (golden.find("error[") != std::string::npos) {
      EXPECT_TRUE(report.has_errors()) << f;
      EXPECT_FALSE(report.first_error().empty()) << f;
    } else {
      EXPECT_FALSE(report.has_errors()) << f;
      EXPECT_GT(report.warning_count(), 0u) << f;
    }
  }
}

TEST(CheckSource, WarningsFlowThroughCompileWithoutThrowing) {
  const char* source = R"(
    param num_nodes, num_edges;
    array real X[num_nodes];
    array int  IA[num_edges];
    array real Y[num_edges];
    forall (e : 0 .. num_edges) {
      unused = Y[e];
      X[IA[e]] += Y[e];
    }
  )";
  const compiler::CompileResult result = compiler::compile(source);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].severity, Severity::Warning);
  EXPECT_EQ(result.diagnostics[0].code, "W-UNUSED-SCALAR");
  EXPECT_FALSE(result.threaded_c.empty());  // still compiled
}

TEST(CheckSource, SnippetAndCaretRenderFromAttachedSource) {
  const compiler::CheckReport report =
      compiler::check_source("param n;\narray real X[n;\n");
  ASSERT_TRUE(report.has_errors());
  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("array real X[n;"), std::string::npos);
  EXPECT_NE(rendered.find('^'), std::string::npos);
}

// --- AST-level legality checks the grammar cannot spell -----------------

compiler::Stmt accumulate(const std::string& target,
                          const std::string& indirection) {
  compiler::Stmt s;
  s.kind = compiler::StmtKind::Accumulate;
  s.target = target;
  s.index.indirection = indirection;
  s.index.inner_var = "i";
  s.line = 4;
  s.column = 3;
  auto v = std::make_unique<compiler::Expr>();
  v->kind = compiler::ExprKind::Number;
  v->number = 1.0;
  s.value = std::move(v);
  return s;
}

compiler::Program nonred_program() {
  compiler::Program prog;
  prog.params = {"n", "m"};
  compiler::ArrayDecl x;
  x.name = "X";
  x.type = compiler::ElemType::Real;
  x.size_param = "n";
  prog.arrays.push_back(x);
  compiler::Loop loop;
  loop.var = "i";
  loop.hi_param = "m";
  // X = 1.0;  -- an array written with plain assignment, which the
  // parser's grammar cannot produce but a transformation could.
  compiler::Stmt s;
  s.kind = compiler::StmtKind::ScalarAssign;
  s.target = "X";
  s.line = 3;
  s.column = 3;
  auto v = std::make_unique<compiler::Expr>();
  v->kind = compiler::ExprKind::Number;
  v->number = 1.0;
  s.value = std::move(v);
  loop.body.push_back(std::move(s));
  loop.body.push_back(accumulate("X", "IA"));
  prog.loops.push_back(std::move(loop));
  return prog;
}

TEST(LegalityWalk, NonReductionArrayWriteIsRejected) {
  const compiler::Program prog = nonred_program();
  compiler::DiagnosticSink sink;
  const auto verdicts = compiler::check_reduction_legality(prog, {}, sink);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].legal);
  bool found = false;
  for (const Diagnostic& d : sink.diagnostics())
    if (d.code == "E-NONRED-WRITE") found = true;
  EXPECT_TRUE(found);
}

TEST(LegalityWalk, BrokenFissionPartitionIsRejected) {
  // A reference-group table claiming X belongs to two groups, with the
  // accumulate statement covered twice — fission would duplicate updates.
  compiler::Program prog;
  prog.params = {"n", "m"};
  compiler::ArrayDecl x;
  x.name = "X";
  x.type = compiler::ElemType::Real;
  x.size_param = "n";
  prog.arrays.push_back(x);
  compiler::Loop loop;
  loop.var = "i";
  loop.hi_param = "m";
  loop.body.push_back(accumulate("X", "IA"));
  prog.loops.push_back(std::move(loop));

  compiler::AnalysisResult analysis;
  analysis.loops.resize(1);
  compiler::ReferenceGroup g1, g2;
  g1.reduction_arrays = {"X"};
  g1.statement_indices = {0};
  g2.reduction_arrays = {"X"};
  g2.statement_indices = {0};
  analysis.loops[0].groups = {g1, g2};

  compiler::DiagnosticSink sink;
  compiler::check_reduction_legality(prog, analysis, sink);
  std::size_t fission_errors = 0;
  for (const Diagnostic& d : sink.diagnostics())
    if (d.code == "E-FISSION-GROUP") ++fission_errors;
  EXPECT_GE(fission_errors, 2u);  // duplicated array + double-covered stmt
}

// --- plan verifier: clean plans -----------------------------------------

bool has_code(const inspector::PlanVerifyReport& r, const std::string& code) {
  for (const Diagnostic& d : r.diagnostics)
    if (d.code == code) return true;
  return false;
}

core::PlanOptions plan_opts(std::uint32_t P, std::uint32_t k,
                            inspector::Distribution dist) {
  core::PlanOptions opt;
  opt.num_procs = P;
  opt.k = k;
  opt.distribution = dist;
  opt.verify = false;  // tests call the verifier explicitly
  return opt;
}

TEST(PlanVerifier, AllKernelsAndConfigsVerifyClean) {
  const mesh::Mesh m = mesh::make_geometric_mesh({180, 900, 11});
  const kernels::Fig1Kernel fig1 =
      kernels::Fig1Kernel::with_integer_values(mesh::Mesh(m));
  const kernels::EulerKernel euler{mesh::Mesh(m)};
  const kernels::MoldynKernel moldyn{mesh::Mesh(m)};
  const core::PhasedKernel* all[] = {&fig1, &euler, &moldyn};
  for (const core::PhasedKernel* kernel : all) {
    for (const std::uint32_t P : {1u, 3u, 4u}) {
      for (const std::uint32_t k : {1u, 2u, 3u}) {
        for (const auto dist : {inspector::Distribution::Block,
                                inspector::Distribution::Cyclic}) {
          const core::ExecutionPlan plan =
              core::build_execution_plan(*kernel, plan_opts(P, k, dist));
          const inspector::PlanVerifyReport report =
              core::verify_execution_plan(plan, kernel);
          EXPECT_TRUE(report.ok())
              << "P=" << P << " k=" << k << ": " << report.render();
          EXPECT_EQ(report.checked_iterations, plan.shape.num_edges);
          EXPECT_EQ(report.checked_refs,
                    plan.shape.num_edges * plan.shape.num_refs);
        }
      }
    }
  }
}

TEST(PlanVerifier, DedupBuffersAlsoVerifyClean) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({150, 700, 13}));
  core::PlanOptions opt = plan_opts(4, 2, inspector::Distribution::Cyclic);
  opt.inspector.dedup_buffers = true;
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);
  const inspector::PlanVerifyReport report =
      core::verify_execution_plan(plan, &kernel);
  EXPECT_TRUE(report.ok()) << report.render();
}

TEST(PlanVerifier, IncrementalUpdateOutputVerifiesClean) {
  // The incremental inspector's output claims equivalence to a full
  // re-run; the verifier must agree, including its recycled-slot state.
  const inspector::RotationSchedule sched(60, 3, 2);
  inspector::IterationRefs refs;
  for (std::uint32_t i = 0; i < 40; ++i)
    refs.global_iter.push_back(i * 3);
  refs.refs.resize(2);
  for (std::uint32_t i = 0; i < 40; ++i) {
    refs.refs[0].push_back((i * 7) % 60);
    refs.refs[1].push_back((i * 13 + 5) % 60);
  }
  const inspector::InspectorResult base =
      inspector::run_light_inspector(sched, 1, refs);
  inspector::IterationRefs changed = refs;
  changed.refs[0][4] = 59;
  changed.refs[1][9] = 0;
  const std::uint32_t touched[] = {4, 9};
  const inspector::InspectorResult updated = inspector::update_light_inspector(
      sched, 1, changed, base, touched);
  const inspector::InspectorResult insp[] = {updated};
  // One processor's view only: iterations of procs 0 and 2 are absent by
  // construction, so assert no violation besides the expected LOST-ITER
  // coverage gap... which we avoid by passing only this proc's count.
  inspector::PlanVerifyReport report =
      inspector::verify_plan(sched, std::span<const inspector::InspectorResult>{},
                             0, 2);
  EXPECT_FALSE(report.ok());  // proc-count mismatch is itself a defect
  // Full check through a 1-proc schedule instead.
  const inspector::RotationSchedule solo(60, 1, 6);
  inspector::IterationRefs dense;
  for (std::uint32_t i = 0; i < 40; ++i) dense.global_iter.push_back(i);
  dense.refs = refs.refs;
  const inspector::InspectorResult full =
      inspector::run_light_inspector(solo, 0, dense);
  inspector::IterationRefs dense2 = dense;
  dense2.refs[0][7] = 59;
  const std::uint32_t touched2[] = {7};
  const inspector::InspectorResult upd2 = inspector::update_light_inspector(
      solo, 0, dense2, full, touched2);
  const inspector::InspectorResult arr[] = {upd2};
  report = inspector::verify_plan(solo, arr, 40, 2);
  EXPECT_TRUE(report.ok()) << report.render();
}

// --- plan verifier: seeded-defect corpus --------------------------------

struct MutablePlan {
  std::unique_ptr<kernels::Fig1Kernel> kernel;
  core::ExecutionPlan plan;

  inspector::PlanVerifyReport verify() const {
    return inspector::verify_plan(plan.sched, plan.insp,
                                  plan.shape.num_edges,
                                  plan.shape.num_refs);
  }
};

MutablePlan make_plan(std::uint32_t P = 4, std::uint32_t k = 2) {
  auto kernel = std::make_unique<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({160, 800, 21})));
  core::ExecutionPlan plan = core::build_execution_plan(
      *kernel, plan_opts(P, k, inspector::Distribution::Cyclic));
  return {std::move(kernel), std::move(plan)};
}

/// First (proc, phase, ref, j) whose entry satisfies `direct`.
struct RefPos {
  std::uint32_t p = 0, ph = 0;
  std::size_t r = 0, j = 0;
  bool found = false;
};

RefPos find_ref(const core::ExecutionPlan& plan, bool want_direct) {
  const std::uint32_t n = plan.sched.num_elements();
  for (std::uint32_t p = 0; p < plan.insp.size(); ++p)
    for (std::uint32_t ph = 0; ph < plan.insp[p].phases.size(); ++ph) {
      const auto& phase = plan.insp[p].phases[ph];
      for (std::size_t r = 0; r < plan.shape.num_refs; ++r)
        for (std::size_t j = 0; j < phase.row(r).size(); ++j)
          if ((phase.row(r)[j] < n) == want_direct)
            return {p, ph, r, j, true};
    }
  return {};
}

/// The block entry of reference r of the phase's j-th iteration.
std::uint32_t& block_at(inspector::PhaseSchedule& phase, std::size_t r,
                        std::size_t j) {
  return phase.indir_flat.mutate()[r * phase.iter_global.size() + j];
}

/// Rebuilds `phase` from the iterations `keep` lists, in that order (an
/// index may repeat); the block is rewritten at the new stride.
void select_iterations(inspector::PhaseSchedule& phase,
                       std::uint32_t num_refs,
                       const std::vector<std::size_t>& keep) {
  std::vector<std::uint32_t> ig, il, blk(num_refs * keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    ig.push_back(phase.iter_global[keep[i]]);
    il.push_back(phase.iter_local[keep[i]]);
    for (std::uint32_t r = 0; r < num_refs; ++r)
      blk[r * keep.size() + i] = phase.row(r)[keep[i]];
  }
  phase.iter_global = inspector::U32Buf(std::move(ig));
  phase.iter_local = inspector::U32Buf(std::move(il));
  phase.indir_flat = inspector::U32Buf(std::move(blk));
}

TEST(PlanMutation, WrongPhaseOwnerIsCaught) {
  MutablePlan mp = make_plan();
  const RefPos pos = find_ref(mp.plan, /*want_direct=*/true);
  ASSERT_TRUE(pos.found);
  auto& phase = mp.plan.insp[pos.p].phases[pos.ph];
  // Move the direct reference to an element of a *different* portion —
  // not owned by this processor in this phase.
  const std::uint32_t elem = phase.row(pos.r)[pos.j];
  const std::uint32_t portion = mp.plan.sched.portion_of(elem);
  const std::uint32_t other =
      mp.plan.sched.portion_begin((portion + 1) % mp.plan.sched.num_portions());
  block_at(phase, pos.r, pos.j) = other;
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-PHASE-OWNER")) << report.render();
}

TEST(PlanMutation, DanglingRemoteSlotIsCaught) {
  MutablePlan mp = make_plan();
  const RefPos pos = find_ref(mp.plan, /*want_direct=*/false);
  ASSERT_TRUE(pos.found);
  auto& insp = mp.plan.insp[pos.p];
  auto& phase = insp.phases[pos.ph];
  block_at(phase, pos.r, pos.j) =
      mp.plan.sched.num_elements() + insp.num_buffer_slots + 7;
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-SLOT-RANGE")) << report.render();
}

TEST(PlanMutation, FreedSlotStillReferencedIsCaught) {
  MutablePlan mp = make_plan();
  const RefPos pos = find_ref(mp.plan, /*want_direct=*/false);
  ASSERT_TRUE(pos.found);
  auto& insp = mp.plan.insp[pos.p];
  const std::uint32_t slot = insp.phases[pos.ph].row(pos.r)[pos.j] -
                            mp.plan.sched.num_elements() - insp.first_slot;
  insp.free_slots.push_back(slot);
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-SLOT-FREED")) << report.render();
}

TEST(PlanMutation, DroppedIterationIsCaught) {
  MutablePlan mp = make_plan();
  const RefPos pos = find_ref(mp.plan, /*want_direct=*/true);
  ASSERT_TRUE(pos.found);
  auto& phase = mp.plan.insp[pos.p].phases[pos.ph];
  ASSERT_FALSE(phase.iter_global.empty());
  std::vector<std::size_t> keep(phase.iter_global.size() - 1);
  std::iota(keep.begin(), keep.end(), std::size_t{0});
  select_iterations(phase, mp.plan.shape.num_refs, keep);
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-LOST-ITER")) << report.render();
}

TEST(PlanMutation, DuplicatedIterationIsCaught) {
  MutablePlan mp = make_plan();
  const RefPos pos = find_ref(mp.plan, /*want_direct=*/true);
  ASSERT_TRUE(pos.found);
  auto& phase = mp.plan.insp[pos.p].phases[pos.ph];
  std::vector<std::size_t> keep(phase.iter_global.size());
  std::iota(keep.begin(), keep.end(), std::size_t{0});
  keep.push_back(0);
  select_iterations(phase, mp.plan.shape.num_refs, keep);
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-DUP-ITER")) << report.render();
}

TEST(PlanMutation, DroppedFoldBackIsCaught) {
  MutablePlan mp = make_plan();
  bool mutated = false;
  for (auto& insp : mp.plan.insp) {
    for (auto& phase : insp.phases) {
      if (!phase.copy_dst.empty()) {
        phase.copy_dst.pop_back();
        phase.copy_src.pop_back();
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated) << "plan has no deferred references to drop";
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-NO-FOLD")) << report.render();
}

TEST(PlanMutation, DuplicatedFoldBackIsCaught) {
  MutablePlan mp = make_plan();
  bool mutated = false;
  for (auto& insp : mp.plan.insp) {
    for (auto& phase : insp.phases) {
      if (!phase.copy_dst.empty()) {
        phase.copy_dst.push_back(phase.copy_dst.front());
        phase.copy_src.push_back(phase.copy_src.front());
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated);
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-DUP-FOLD")) << report.render();
}

TEST(PlanMutation, FoldIntoWrongElementIsCaught) {
  MutablePlan mp = make_plan();
  bool mutated = false;
  for (auto& insp : mp.plan.insp) {
    for (auto& phase : insp.phases) {
      if (!phase.copy_dst.empty()) {
        // Redirect the fold to a different element; whichever portion it
        // lands in, slot_elem no longer matches.
        phase.copy_dst[0] = (phase.copy_dst[0] + 1) %
                            mp.plan.sched.num_elements();
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated);
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-FOLD-MISMATCH")) << report.render();
}

TEST(PlanMutation, EarlyOwnedBufferedElementIsCaught) {
  MutablePlan mp = make_plan();
  const RefPos pos = find_ref(mp.plan, /*want_direct=*/false);
  ASSERT_TRUE(pos.found);
  auto& insp = mp.plan.insp[pos.p];
  const std::uint32_t slot = insp.phases[pos.ph].row(pos.r)[pos.j] -
                            mp.plan.sched.num_elements() - insp.first_slot;
  // Rebind the slot to an element owned in phase <= pos.ph: the portion
  // this proc owns during the deferring phase itself qualifies.
  const std::uint32_t early_portion =
      mp.plan.sched.owned_portion(pos.p, pos.ph);
  insp.slot_elem[slot] = mp.plan.sched.portion_begin(early_portion);
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-EARLY-REF")) << report.render();
}

TEST(PlanMutation, OverlappingSlotRangesAreCaught) {
  // Processor 1's whole slot range moved down by one, consistently, so
  // its own tables still agree: its first slot is processor 0's last.
  MutablePlan mp = make_plan();
  const std::uint32_t n = mp.plan.sched.num_elements();
  auto& insp = mp.plan.insp[1];
  ASSERT_GT(insp.first_slot, 0u);
  ASSERT_GT(insp.num_buffer_slots, 0u);
  for (auto& phase : insp.phases) {
    for (std::uint32_t& v : phase.indir_flat.mutate())
      if (v >= n) --v;
    for (std::uint32_t& v : phase.copy_src.mutate()) --v;
  }
  --insp.first_slot;
  --insp.local_array_size;
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-SLOT-OVERLAP")) << report.render();
}

TEST(PlanMutation, ReferenceIntoAnotherProcessorsSlotsIsCaught) {
  // A redirect of processor 1 pointed at processor 0's last slot: inside
  // the shared array, outside its own range.
  MutablePlan mp = make_plan();
  const std::uint32_t n = mp.plan.sched.num_elements();
  auto& insp = mp.plan.insp[1];
  ASSERT_GT(insp.first_slot, 0u);
  bool mutated = false;
  for (auto& phase : insp.phases) {
    for (std::uint32_t& v : phase.indir_flat.mutate())
      if (v >= n) {
        v = n + insp.first_slot - 1;
        mutated = true;
        break;
      }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated);
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-SLOT-RANGE")) << report.render();
}

TEST(PlanMutation, CorruptPhaseAssignmentIsCaught) {
  MutablePlan mp = make_plan();
  const RefPos pos = find_ref(mp.plan, /*want_direct=*/true);
  ASSERT_TRUE(pos.found);
  auto& insp = mp.plan.insp[pos.p];
  const std::uint32_t local = insp.phases[pos.ph].iter_local[pos.j];
  insp.assigned_phase[local] =
      (insp.assigned_phase[local] + 1) % mp.plan.sched.phases_per_sweep();
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-PHASE-ASSIGN")) << report.render();
}

TEST(PlanMutation, ShortIndirectionBlockIsCaught) {
  MutablePlan mp = make_plan();
  const RefPos pos = find_ref(mp.plan, /*want_direct=*/true);
  ASSERT_TRUE(pos.found);
  mp.plan.insp[pos.p].phases[pos.ph].indir_flat.pop_back();
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-SHAPE")) << report.render();
}

TEST(PlanMutation, WrongPhaseCountIsCaught) {
  MutablePlan mp = make_plan();
  mp.plan.insp[0].phases.pop_back();
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-SHAPE")) << report.render();
}

TEST(PlanMutation, ViolationCountingContinuesPastTheRecordingCap) {
  MutablePlan mp = make_plan();
  // Corrupt every direct reference of one processor: far more violations
  // than the default diagnostic cap.
  auto& insp = mp.plan.insp[0];
  const std::uint32_t n = mp.plan.sched.num_elements();
  for (auto& phase : insp.phases)
    for (std::uint32_t& v : phase.indir_flat.mutate())
      if (v < n) v = (v + mp.plan.sched.portion_size(0)) % n;
  const inspector::PlanVerifyReport report = mp.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_LE(report.diagnostics.size(), 16u);
  EXPECT_GT(report.violations, report.diagnostics.size());
  EXPECT_NE(report.render().find("not shown"), std::string::npos);
}

// --- kernel cross-check and build-time verification ---------------------

/// Delegates to Fig1 but permutes ref(): the plan built from the honest
/// kernel no longer describes this one.
class EvilRefKernel final : public core::PhasedKernel {
 public:
  explicit EvilRefKernel(std::shared_ptr<const core::PhasedKernel> inner)
      : inner_(std::move(inner)) {}

  bool evil = false;

  core::KernelShape shape() const override { return inner_->shape(); }
  std::uint32_t ref(std::uint32_t r, std::uint64_t edge) const override {
    const std::uint32_t v = inner_->ref(r, edge);
    if (!evil) return v;
    return (v + 1) % shape().num_nodes;
  }
  void init_node_arrays(
      std::vector<std::vector<double>>& arrays) const override {
    inner_->init_node_arrays(arrays);
  }
  void compute_edge(earth::FiberContext& ctx, const core::CostTags& tags,
                    std::uint64_t edge_global, std::uint64_t edge_slot,
                    std::span<const std::uint32_t> redirected,
                    core::ProcArrays& arrays) const override {
    inner_->compute_edge(ctx, tags, edge_global, edge_slot, redirected,
                         arrays);
  }
  void update_nodes(earth::FiberContext& ctx, const core::CostTags& tags,
                    std::uint32_t begin, std::uint32_t end,
                    std::uint32_t base,
                    core::ProcArrays& arrays) const override {
    inner_->update_nodes(ctx, tags, begin, end, base, arrays);
  }

 private:
  std::shared_ptr<const core::PhasedKernel> inner_;
};

TEST(PlanVerifier, KernelCrossCheckCatchesForeignPlans) {
  const auto honest = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({140, 700, 31})));
  const core::ExecutionPlan plan = core::build_execution_plan(
      *honest, plan_opts(4, 2, inspector::Distribution::Cyclic));

  EvilRefKernel twin(honest);
  EXPECT_TRUE(core::verify_execution_plan(plan, &twin).ok());
  twin.evil = true;
  const inspector::PlanVerifyReport report =
      core::verify_execution_plan(plan, &twin);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "E-PLAN-REF-MISMATCH")) << report.render();
}

TEST(BuildPlan, VerifyOptionAcceptsSoundPlansAndIsKeyNeutral) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({120, 600, 41}));
  core::PlanOptions opt = plan_opts(3, 2, inspector::Distribution::Cyclic);
  opt.verify = true;
  const core::ExecutionPlan plan =
      core::build_execution_plan(kernel, opt);  // must not throw
  EXPECT_GT(plan.byte_size(), 0u);

  // verify must not split cache keys: on/off map to the same PlanKey.
  core::PlanOptions off = opt;
  off.verify = false;
  EXPECT_EQ(service::make_plan_key(kernel, opt),
            service::make_plan_key(kernel, off));
  static_assert(std::is_base_of_v<check_error, verify_error>);
}

// --- shared plan walk ---------------------------------------------------

TEST(PlanWalk, StatsAgreeWithInspectorBookkeeping) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({150, 750, 51}));
  const core::ExecutionPlan plan = core::build_execution_plan(
      kernel, plan_opts(4, 2, inspector::Distribution::Cyclic));
  std::uint64_t iters = 0, refs = 0, folds = 0, bytes = 0;
  for (const inspector::InspectorResult& insp : plan.insp) {
    const inspector::PlanWalkStats s =
        inspector::walk_inspector(insp, plan.sched.num_elements());
    iters += s.iterations;
    refs += s.direct_refs + s.deferred_refs;
    folds += s.fold_entries;
    bytes += s.bytes;
    EXPECT_EQ(s.fold_entries, insp.total_deferred());
    EXPECT_EQ(s.bytes, inspector::inspector_byte_size(insp));
  }
  EXPECT_EQ(iters, plan.shape.num_edges);
  EXPECT_EQ(refs, plan.shape.num_edges * plan.shape.num_refs);
  EXPECT_GT(folds, 0u);
  // byte_size == struct headers + the shared walk's per-proc bytes + the
  // layout permutations (empty unless EARTHRED_FORCE_LAYOUT applies one).
  EXPECT_EQ(plan.byte_size(),
            sizeof(core::ExecutionPlan) +
                plan.insp.capacity() * sizeof(inspector::InspectorResult) +
                bytes + plan.perm.footprint_bytes() +
                plan.perm_inv.footprint_bytes());
}

// --- service admission --------------------------------------------------

TEST(ServiceAdmission, IllegalDslIsRejectedWithDiagnosticAndCounted) {
  service::JobScheduler sched({1, 8, 5.0, {}});
  service::JobRequest req;
  req.name = "bad-dsl";
  req.dsl_source = R"(
    param num_nodes, num_edges;
    array real X[num_nodes];
    array int  IA[num_edges];
    array real Y[num_edges];
    forall (e : 0 .. num_edges) {
      X[IA[e]] += Y[e] + X[IA[e]];
    }
  )";
  const service::JobHandle h = sched.submit(std::move(req));
  const service::JobOutcome& out = h.wait();
  EXPECT_EQ(out.state, service::JobState::Rejected);
  EXPECT_NE(out.error.find("E-RED-READ"), std::string::npos) << out.error;
  EXPECT_NE(out.error.find("DSL rejected"), std::string::npos);
  const service::ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.rejected_dsl, 1u);
  EXPECT_EQ(stats.rejected_plan, 0u);
}

TEST(ServiceAdmission, LegalDslJobRunsToCompletion) {
  service::JobScheduler sched({2, 8, 10.0, {}});
  const char* source = R"(
    param num_nodes, num_edges;
    array real X[num_nodes];
    array int  IA[num_edges];
    array real Y[num_edges];
    forall (e : 0 .. num_edges) {
      X[IA[e]] += Y[e] * 2.0;
    }
  )";
  const compiler::CompileResult compiled = compiler::compile(source);
  compiler::DataEnv env;
  env.params["num_nodes"] = 50;
  env.params["num_edges"] = 200;
  std::vector<std::uint32_t> ia;
  std::vector<double> y;
  for (std::uint32_t e = 0; e < 200; ++e) {
    ia.push_back((e * 7) % 50);
    y.push_back(1.0 + 0.5 * static_cast<double>(e % 4));
  }
  env.int_arrays["IA"] = std::move(ia);
  env.real_arrays["Y"] = std::move(y);

  service::JobRequest req;
  req.name = "good-dsl";
  req.dsl_source = source;
  req.kernel = std::shared_ptr<const core::PhasedKernel>(
      compiler::bind(compiled, 0, std::move(env)));
  req.plan.num_procs = 2;
  req.plan.k = 2;
  req.plan.verify = true;
  const service::JobHandle h = sched.submit(std::move(req));
  EXPECT_EQ(h.wait().state, service::JobState::Done) << h.wait().error;
  EXPECT_EQ(sched.stats().rejected, 0u);
}

TEST(ServiceAdmission, PlanVerifierRejectsMismatchedCachedPlan) {
  // Job 1 (honest refs) builds and caches the plan. The kernel's ref()
  // then turns evil; job 2 reuses the cached plan via the precomputed
  // fingerprint, and the admission-time cross-check must reject it.
  service::JobScheduler sched({1, 8, 10.0, {}});
  const auto honest = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({130, 650, 61})));
  const auto twin = std::make_shared<EvilRefKernel>(honest);
  const std::uint64_t fp = service::kernel_fingerprint(*twin);

  service::JobRequest req;
  req.name = "honest";
  req.kernel = twin;
  req.plan.num_procs = 3;
  req.plan.k = 2;
  req.plan.verify = true;
  req.fingerprint = fp;
  service::JobRequest req2 = req;
  req2.name = "evil";

  const service::JobHandle h1 = sched.submit(std::move(req));
  EXPECT_EQ(h1.wait().state, service::JobState::Done) << h1.wait().error;

  twin->evil = true;
  const service::JobHandle h2 = sched.submit(std::move(req2));
  const service::JobOutcome& out = h2.wait();
  EXPECT_EQ(out.state, service::JobState::Rejected);
  EXPECT_NE(out.error.find("E-PLAN-REF-MISMATCH"), std::string::npos)
      << out.error;
  EXPECT_TRUE(out.cache_hit);  // the stale plan came from the cache
  const service::ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.rejected_plan, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServiceAdmission, VerifyOffSkipsTheCrossCheck) {
  // Same setup as above with verify=off: the stale plan is trusted and
  // the job runs (wrong results are the caller's bargain — this pins the
  // knob's off position).
  service::JobScheduler sched({1, 8, 10.0, {}});
  const auto honest = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({130, 650, 71})));
  const auto twin = std::make_shared<EvilRefKernel>(honest);
  const std::uint64_t fp = service::kernel_fingerprint(*twin);

  service::JobRequest req;
  req.kernel = twin;
  req.plan.num_procs = 3;
  req.plan.k = 2;
  req.plan.verify = false;
  req.fingerprint = fp;
  service::JobRequest req2 = req;

  const service::JobHandle h1 = sched.submit(std::move(req));
  EXPECT_EQ(h1.wait().state, service::JobState::Done);
  twin->evil = true;
  const service::JobHandle h2 = sched.submit(std::move(req2));
  EXPECT_EQ(h2.wait().state, service::JobState::Done);
  EXPECT_EQ(sched.stats().rejected_plan, 0u);
}

}  // namespace
}  // namespace earthred

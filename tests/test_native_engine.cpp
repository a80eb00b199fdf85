// Tests for the native (real std::thread) execution of the rotation
// strategy: correctness under true asynchrony across kernels, processor
// counts, k values and distributions, and the worker team's failure path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/native_engine.hpp"
#include "core/sequential.hpp"
#include "heap_tracking.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "support/check.hpp"

namespace earthred::core {
namespace {

TEST(NativeEngine, Fig1ExactMatchManyConfigs) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21}));
  SequentialOptions sopt;
  sopt.sweeps = 4;
  const RunResult seq = run_sequential_kernel(kernel, sopt);

  for (const std::uint32_t procs : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::uint32_t k : {1u, 2u, 3u}) {
      for (const auto dist : {inspector::Distribution::Block,
                              inspector::Distribution::Cyclic}) {
        NativeOptions opt;
        opt.plan.num_procs = procs;
        opt.plan.k = k;
        opt.plan.distribution = dist;
        opt.sweep.sweeps = 4;
        const NativeResult r = run_native_engine(kernel, opt);
        for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
          ASSERT_EQ(r.reduction[0][i], seq.reduction[0][i])
              << "P=" << procs << " k=" << k;
      }
    }
  }
}

TEST(NativeEngine, EulerStateMatchesSequential) {
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({160, 700, 8}));
  SequentialOptions sopt;
  sopt.sweeps = 5;
  const RunResult seq = run_sequential_kernel(kernel, sopt);

  NativeOptions opt;
  opt.plan.num_procs = 4;
  opt.plan.k = 2;
  opt.sweep.sweeps = 5;
  const NativeResult r = run_native_engine(kernel, opt);
  for (std::size_t a = 0; a < seq.node_read.size(); ++a)
    for (std::size_t i = 0; i < seq.node_read[a].size(); ++i)
      ASSERT_NEAR(r.node_read[a][i], seq.node_read[a][i], 1e-9);
}

TEST(NativeEngine, MoldynStateMatchesSequential) {
  const kernels::MoldynKernel kernel(
      mesh::make_moldyn_lattice({3, 300, 0.03, 2}));
  SequentialOptions sopt;
  sopt.sweeps = 3;
  const RunResult seq = run_sequential_kernel(kernel, sopt);

  NativeOptions opt;
  opt.plan.num_procs = 6;
  opt.plan.k = 2;
  opt.sweep.sweeps = 3;
  const NativeResult r = run_native_engine(kernel, opt);
  for (std::size_t a = 0; a < seq.node_read.size(); ++a)
    for (std::size_t i = 0; i < seq.node_read[a].size(); ++i)
      ASSERT_NEAR(r.node_read[a][i], seq.node_read[a][i], 1e-9);
}

TEST(NativeEngine, RepeatedRunsAreDeterministic) {
  // The schedule fixes summation order regardless of thread timing, so
  // even floating-point results are bit-reproducible run to run.
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({128, 600, 13}));
  NativeOptions opt;
  opt.plan.num_procs = 5;
  opt.plan.k = 2;
  opt.sweep.sweeps = 4;
  // Pin phased: this test is about the rotation engine, whatever the CI
  // strategy-matrix env forces.
  opt.plan.strategy = StrategyKind::Phased;
  const NativeResult a = run_native_engine(kernel, opt);
  const NativeResult b = run_native_engine(kernel, opt);
  for (std::size_t arr = 0; arr < a.node_read.size(); ++arr)
    for (std::size_t i = 0; i < a.node_read[arr].size(); ++i)
      ASSERT_EQ(a.node_read[arr][i], b.node_read[arr][i]);
}

TEST(NativeEngine, SingleSweepNoBroadcastPath) {
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({64, 300, 14}));
  NativeOptions opt;
  opt.plan.num_procs = 4;
  opt.plan.k = 1;
  opt.sweep.sweeps = 1;
  const NativeResult r = run_native_engine(kernel, opt);
  SequentialOptions sopt;
  const RunResult seq = run_sequential_kernel(kernel, sopt);
  for (std::size_t a = 0; a < seq.reduction.size(); ++a)
    for (std::size_t i = 0; i < seq.reduction[a].size(); ++i)
      ASSERT_NEAR(r.reduction[a][i], seq.reduction[a][i], 1e-9);
}

TEST(NativeEngine, DetachedContextForbidsEarthOps) {
  auto ctx = earth::FiberContext::detached();
  EXPECT_FALSE(ctx.attached());
  ctx.charge_flops(3);
  EXPECT_GE(ctx.charged(), 3u);
  EXPECT_THROW(ctx.sync(earth::FiberId{}), precondition_error);
  EXPECT_THROW(ctx.send(earth::FiberId{}, 8), precondition_error);
}

TEST(NativeEngine, RejectsDegenerateShapes) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({8, 20, 6}));
  NativeOptions opt;
  opt.plan.num_procs = 8;
  opt.plan.k = 2;
  EXPECT_THROW(run_native_engine(kernel, opt), precondition_error);
}

TEST(NativeEngine, LostForwardTripsStallWatchdog) {
  // Swallow the very first ring forward (proc 0, phase 0, sweep 0): the
  // next owner then waits forever for that portion, and the watchdog must
  // convert the hang into a check_error naming the starved step.
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21}));
  NativeOptions opt;
  opt.plan.num_procs = 4;
  opt.plan.k = 2;
  opt.sweep.sweeps = 3;
  opt.sweep.stall_timeout = 0.5;
  // The faulted ring forward only exists in the phased executor; pin the
  // strategy so auto cannot route around the fault.
  opt.plan.strategy = StrategyKind::Phased;
  opt.sweep.lose_forward = {true, 0, 0, 0};
  try {
    run_native_engine(kernel, opt);
    FAIL() << "expected the stall watchdog to fire";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stalled"), std::string::npos) << what;
    EXPECT_NE(what.find("stuck"), std::string::npos) << what;
  }
}

TEST(NativeEngine, ZeroStallTimeoutStillRunsCleanSchedules) {
  // stall_timeout = 0 restores the unbounded-wait behavior; a healthy
  // run must complete and stay correct.
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21}));
  SequentialOptions sopt;
  sopt.sweeps = 3;
  const RunResult seq = run_sequential_kernel(kernel, sopt);
  NativeOptions opt;
  opt.plan.num_procs = 4;
  opt.plan.k = 2;
  opt.sweep.sweeps = 3;
  opt.sweep.stall_timeout = 0.0;
  const NativeResult r = run_native_engine(kernel, opt);
  for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
    ASSERT_EQ(r.reduction[0][i], seq.reduction[0][i]);
}

struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A real kernel that throws on one worker thread: from its compute
/// paths on processor `bad`, or from the `bad`-th (0-based)
/// init_node_arrays or update_nodes call of a run. It counts its
/// init_node_arrays calls either way; a renumbered clone (a layout plan's
/// run) counts on the same counters.
class FaultyKernel final : public PhasedKernel {
 public:
  enum class Where { Compute, Init, Update };

  FaultyKernel(std::unique_ptr<PhasedKernel> inner, std::uint32_t bad,
               Where where = Where::Compute)
      : inner_(std::move(inner)), bad_(bad), where_(where) {}

  KernelShape shape() const override { return inner_->shape(); }
  std::uint32_t ref(std::uint32_t r, std::uint64_t edge) const override {
    return inner_->ref(r, edge);
  }
  void init_node_arrays(
      std::vector<std::vector<double>>& arrays) const override {
    if (calls_->init.fetch_add(1) == bad_ && where_ == Where::Init)
      throw InjectedFault("injected init fault on call " +
                          std::to_string(bad_));
    inner_->init_node_arrays(arrays);
  }
  std::uint32_t init_calls() const { return calls_->init.load(); }
  void compute_edge(earth::FiberContext& ctx, const CostTags& tags,
                    std::uint64_t edge_global, std::uint64_t edge_slot,
                    std::span<const std::uint32_t> redirected,
                    ProcArrays& arrays) const override {
    fail_on(ctx);
    inner_->compute_edge(ctx, tags, edge_global, edge_slot, redirected,
                         arrays);
  }
  void compute_phase(earth::FiberContext& ctx, const CostTags& tags,
                     const PhaseView& phase,
                     ProcArrays& arrays) const override {
    fail_on(ctx);
    inner_->compute_phase(ctx, tags, phase, arrays);
  }
  void update_nodes(earth::FiberContext& ctx, const CostTags& tags,
                    std::uint32_t begin, std::uint32_t end,
                    std::uint32_t base, ProcArrays& arrays) const override {
    if (where_ == Where::Update && calls_->update.fetch_add(1) == bad_)
      throw InjectedFault("injected update fault on call " +
                          std::to_string(bad_));
    inner_->update_nodes(ctx, tags, begin, end, base, arrays);
  }
  std::unique_ptr<PhasedKernel> clone_renumbered(
      std::span<const std::uint32_t> perm) const override {
    std::unique_ptr<PhasedKernel> inner = inner_->clone_renumbered(perm);
    if (!inner) return nullptr;
    auto clone =
        std::make_unique<FaultyKernel>(std::move(inner), bad_, where_);
    clone->calls_ = calls_;
    return clone;
  }

 private:
  void fail_on(const earth::FiberContext& ctx) const {
    if (where_ == Where::Compute && ctx.node() == bad_)
      throw InjectedFault("injected kernel fault on proc " +
                          std::to_string(bad_));
  }

  std::unique_ptr<PhasedKernel> inner_;
  std::uint32_t bad_;
  Where where_;
  struct Calls {
    std::atomic<std::uint32_t> init{0};
    std::atomic<std::uint32_t> update{0};
  };
  std::shared_ptr<Calls> calls_ = std::make_shared<Calls>();
};

/// Runs `opt` on `kernel`, expecting the injected fault to reach the
/// caller as the original exception within 5 s.
void expect_fault_reaches_caller(const PhasedKernel& kernel,
                                 const NativeOptions& opt,
                                 const std::string& what) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(run_native_engine(kernel, opt), InjectedFault) << what;
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(seconds, 5.0) << what;
}

TEST(NativeEngine, WorkerExceptionStopsTheTeamAndReachesTheCaller) {
  // A kernel fault on one worker must reach the caller as the original,
  // catchable exception — never std::terminate — and promptly: the other
  // workers are stopped through the watchdog's flag, so nobody waits for
  // a timeout. stall_timeout = 0 (unbounded waits) proves the stop does
  // not depend on the watchdog firing.
  const FaultyKernel kernel(
      std::make_unique<kernels::Fig1Kernel>(
          kernels::Fig1Kernel::with_integer_values(
              mesh::make_geometric_mesh({96, 500, 21}))),
      /*bad=*/1);
  for (const StrategyKind strategy :
       {StrategyKind::Phased, StrategyKind::Privatized}) {
    for (const bool batch : {true, false}) {
      NativeOptions opt;
      opt.plan.num_procs = 4;
      opt.plan.k = 2;
      opt.plan.strategy = strategy;
      opt.sweep.sweeps = 3;
      opt.sweep.stall_timeout = 0.0;
      opt.sweep.batch = batch;
      expect_fault_reaches_caller(
          kernel, opt,
          std::string(to_string(strategy)) +
              (batch ? " batched" : " per-edge"));
    }
  }
}

NativeOptions fault_options(StrategyKind strategy) {
  NativeOptions opt;
  opt.plan.num_procs = 4;
  opt.plan.k = 2;
  opt.plan.strategy = strategy;
  opt.sweep.sweeps = 3;
  opt.sweep.stall_timeout = 0.0;
  return opt;
}

FaultyKernel faulty_euler(std::uint32_t bad, FaultyKernel::Where where) {
  return FaultyKernel(std::make_unique<kernels::EulerKernel>(
                          mesh::make_geometric_mesh({160, 700, 8})),
                      bad, where);
}

TEST(NativeEngine, InitFaultOnOneWorkerReachesTheCaller) {
  // The workers build the per-run state before the team barrier. A fault
  // there must release the workers already waiting at the barrier and
  // reach the caller as the original exception, also with unbounded
  // waits (stall_timeout = 0). The phased executor sets up its one set of
  // node-read values with exactly one init call per run, which is the one
  // faulted; the privatized executor makes one per worker replica, and
  // every one of its P calls is tried.
  {
    const FaultyKernel counting =
        faulty_euler(/*bad=*/1000, FaultyKernel::Where::Init);
    run_native_engine(counting, fault_options(StrategyKind::Phased));
    EXPECT_EQ(counting.init_calls(), 1u);
  }
  expect_fault_reaches_caller(faulty_euler(0, FaultyKernel::Where::Init),
                              fault_options(StrategyKind::Phased),
                              "phased init call 0");
  for (std::uint32_t bad = 0; bad < 4; ++bad)
    expect_fault_reaches_caller(faulty_euler(bad, FaultyKernel::Where::Init),
                                fault_options(StrategyKind::Privatized),
                                "privatized init call " + std::to_string(bad));
}

TEST(NativeEngine, UpdateFaultUnblocksPublishWaits) {
  // The first update_nodes call of sweep 1: every sweep-0 update
  // precedes it, because each is published before any worker starts
  // sweep 1. The faulting worker never publishes its portion, so the
  // others block on its publish token at the sweep-2 boundary; with
  // unbounded waits only the team's stop can release them.
  const NativeOptions opt = fault_options(StrategyKind::Phased);
  const std::uint32_t sweep1_first = opt.plan.num_procs * opt.plan.k;
  expect_fault_reaches_caller(
      faulty_euler(sweep1_first, FaultyKernel::Where::Update), opt,
      "phased update call " + std::to_string(sweep1_first));
}

TEST(NativeEngine, PhasedRunAllocatesOneSetOfArrays) {
  // One phased run holds one reduction array per kernel array, extended
  // by every worker's buffer slots, and two node-read buffers — nothing
  // per worker that grows with the mesh. The plan carries no layout (a
  // layout run adds a renumbered kernel clone and the result
  // un-permutation), also when EARTHRED_FORCE_LAYOUT asks for one.
  const char* forced = std::getenv("EARTHRED_FORCE_LAYOUT");
  const std::string saved = forced ? forced : "";
  ::unsetenv("EARTHRED_FORCE_LAYOUT");
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({20000, 80000, 8}));
  PlanOptions popt;
  popt.num_procs = 4;
  popt.k = 2;
  popt.strategy = StrategyKind::Phased;
  const ExecutionPlan plan = build_execution_plan(kernel, popt);
  if (forced) ::setenv("EARTHRED_FORCE_LAYOUT", saved.c_str(), 1);
  ASSERT_TRUE(plan.perm.empty());
  const KernelShape shape = kernel.shape();
  const std::uint64_t red_len = plan.insp.back().local_array_size;
  ASSERT_GT(red_len, shape.num_nodes);  // the mesh needs buffer slots
  const double arrays_bytes =
      8.0 * (static_cast<double>(shape.num_reduction_arrays) * red_len +
             2.0 * shape.num_node_read_arrays * shape.num_nodes);

  SweepOptions sopt;
  sopt.sweeps = 2;
  std::size_t allocated = 0;
  {
    const test::HeapTracking heap;
    const NativeResult r = run_native_plan(kernel, plan, sopt);
    allocated = heap.total();
    EXPECT_EQ(r.strategy, StrategyKind::Phased);
  }
  EXPECT_LE(static_cast<double>(allocated), 1.1 * arrays_bytes)
      << "arrays need " << arrays_bytes << " bytes";
}

}  // namespace
}  // namespace earthred::core

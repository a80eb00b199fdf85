// The reduction service: shared-plan execution correctness, the job
// scheduler's worker pool, admission control, deadlines, batch
// submission, and the stats snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/native_engine.hpp"
#include "core/sequential.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "service/job_scheduler.hpp"
#include "service/plan_cache.hpp"
#include "support/check.hpp"

namespace earthred::service {
namespace {

core::PlanOptions plan_opts(std::uint32_t P, std::uint32_t k) {
  core::PlanOptions opt;
  opt.num_procs = P;
  opt.k = k;
  return opt;
}

// --- satellite: cached schedules are genuinely shareable ----------------

TEST(SharedPlan, ReusedScheduleIsBitIdenticalToColdRuns) {
  // Two sweeps reusing one cached schedule must produce bit-identical
  // results to two cold runs (build + run each time).
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({150, 900, 5}));

  core::NativeOptions cold;
  cold.plan.num_procs = 4;
  cold.plan.k = 2;
  cold.sweep.sweeps = 3;
  const core::NativeResult cold1 = run_native_engine(kernel, cold);
  const core::NativeResult cold2 = run_native_engine(kernel, cold);

  const core::ExecutionPlan plan =
      core::build_execution_plan(kernel, cold.plan);
  const core::NativeResult warm1 =
      core::run_native_plan(kernel, plan, cold.sweep);
  const core::NativeResult warm2 =
      core::run_native_plan(kernel, plan, cold.sweep);

  ASSERT_EQ(warm1.reduction.size(), cold1.reduction.size());
  for (std::size_t a = 0; a < cold1.reduction.size(); ++a)
    for (std::size_t i = 0; i < cold1.reduction[a].size(); ++i) {
      ASSERT_EQ(warm1.reduction[a][i], cold1.reduction[a][i]);
      ASSERT_EQ(warm2.reduction[a][i], cold2.reduction[a][i]);
      ASSERT_EQ(warm1.reduction[a][i], warm2.reduction[a][i]);
    }
}

TEST(SharedPlan, EulerFloatingPointAlsoBitIdentical) {
  // The schedule fixes the summation order, so even non-exact arithmetic
  // reproduces bitwise across plan reuse.
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({120, 600, 6}));
  core::NativeOptions opt;
  opt.plan.num_procs = 3;
  opt.plan.k = 2;
  opt.sweep.sweeps = 4;
  const core::NativeResult cold = run_native_engine(kernel, opt);
  const core::ExecutionPlan plan =
      core::build_execution_plan(kernel, opt.plan);
  const core::NativeResult warm =
      core::run_native_plan(kernel, plan, opt.sweep);
  for (std::size_t a = 0; a < cold.node_read.size(); ++a)
    for (std::size_t i = 0; i < cold.node_read[a].size(); ++i)
      ASSERT_EQ(warm.node_read[a][i], cold.node_read[a][i]);
}

TEST(SharedPlan, OnePlanServesConcurrentExecutors) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({150, 900, 7}));
  const core::ExecutionPlan plan =
      core::build_execution_plan(kernel, plan_opts(4, 2));
  core::SweepOptions sopt;
  sopt.sweeps = 2;

  core::SequentialOptions seq_opt;
  seq_opt.sweeps = 2;
  const core::RunResult seq = run_sequential_kernel(kernel, seq_opt);

  constexpr int kRunners = 6;
  std::vector<core::NativeResult> results(kRunners);
  std::vector<std::thread> threads;
  threads.reserve(kRunners);
  for (int t = 0; t < kRunners; ++t)
    threads.emplace_back([&, t] {
      results[t] = core::run_native_plan(kernel, plan, sopt);
    });
  for (std::thread& t : threads) t.join();

  for (const core::NativeResult& r : results)
    for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
      ASSERT_EQ(r.reduction[0][i], seq.reduction[0][i]);
}

TEST(SharedPlan, RejectsMismatchedKernelShape) {
  const auto small = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({100, 500, 8}));
  const auto big = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({200, 900, 8}));
  const core::ExecutionPlan plan =
      core::build_execution_plan(small, plan_opts(2, 2));
  EXPECT_THROW((void)core::run_native_plan(big, plan, {}), check_error);
}

// --- the scheduler ------------------------------------------------------

TEST(JobScheduler, ConcurrentSubmissionMixedMeshesCorrectResults) {
  // Acceptance scenario: >= 8 submitting threads, mixed meshes, every
  // handle resolves, accepted jobs produce per-kernel-correct results,
  // rejected jobs carry a reason (none silently dropped).
  struct Workload {
    std::shared_ptr<const core::PhasedKernel> kernel;
    std::vector<double> expected;  // sequential reduction[0]
    core::PlanOptions plan;
    std::uint32_t sweeps;
  };
  std::vector<Workload> workloads;
  const auto add = [&](std::uint64_t seed, std::uint32_t P, std::uint32_t k,
                       std::uint32_t sweeps) {
    Workload w;
    w.kernel = std::make_shared<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(
            mesh::make_geometric_mesh(
                {static_cast<std::uint32_t>(120 + 10 * (seed % 3)), 700,
                 seed})));
    w.plan = plan_opts(P, k);
    w.sweeps = sweeps;
    core::SequentialOptions sopt;
    sopt.sweeps = sweeps;
    w.expected = run_sequential_kernel(*w.kernel, sopt).reduction[0];
    workloads.push_back(std::move(w));
  };
  add(40, 4, 2, 2);
  add(41, 3, 1, 3);
  add(42, 2, 2, 1);
  add(43, 5, 2, 2);

  JobScheduler::Config cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 16;
  JobScheduler sched(cfg);

  constexpr int kSubmitters = 8;
  constexpr int kJobsPerThread = 6;
  std::vector<std::vector<JobHandle>> handles(kSubmitters);
  std::atomic<int> ready{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kSubmitters) std::this_thread::yield();
      for (int j = 0; j < kJobsPerThread; ++j) {
        const Workload& w = workloads[(t + j) % workloads.size()];
        JobRequest req;
        req.kernel = w.kernel;
        req.name = "t" + std::to_string(t) + "j" + std::to_string(j);
        req.plan = w.plan;
        req.sweeps = w.sweeps;
        handles[t].push_back(sched.submit(std::move(req)));
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  std::uint64_t done = 0, rejected = 0;
  for (int t = 0; t < kSubmitters; ++t) {
    for (int j = 0; j < kJobsPerThread; ++j) {
      const JobOutcome& o = handles[t][j].wait();
      const Workload& w = workloads[(t + j) % workloads.size()];
      if (o.state == JobState::Done) {
        ++done;
        ASSERT_EQ(o.native.reduction[0].size(), w.expected.size());
        for (std::size_t i = 0; i < w.expected.size(); ++i)
          ASSERT_EQ(o.native.reduction[0][i], w.expected[i]) << o.name;
      } else {
        ASSERT_EQ(o.state, JobState::Rejected) << o.error;
        ASSERT_FALSE(o.error.empty()) << "rejection must carry a reason";
        ++rejected;
      }
    }
  }
  EXPECT_EQ(done + rejected,
            static_cast<std::uint64_t>(kSubmitters) * kJobsPerThread);
  EXPECT_GT(done, 0u);

  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.submitted, done + rejected);
  EXPECT_EQ(s.completed, done);
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.pending(), 0u);
  // Single-flight: each of the 4 plan keys was built at most... exactly once.
  EXPECT_EQ(s.cache.misses, workloads.size());
}

TEST(JobScheduler, QueueFullRejectsWithReason) {
  JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  JobScheduler sched(cfg);

  const auto kernel = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({400, 2400, 9}));
  std::vector<JobHandle> handles;
  for (int j = 0; j < 5; ++j) {
    JobRequest req;
    req.kernel = kernel;
    req.name = "job" + std::to_string(j);
    req.plan = plan_opts(4, 2);
    req.sweeps = 40;
    handles.push_back(sched.submit(std::move(req)));
  }
  std::uint64_t done = 0, rejected = 0;
  for (const JobHandle& h : handles) {
    const JobOutcome& o = h.wait();
    if (o.state == JobState::Done) {
      ++done;
    } else {
      ASSERT_EQ(o.state, JobState::Rejected);
      EXPECT_NE(o.error.find("queue full"), std::string::npos) << o.error;
      ++rejected;
    }
  }
  EXPECT_EQ(done + rejected, 5u);
  EXPECT_GE(done, 1u);  // at least the first job ran
  EXPECT_GE(rejected, 2u);
  EXPECT_EQ(sched.stats().rejected, rejected);
}

TEST(JobScheduler, NullKernelRejectedNotCrashed) {
  JobScheduler sched;
  const JobHandle handle = sched.submit(JobRequest{});
  const JobOutcome& o = handle.wait();
  EXPECT_EQ(o.state, JobState::Rejected);
  EXPECT_NE(o.error.find("null kernel"), std::string::npos) << o.error;
}

TEST(JobScheduler, ShutdownRejectsLateSubmissions) {
  JobScheduler sched;
  sched.shutdown();
  JobRequest req;
  req.kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({50, 200, 10})));
  const JobHandle handle = sched.submit(std::move(req));
  const JobOutcome& o = handle.wait();
  EXPECT_EQ(o.state, JobState::Rejected);
  EXPECT_NE(o.error.find("shut down"), std::string::npos) << o.error;
}

TEST(JobScheduler, DeadlineStallSurfacesAsFailedJob) {
  // A lost ring forward (PR 1's fault hook) must trip the per-job
  // deadline and resolve the handle as Failed with the watchdog's
  // diagnostic — not wedge the worker.
  JobScheduler::Config cfg;
  cfg.workers = 1;
  JobScheduler sched(cfg);

  JobRequest req;
  req.kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 600, 11})));
  req.name = "stalling";
  req.plan = plan_opts(4, 2);
  // The lost-forward hook faults the rotation ring, which only exists in
  // the phased executor — pin it so auto cannot route around the fault.
  req.plan.strategy = core::StrategyKind::Phased;
  req.sweeps = 3;
  req.deadline_seconds = 0.3;
  req.lose_forward = {true, 0, 0, 0};
  const JobHandle handle = sched.submit(std::move(req));
  const JobOutcome& o = handle.wait();
  EXPECT_EQ(o.state, JobState::Failed);
  EXPECT_NE(o.error.find("stalled"), std::string::npos) << o.error;
  EXPECT_EQ(sched.stats().failed, 1u);

  // The worker survived: a healthy job still completes.
  JobRequest ok;
  ok.kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 600, 11})));
  ok.plan = plan_opts(2, 1);
  ok.sweeps = 1;
  const JobHandle ok_handle = sched.submit(std::move(ok));
  EXPECT_EQ(ok_handle.wait().state, JobState::Done);
}

TEST(JobScheduler, BatchSharesOnePlanAcrossJobs) {
  JobScheduler::Config cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 32;
  JobScheduler sched(cfg);

  const auto kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({150, 900, 12})));
  const std::uint64_t fp = kernel_fingerprint(*kernel);
  std::vector<JobRequest> reqs;
  for (int j = 0; j < 10; ++j) {
    JobRequest req;
    req.kernel = kernel;
    req.name = "batch" + std::to_string(j);
    req.plan = plan_opts(4, 2);
    req.sweeps = 2;
    req.fingerprint = fp;
    reqs.push_back(std::move(req));
  }
  const std::vector<JobHandle> handles = sched.submit_batch(std::move(reqs));
  ASSERT_EQ(handles.size(), 10u);
  for (const JobHandle& h : handles)
    EXPECT_EQ(h.wait().state, JobState::Done) << h.wait().error;

  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.completed, 10u);
  EXPECT_EQ(s.cache.misses, 1u) << "ten jobs, one plan build";
  EXPECT_EQ(s.cold_setups, 1u);
  EXPECT_EQ(s.warm_setups, 9u);
  EXPECT_LE(s.p50_latency, s.p95_latency);
}

TEST(JobScheduler, LatencyWindowStaysBoundedPastItsCapacity) {
  // A long-lived server must not keep one latency per job forever: the
  // quantiles cover the most recent kLatencyWindow resolved jobs only.
  JobScheduler::Config cfg;
  cfg.workers = 2;
  JobScheduler sched(cfg);
  const auto kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({40, 120, 14})));
  const std::uint64_t fp = kernel_fingerprint(*kernel);
  const std::size_t jobs = JobScheduler::kLatencyWindow + 100;
  for (std::size_t done = 0; done < jobs;) {
    std::vector<JobHandle> wave;
    for (; done < jobs && wave.size() < cfg.queue_capacity; ++done) {
      JobRequest req;
      req.kernel = kernel;
      req.plan = plan_opts(1, 1);
      req.fingerprint = fp;
      wave.push_back(sched.submit(std::move(req)));
    }
    for (const JobHandle& h : wave)
      ASSERT_EQ(h.wait().state, JobState::Done) << h.wait().error;
  }

  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.completed, jobs);
  EXPECT_EQ(s.latency_samples, JobScheduler::kLatencyWindow);
  EXPECT_GT(s.p50_latency, 0.0);
  EXPECT_LE(s.p50_latency, s.p95_latency);
  EXPECT_LE(s.p95_latency, s.p99_latency);
  EXPECT_EQ(sched.counters().latency_samples, 0u);
}

TEST(JobScheduler, SimulatedJobRunsOnEarthMachine) {
  JobScheduler sched;
  const auto kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 13})));
  core::SequentialOptions sopt;
  sopt.sweeps = 2;
  const core::RunResult seq = run_sequential_kernel(*kernel, sopt);

  JobRequest req;
  req.kernel = kernel;
  req.name = "sim";
  req.plan = plan_opts(4, 2);
  req.sweeps = 2;
  req.simulated = true;
  const JobHandle handle = sched.submit(std::move(req));
  const JobOutcome& o = handle.wait();
  ASSERT_EQ(o.state, JobState::Done) << o.error;
  EXPECT_TRUE(o.simulated);
  EXPECT_GT(o.simulated_run.total_cycles, 0u);
  ASSERT_EQ(o.simulated_run.reduction[0].size(), seq.reduction[0].size());
  for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
    ASSERT_EQ(o.simulated_run.reduction[0][i], seq.reduction[0][i]);
  // Simulated jobs bypass the plan cache.
  EXPECT_EQ(sched.stats().cache.misses, 0u);
}

TEST(JobScheduler, DestructorDrainsQueuedJobs) {
  std::vector<JobHandle> handles;
  {
    JobScheduler::Config cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 16;
    JobScheduler sched(cfg);
    const auto kernel = std::make_shared<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(
            mesh::make_geometric_mesh({100, 500, 14})));
    for (int j = 0; j < 8; ++j) {
      JobRequest req;
      req.kernel = kernel;
      req.name = "drain" + std::to_string(j);
      req.plan = plan_opts(2, 2);
      req.sweeps = 1;
      handles.push_back(sched.submit(std::move(req)));
    }
  }  // ~JobScheduler drains
  for (const JobHandle& h : handles)
    EXPECT_EQ(h.wait().state, JobState::Done) << h.wait().error;
}

// --- graceful drain: deadline interaction and stats reconciliation ------

TEST(JobSchedulerDrain, ExpiredQueuedJobsRejectAtPickupDuringDrain) {
  JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  JobScheduler sched(cfg);

  // One long blocker occupies the single worker...
  const auto big = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({2000, 12000, 8}));
  JobRequest blocker;
  blocker.kernel = big;
  blocker.name = "blocker";
  blocker.plan = plan_opts(4, 2);
  blocker.sweeps = 4000;
  blocker.deadline_seconds = 60.0;
  const JobHandle blocker_handle = sched.submit(std::move(blocker));
  // ...and is definitely running before anything else is queued.
  for (int i = 0; i < 500 && sched.stats().in_flight == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(sched.stats().in_flight, 1u);

  // Tight-deadline jobs queue behind it; by the time the drain lets the
  // worker pick them up their deadline has long expired.
  const auto small = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 14})));
  std::vector<JobHandle> expired;
  for (int j = 0; j < 3; ++j) {
    JobRequest req;
    req.kernel = small;
    req.name = "expired" + std::to_string(j);
    req.plan = plan_opts(2, 2);
    req.sweeps = 1;
    req.deadline_seconds = 0.001;
    expired.push_back(sched.submit(std::move(req)));
  }
  sched.begin_drain();
  EXPECT_TRUE(sched.draining());

  EXPECT_EQ(blocker_handle.wait().state, JobState::Done)
      << blocker_handle.wait().error;
  for (const JobHandle& h : expired) {
    const JobOutcome& o = h.wait();
    EXPECT_EQ(o.state, JobState::Rejected) << o.name;
    EXPECT_NE(o.error.find("deadline"), std::string::npos) << o.error;
  }

  // Reconciliation: every submitted job is accounted for exactly once
  // and nothing is left queued or running after the drain.
  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed + s.failed + s.rejected, s.submitted);
  EXPECT_EQ(s.rejected_deadline, 3u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(JobSchedulerDrain, SubmitAfterDrainIsRejectedWithCode) {
  JobScheduler sched(JobScheduler::Config{});
  sched.begin_drain();

  const auto kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 14})));
  JobRequest req;
  req.kernel = kernel;
  req.name = "late";
  req.plan = plan_opts(2, 2);
  const JobHandle late = sched.submit(std::move(req));
  const JobOutcome& o = late.wait();
  EXPECT_EQ(o.state, JobState::Rejected);
  EXPECT_NE(o.error.find("E-SVC-DRAINING"), std::string::npos) << o.error;

  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(JobSchedulerDrain, AbortQueuedResolvesEveryHandleWithReason) {
  JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 32;
  JobScheduler sched(cfg);

  const auto big = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({2000, 12000, 8}));
  JobRequest blocker;
  blocker.kernel = big;
  blocker.name = "blocker";
  blocker.plan = plan_opts(4, 2);
  blocker.sweeps = 4000;
  blocker.deadline_seconds = 60.0;
  const JobHandle blocker_handle = sched.submit(std::move(blocker));
  for (int i = 0; i < 500 && sched.stats().in_flight == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

  const auto small = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 14})));
  std::vector<JobHandle> queued;
  for (int j = 0; j < 5; ++j) {
    JobRequest req;
    req.kernel = small;
    req.name = "queued" + std::to_string(j);
    req.plan = plan_opts(2, 2);
    queued.push_back(sched.submit(std::move(req)));
  }

  sched.abort_queued("forced shutdown (test)");
  for (const JobHandle& h : queued) {
    const JobOutcome& o = h.wait();
    EXPECT_EQ(o.state, JobState::Rejected) << o.name;
    EXPECT_NE(o.error.find("forced shutdown"), std::string::npos)
        << o.error;
  }
  // The in-flight blocker is never killed mid-run: abort empties the
  // queue, it does not corrupt running work.
  EXPECT_EQ(blocker_handle.wait().state, JobState::Done)
      << blocker_handle.wait().error;
  EXPECT_EQ(sched.stats().pending(), 0u);
}

// --- resolution callback: one call per job, after the handle is ready ---

/// Watches one job's JobRequest::on_resolved. The callback waits until
/// the test has published the handle (submit() returns it only after the
/// job is queued, and a fast worker may resolve it before that), then
/// records whether the handle was already ready.
struct ResolutionProbe {
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<JobHandle> handle;
  int calls = 0;
  bool ready_at_every_call = true;

  static std::shared_ptr<ResolutionProbe> attach(JobRequest& req) {
    auto probe = std::make_shared<ResolutionProbe>();
    req.on_resolved = [probe] {
      std::unique_lock<std::mutex> lock(probe->mutex);
      probe->cv.wait(lock, [&] { return probe->handle.has_value(); });
      probe->ready_at_every_call =
          probe->ready_at_every_call && probe->handle->ready();
      ++probe->calls;
      probe->cv.notify_all();
    };
    return probe;
  }

  JobHandle publish(JobHandle h) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      handle = h;
    }
    cv.notify_all();
    return h;
  }

  /// Call count once the first call has happened (bounded wait).
  int calls_after_first() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return calls > 0; });
    return calls;
  }
};

std::shared_ptr<const core::PhasedKernel> small_fig1(std::uint32_t seed) {
  return std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, seed})));
}

/// Submits a long job to a one-worker scheduler and returns once it runs.
JobHandle occupy_the_worker(JobScheduler& sched) {
  JobRequest blocker;
  blocker.kernel = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({2000, 12000, 8}));
  blocker.name = "blocker";
  blocker.plan = plan_opts(4, 2);
  blocker.sweeps = 4000;
  blocker.deadline_seconds = 60.0;
  const JobHandle h = sched.submit(std::move(blocker));
  for (int i = 0; i < 500 && sched.counters().in_flight == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  return h;
}

TEST(ResolutionCallback, FiresOnceAfterReadyForDoneFailedAndVerifierReject) {
  std::vector<std::shared_ptr<ResolutionProbe>> probes;
  {
    JobScheduler::Config cfg;
    cfg.workers = 2;
    JobScheduler sched(cfg);

    JobRequest done;
    done.kernel = small_fig1(14);
    done.plan = plan_opts(2, 2);
    done.fingerprint = kernel_fingerprint(*done.kernel);
    JobRequest foreign = done;  // same fingerprint, different mesh
    foreign.kernel = small_fig1(15);
    foreign.plan.verify = true;
    probes.push_back(ResolutionProbe::attach(done));
    const JobHandle h_done =
        probes.back()->publish(sched.submit(std::move(done)));
    EXPECT_EQ(h_done.wait().state, JobState::Done) << h_done.wait().error;

    // The cache serves the first mesh's plan under the shared
    // fingerprint; the verifier's kernel cross-check refuses it.
    probes.push_back(ResolutionProbe::attach(foreign));
    const JobHandle h_reject =
        probes.back()->publish(sched.submit(std::move(foreign)));
    EXPECT_EQ(h_reject.wait().state, JobState::Rejected);
    EXPECT_NE(h_reject.wait().error.find("E-PLAN-REF-MISMATCH"),
              std::string::npos)
        << h_reject.wait().error;

    JobRequest failed;
    failed.kernel = small_fig1(11);
    failed.plan = plan_opts(4, 2);
    failed.plan.strategy = core::StrategyKind::Phased;  // ring fault
    failed.sweeps = 3;
    failed.deadline_seconds = 0.3;
    failed.lose_forward = {true, 0, 0, 0};
    probes.push_back(ResolutionProbe::attach(failed));
    const JobHandle h_failed =
        probes.back()->publish(sched.submit(std::move(failed)));
    EXPECT_EQ(h_failed.wait().state, JobState::Failed);

    for (const auto& p : probes) EXPECT_EQ(p->calls_after_first(), 1);
  }  // ~JobScheduler joins the workers: no call can still be pending
  for (const auto& p : probes) {
    EXPECT_EQ(p->calls, 1);
    EXPECT_TRUE(p->ready_at_every_call);
  }
}

/// Queues `n` small jobs with probes behind a running blocker.
std::vector<std::shared_ptr<ResolutionProbe>> queue_probed(
    JobScheduler& sched, int n, double deadline_seconds) {
  std::vector<std::shared_ptr<ResolutionProbe>> probes;
  for (int j = 0; j < n; ++j) {
    JobRequest req;
    req.kernel = small_fig1(14);
    req.plan = plan_opts(2, 2);
    req.deadline_seconds = deadline_seconds;
    probes.push_back(ResolutionProbe::attach(req));
    probes.back()->publish(sched.submit(std::move(req)));
  }
  return probes;
}

TEST(ResolutionCallback, FiresOnceForDrainExpiryAtPickup) {
  std::vector<std::shared_ptr<ResolutionProbe>> probes;
  {
    JobScheduler::Config cfg;
    cfg.workers = 1;
    JobScheduler sched(cfg);
    const JobHandle blocker = occupy_the_worker(sched);
    ASSERT_EQ(sched.counters().in_flight, 1u);
    probes = queue_probed(sched, 3, 0.001);
    sched.begin_drain();
    EXPECT_EQ(blocker.wait().state, JobState::Done);
    for (const auto& p : probes) {
      EXPECT_EQ(p->calls_after_first(), 1);
      EXPECT_EQ(p->handle->wait().state, JobState::Rejected);
      EXPECT_NE(p->handle->wait().error.find("E-SVC-DEADLINE"),
                std::string::npos);
    }
  }
  for (const auto& p : probes) {
    EXPECT_EQ(p->calls, 1);
    EXPECT_TRUE(p->ready_at_every_call);
  }
}

TEST(ResolutionCallback, FiresOnceForAbortQueuedOnTheCallersThread) {
  std::vector<std::shared_ptr<ResolutionProbe>> probes;
  {
    JobScheduler::Config cfg;
    cfg.workers = 1;
    JobScheduler sched(cfg);
    const JobHandle blocker = occupy_the_worker(sched);
    ASSERT_EQ(sched.counters().in_flight, 1u);
    probes = queue_probed(sched, 3, 60.0);
    sched.abort_queued("forced shutdown (test)");
    // abort_queued resolves and calls back before it returns.
    for (const auto& p : probes) {
      const std::lock_guard<std::mutex> lock(p->mutex);
      EXPECT_EQ(p->calls, 1);
    }
    EXPECT_EQ(blocker.wait().state, JobState::Done);
  }
  for (const auto& p : probes) {
    EXPECT_EQ(p->calls, 1);
    EXPECT_TRUE(p->ready_at_every_call);
    EXPECT_EQ(p->handle->wait().state, JobState::Rejected);
  }
}

TEST(ResolutionCallback, AdmissionRejectFiresInsideSubmit) {
  JobScheduler sched;
  int calls = 0;
  JobRequest req;  // null kernel: refused at admission
  req.on_resolved = [&calls] { ++calls; };
  const JobHandle h = sched.submit(std::move(req));
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(h.ready());
  EXPECT_EQ(h.wait().state, JobState::Rejected);
}

}  // namespace
}  // namespace earthred::service

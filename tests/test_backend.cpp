// Compute-backend selection and CPU feature detection (PR 8).
//
// The backend layer promises three things: (1) feature detection is
// internally consistent (a SIMD tier is only reported usable when the OS
// saves the register state it needs), (2) resolution is total for `auto`
// — it always lands on a supported tier, so auto-mode jobs can never be
// rejected for backend reasons — and (3) an explicit request for a tier
// the host lacks is refused at admission with a coded diagnostic
// ("E-BACKEND-UNSUPPORTED"), never a fault inside a worker.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "core/backend.hpp"
#include "kernels/euler.hpp"
#include "mesh/generators.hpp"
#include "service/job_scheduler.hpp"
#include "support/check.hpp"
#include "support/cpu_features.hpp"

namespace earthred {
namespace {

using core::BackendKind;

// Restores real CPU detection and a clean environment on scope exit so a
// failing assertion cannot poison later tests.
struct ScopedHostState {
  ~ScopedHostState() {
    support::set_cpu_features_for_test(nullptr);
    ::unsetenv("EARTHRED_FORCE_BACKEND");
  }
};

support::CpuFeatures no_simd() { return support::CpuFeatures{}; }

support::CpuFeatures avx2_only() {
  support::CpuFeatures f;
  f.osxsave = f.os_ymm = f.avx2 = true;
  return f;
}

TEST(CpuFeatures, DetectedFlagsAreInternallyConsistent) {
  const support::CpuFeatures& f = support::host_cpu_features();
  // A usable SIMD tier implies the OS enabled the register state.
  if (f.avx2) {
    EXPECT_TRUE(f.osxsave);
    EXPECT_TRUE(f.os_ymm);
  }
  if (f.avx512f) {
    EXPECT_TRUE(f.osxsave);
    EXPECT_TRUE(f.os_ymm);
    EXPECT_TRUE(f.os_zmm);
  }
  // ZMM state without YMM state is not a thing XCR0 can express sanely.
  if (f.os_zmm) EXPECT_TRUE(f.os_ymm);
  EXPECT_FALSE(support::to_string(f).empty());
}

TEST(CpuFeatures, TestOverrideControlsDetection) {
  ScopedHostState guard;
  const support::CpuFeatures forced = avx2_only();
  support::set_cpu_features_for_test(&forced);
  EXPECT_TRUE(support::host_cpu_features().avx2);
  EXPECT_FALSE(support::host_cpu_features().avx512f);
  EXPECT_EQ(support::to_string(support::host_cpu_features()), "avx2");

  support::set_cpu_features_for_test(nullptr);
  const support::CpuFeatures none = no_simd();
  support::set_cpu_features_for_test(&none);
  EXPECT_EQ(support::to_string(support::host_cpu_features()),
            "none (scalar only)");
}

TEST(CpuFeatures, HardwareThreadsIsPositive) {
  EXPECT_GE(support::hardware_threads(), 1u);
}

TEST(Backend, NameRoundTripsAndRejectsUnknownSpellings) {
  for (const BackendKind kind :
       {BackendKind::Auto, BackendKind::Scalar, BackendKind::Avx2,
        BackendKind::Avx512}) {
    EXPECT_EQ(core::parse_backend(core::to_string(kind)), kind);
  }
  EXPECT_EQ(core::parse_backend("avx512f"), BackendKind::Avx512);
  try {
    (void)core::parse_backend("sse9");
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("E-BACKEND-NAME"),
              std::string::npos);
  }
}

TEST(Backend, ScalarAndAutoAreAlwaysSupported) {
  ScopedHostState guard;
  const support::CpuFeatures none = no_simd();
  support::set_cpu_features_for_test(&none);
  EXPECT_TRUE(core::backend_supported(BackendKind::Auto));
  EXPECT_TRUE(core::backend_supported(BackendKind::Scalar));
  EXPECT_FALSE(core::backend_supported(BackendKind::Avx512));
  // Auto resolves — to scalar here — and never throws.
  EXPECT_EQ(core::resolve_backend(BackendKind::Auto), BackendKind::Scalar);
}

TEST(Backend, AutoPicksTheWidestSupportedTier) {
  ScopedHostState guard;
  const support::CpuFeatures f = avx2_only();
  support::set_cpu_features_for_test(&f);
#if EARTHRED_HAS_X86_BACKENDS
  EXPECT_EQ(core::resolve_backend(BackendKind::Auto), BackendKind::Avx2);
#else
  EXPECT_EQ(core::resolve_backend(BackendKind::Auto), BackendKind::Scalar);
#endif
}

TEST(Backend, ExplicitUnsupportedTierIsACodedError) {
  ScopedHostState guard;
  const support::CpuFeatures f = avx2_only();
  support::set_cpu_features_for_test(&f);
  try {
    (void)core::resolve_backend(BackendKind::Avx512);
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("E-BACKEND-UNSUPPORTED"),
              std::string::npos);
  }
}

TEST(Backend, ForceEnvAppliesOnlyToAutoRequests) {
  ScopedHostState guard;
  ::setenv("EARTHRED_FORCE_BACKEND", "scalar", 1);
  EXPECT_EQ(core::effective_backend(BackendKind::Auto), BackendKind::Scalar);
  // An explicit request always wins over the environment.
  EXPECT_EQ(core::effective_backend(BackendKind::Avx2), BackendKind::Avx2);
  EXPECT_EQ(core::resolve_backend(BackendKind::Auto), BackendKind::Scalar);

  // Forcing a tier the host lacks turns auto into the same coded error an
  // explicit request would get (the CI backend matrix relies on this to
  // exercise tiers, so a typo there must fail loudly, not fall back).
  const support::CpuFeatures none = no_simd();
  support::set_cpu_features_for_test(&none);
  ::setenv("EARTHRED_FORCE_BACKEND", "avx512", 1);
  EXPECT_THROW((void)core::resolve_backend(BackendKind::Auto), check_error);
  ::unsetenv("EARTHRED_FORCE_BACKEND");
}

TEST(Backend, CompiledBackendsAlwaysIncludeScalar) {
  const auto& tiers = core::compiled_backends();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), BackendKind::Scalar);
}

// ---- Admission behavior through the scheduler ------------------------

service::JobRequest small_job(BackendKind backend) {
  service::JobRequest req;
  req.name = "backend-admission";
  req.kernel = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({96, 400, 5}));
  req.plan.num_procs = 2;
  req.plan.k = 2;
  req.sweeps = 1;
  req.backend = backend;
  return req;
}

TEST(BackendAdmission, UnsupportedBackendIsRejectedAtAdmission) {
  ScopedHostState guard;
  const support::CpuFeatures f = avx2_only();
  support::set_cpu_features_for_test(&f);

  service::JobScheduler::Config cfg;
  cfg.workers = 1;
  service::JobScheduler sched(cfg);

  const service::JobHandle h = sched.submit(small_job(BackendKind::Avx512));
  const service::JobOutcome& out = h.wait();
  EXPECT_EQ(out.state, service::JobState::Rejected);
  EXPECT_NE(out.error.find("E-BACKEND-UNSUPPORTED"), std::string::npos);

  const service::ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.rejected_backend, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(BackendAdmission, AutoNeverRejectsEvenWithoutSimd) {
  ScopedHostState guard;
  const support::CpuFeatures none = no_simd();
  support::set_cpu_features_for_test(&none);

  service::JobScheduler::Config cfg;
  cfg.workers = 1;
  service::JobScheduler sched(cfg);

  const service::JobHandle h = sched.submit(small_job(BackendKind::Auto));
  const service::JobOutcome& out = h.wait();
  EXPECT_EQ(out.state, service::JobState::Done);
  EXPECT_EQ(out.backend, BackendKind::Scalar);

  const service::ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.rejected_backend, 0u);
  EXPECT_EQ(stats.served_scalar, 1u);
}

TEST(BackendAdmission, SupportedExplicitBackendRunsAndIsCounted) {
  // Run with whatever the host actually supports so this passes on any
  // machine: the widest real tier is requested explicitly.
  const BackendKind widest = core::resolve_backend(BackendKind::Auto);

  service::JobScheduler::Config cfg;
  cfg.workers = 1;
  service::JobScheduler sched(cfg);
  const service::JobHandle h = sched.submit(small_job(widest));
  const service::JobOutcome& out = h.wait();
  ASSERT_EQ(out.state, service::JobState::Done);
  EXPECT_EQ(out.backend, widest);

  const service::ServiceStats stats = sched.stats();
  switch (widest) {
    case BackendKind::Avx512:
      EXPECT_EQ(stats.served_avx512, 1u);
      break;
    case BackendKind::Avx2:
      EXPECT_EQ(stats.served_avx2, 1u);
      break;
    default:
      EXPECT_EQ(stats.served_scalar, 1u);
      break;
  }
}

}  // namespace
}  // namespace earthred

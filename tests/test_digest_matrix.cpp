// Golden digest matrix for the native engine: fig1, euler and moldyn
// under every strategy x distribution x k x layout, each run batched,
// per-edge and pinned. The three run modes and the two layouts must agree
// bit for bit on every line, and fig1/moldyn must reproduce the digests
// pinned below, so a change to how the executors set up or run a sweep
// cannot move a single result bit unnoticed. Extra rows beyond the full
// matrix cover an even sweep count (the phased executor then returns the
// other node-read buffer), three processors, deduplicated buffer slots
// and a tiled layout=rcm plan.
//
// euler's initial state goes through std::exp, whose last bit depends on
// the host's libm, so euler lines assert equality across configurations
// only; fig1 (integer values) and moldyn (arithmetic and sqrt) are pinned.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "core/native_engine.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "service/job_builder.hpp"

namespace earthred::core {
namespace {

constexpr std::uint32_t kProcs = 4;
constexpr std::uint32_t kSweeps = 3;

constexpr std::array<StrategyKind, 2> kStrategies = {StrategyKind::Phased,
                                                     StrategyKind::Privatized};
constexpr std::array<inspector::Distribution, 2> kDists = {
    inspector::Distribution::Block, inspector::Distribution::Cyclic};

/// Golden digests indexed [strategy][dist][k-1] in the order of the
/// arrays above.
using Golden = std::array<std::array<std::array<std::uint64_t, 3>, 2>, 2>;

// clang-format off
constexpr Golden kFig1Golden = {{
    {{{0x05d1c024b38ac014ull, 0x05d1c024b38ac014ull, 0x05d1c024b38ac014ull},
      {0x05d1c024b38ac014ull, 0x05d1c024b38ac014ull, 0x05d1c024b38ac014ull}}},
    {{{0x05d1c024b38ac014ull, 0x05d1c024b38ac014ull, 0x05d1c024b38ac014ull},
      {0x05d1c024b38ac014ull, 0x05d1c024b38ac014ull, 0x05d1c024b38ac014ull}}},
}};
constexpr Golden kMoldynGolden = {{
    {{{0xb9995d4a325a2968ull, 0xb0c19328395e07c5ull, 0x191f636032f82053ull},
      {0x986102cd8190df9cull, 0x068ba09c0a801ae3ull, 0x9d61d380e91777a2ull}}},
    {{{0xde8c8eb568183265ull, 0x85808b446926f2deull, 0x4cd3dbf2a266188eull},
      {0x8381ef222998d59full, 0x8381ef222998d59full, 0xaff807925dc6892dull}}},
}};
// clang-format on

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Runs one line — `base` under both layouts, each in all three modes —
/// asserts they agree, and returns the common digest (0 after a failed
/// assertion).
std::uint64_t line_digest(const PhasedKernel& kernel, PlanOptions base,
                          std::uint32_t sweeps, const std::string& what) {
  std::uint64_t common = 0;
  for (const LayoutKind layout : {LayoutKind::None, LayoutKind::Rcm}) {
    PlanOptions popt = base;
    popt.layout = layout;
    const ExecutionPlan plan = build_execution_plan(kernel, popt);

    SweepOptions batched;
    batched.sweeps = sweeps;
    SweepOptions per_edge = batched;
    per_edge.batch = false;
    SweepOptions pinned = batched;
    pinned.affinity.pin_threads = true;

    const std::string at =
        what + " layout=" + std::string(to_string(layout));
    for (const auto& [mode, sopt] :
         {std::pair<const char*, const SweepOptions&>{"batched", batched},
          {"per-edge", per_edge},
          {"pinned", pinned}}) {
      const NativeResult r = run_native_plan(kernel, plan, sopt);
      EXPECT_EQ(r.strategy, base.strategy) << at << " " << mode;
      const std::uint64_t d = service::result_digest(r);
      if (common == 0) common = d;
      EXPECT_EQ(hex(d), hex(common)) << at << " " << mode;
    }
  }
  return common;
}

void check_matrix(const PhasedKernel& kernel, const std::string& name,
                  const Golden* golden) {
  for (std::size_t s = 0; s < kStrategies.size(); ++s)
    for (std::size_t d = 0; d < kDists.size(); ++d)
      for (std::uint32_t k = 1; k <= 3; ++k) {
        const std::string what =
            name + " strategy=" + std::string(to_string(kStrategies[s])) +
            " dist=" +
            (kDists[d] == inspector::Distribution::Block ? "block"
                                                         : "cyclic") +
            " k=" + std::to_string(k);
        PlanOptions popt;
        popt.num_procs = kProcs;
        popt.k = k;
        popt.distribution = kDists[d];
        popt.strategy = kStrategies[s];
        const std::uint64_t got = line_digest(kernel, popt, kSweeps, what);
        if (golden != nullptr) {
          EXPECT_EQ(hex(got), hex((*golden)[s][d][k - 1])) << what;
        }
      }
}

/// One row outside the full matrix; `fig1`/`moldyn` are its pinned
/// digests. The rcm plans of these rows use a 64-iteration tile, so the
/// tiled batch loops run too.
struct ExtraRow {
  std::uint32_t procs;
  std::uint32_t sweeps;
  StrategyKind strategy;
  inspector::Distribution dist;
  std::uint32_t k;
  bool dedup;
  std::uint64_t fig1;
  std::uint64_t moldyn;
};

constexpr auto kBlock = inspector::Distribution::Block;
constexpr auto kCyclic = inspector::Distribution::Cyclic;
constexpr auto kPhased = StrategyKind::Phased;
constexpr auto kPrivatized = StrategyKind::Privatized;

/// fig1's integer sums are exact, so every row reproduces the matrix's
/// single fig1 digest.
constexpr std::uint64_t kFig1Digest = 0x05d1c024b38ac014ull;

// clang-format off
constexpr ExtraRow kExtraRows[] = {
    {4, 2, kPhased,     kCyclic, 2, false, kFig1Digest, 0x677e7bf0b4e81b01ull},
    {4, 2, kPhased,     kBlock,  3, false, kFig1Digest, 0x39874e38a2c971a2ull},
    {3, 3, kPhased,     kCyclic, 1, false, kFig1Digest, 0x8e7c181cf099d6c0ull},
    {3, 3, kPhased,     kBlock,  2, false, kFig1Digest, 0xcd95212009c42beaull},
    {3, 2, kPhased,     kCyclic, 3, false, kFig1Digest, 0x1e673be13881257bull},
    {4, 3, kPhased,     kCyclic, 2, true,  kFig1Digest, 0x95a8ca14c22ae9aaull},
    {3, 2, kPhased,     kBlock,  2, true,  kFig1Digest, 0xfd8e99fdf4fee976ull},
    {3, 2, kPrivatized, kCyclic, 2, false, kFig1Digest, 0x38bd2065eddd5586ull},
    {4, 2, kPrivatized, kBlock,  1, false, kFig1Digest, 0x3ed96678c27ff844ull},
};
// clang-format on

void check_extra_rows(const PhasedKernel& kernel, const std::string& name,
                      std::uint64_t ExtraRow::*golden) {
  for (const ExtraRow& row : kExtraRows) {
    PlanOptions popt;
    popt.num_procs = row.procs;
    popt.k = row.k;
    popt.distribution = row.dist;
    popt.strategy = row.strategy;
    popt.inspector.dedup_buffers = row.dedup;
    popt.layout_tile_iters = 64;
    const std::string what =
        name + " P=" + std::to_string(row.procs) +
        " sweeps=" + std::to_string(row.sweeps) +
        " strategy=" + std::string(to_string(row.strategy)) +
        " dist=" + (row.dist == kBlock ? "block" : "cyclic") +
        " k=" + std::to_string(row.k) + " dedup=" + std::to_string(row.dedup);
    const std::uint64_t got = line_digest(kernel, popt, row.sweeps, what);
    if (golden != nullptr) {
      EXPECT_EQ(hex(got), hex(row.*golden)) << what;
    }
  }
}

TEST(DigestMatrix, Fig1MatchesGoldenDigests) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({400, 2400, 21}));
  check_matrix(kernel, "fig1", &kFig1Golden);
}

TEST(DigestMatrix, MoldynMatchesGoldenDigests) {
  const kernels::MoldynKernel kernel(
      mesh::make_moldyn_lattice({4, 1500, 0.03, 2}));
  check_matrix(kernel, "moldyn", &kMoldynGolden);
}

TEST(DigestMatrix, EulerAgreesAcrossModesAndLayouts) {
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({500, 3000, 8}));
  check_matrix(kernel, "euler", nullptr);
}

TEST(DigestMatrix, ExtraRowsMatchGoldenDigests) {
  const auto fig1 = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({400, 2400, 21}));
  check_extra_rows(fig1, "fig1", &ExtraRow::fig1);
  const kernels::MoldynKernel moldyn(
      mesh::make_moldyn_lattice({4, 1500, 0.03, 2}));
  check_extra_rows(moldyn, "moldyn", &ExtraRow::moldyn);
  const kernels::EulerKernel euler(mesh::make_geometric_mesh({500, 3000, 8}));
  check_extra_rows(euler, "euler", nullptr);
}

}  // namespace
}  // namespace earthred::core

// The persistent plan store: round-trip fidelity, zero-copy adoption,
// the untrusted-input validation chain (every corruption class must come
// back as a coded, non-throwing rejection), and the PlanCache's
// transparent fallback — a bad file costs a rebuild, never a client
// error. Also validates the committed corruption corpus under
// examples/plans/bad/.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "mesh/generators.hpp"
#include "service/plan_cache.hpp"
#include "service/plan_store.hpp"
#include "scratch_dir.hpp"

namespace earthred::service {
namespace {

namespace fs = std::filesystem;

kernels::Fig1Kernel make_kernel(std::uint64_t seed = 21) {
  return kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({250, 1500, seed}));
}

core::PlanOptions plan_opts(std::uint32_t P = 4, std::uint32_t k = 2) {
  core::PlanOptions opt;
  opt.num_procs = P;
  opt.k = k;
  return opt;
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(raw.data());
  return {p, p + raw.size()};
}

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(PlanStore, RoundTripIsZeroCopyAndBitIdentical) {
  const auto kernel = make_kernel();
  const core::PlanOptions opt = plan_opts();
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);

  const test::ScratchDir scratch;
  const PlanStore store(scratch.str());
  const PlanKey key = make_plan_key(kernel, opt);
  std::string error;
  ASSERT_TRUE(store.save(key, plan, &error)) << error;

  const core::PlanLoadResult r = store.load(key);
  ASSERT_TRUE(r.ok()) << r.error_code << ": " << r.detail;
  EXPECT_TRUE(r.zero_copy);
  EXPECT_TRUE(core::plans_bit_identical(*r.plan, plan));
  // Loaded plans must be patchable bases: canonical free list.
  for (const auto& insp : r.plan->insp)
    EXPECT_TRUE(insp.free_slots.empty());

  // The header alone round-trips the plan's identity.
  std::string code, detail;
  const auto header = core::read_plan_header(store.path_for(key), &code,
                                             &detail);
  ASSERT_TRUE(header.has_value()) << code << ": " << detail;
  EXPECT_EQ(header->content_hash, key.content_hash);
  EXPECT_EQ(header->num_procs, key.num_procs);
  EXPECT_EQ(header->k, key.k);

  // And `ls` surfaces it.
  const auto entries = store.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].error_code.empty());
  EXPECT_EQ(entries[0].header.content_hash, key.content_hash);
}

/// Bytes of a plan's struct headers: what byte_size may add to the arrays
/// it accounts.
std::uint64_t header_bytes(const core::ExecutionPlan& plan) {
  std::uint64_t bytes = sizeof(core::ExecutionPlan) +
                        plan.insp.capacity() *
                            sizeof(inspector::InspectorResult);
  for (const inspector::InspectorResult& insp : plan.insp)
    bytes += insp.phases.capacity() * sizeof(inspector::PhaseSchedule);
  return bytes;
}

TEST(PlanStore, LoadedPlanIsChargedOnce) {
  // byte_size is what the PlanCache charges against its budget. A loaded
  // plan's arrays are views of its file, so it may exceed the file size
  // only by the struct headers; a built plan holds each phase's
  // redirected indirection once, num_refs x iterations entries.
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({30000, 120000, 5}));
  const core::PlanOptions opt = plan_opts();
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);

  std::uint64_t other_bytes = header_bytes(plan) +
                              plan.perm.footprint_bytes() +
                              plan.perm_inv.footprint_bytes();
  std::uint64_t indir_entries = 0;
  for (const inspector::InspectorResult& insp : plan.insp) {
    other_bytes += insp.assigned_phase.footprint_bytes() +
                   insp.slot_elem.footprint_bytes() +
                   insp.free_slots.footprint_bytes();
    for (const inspector::PhaseSchedule& ph : insp.phases) {
      other_bytes += ph.iter_global.footprint_bytes() +
                     ph.iter_local.footprint_bytes() +
                     ph.copy_dst.footprint_bytes() +
                     ph.copy_src.footprint_bytes();
      indir_entries += plan.shape.num_refs * ph.iter_global.size();
    }
  }
  const std::uint64_t indir_bytes = plan.byte_size() - other_bytes;
  const std::uint64_t exact = indir_entries * sizeof(std::uint32_t);
  EXPECT_GE(indir_bytes, exact);
  EXPECT_LE(indir_bytes, exact + exact / 4) << "capacity slack over 25%";

  const test::ScratchDir scratch;
  const PlanStore store(scratch.str());
  const PlanKey key = make_plan_key(kernel, opt);
  std::string error;
  ASSERT_TRUE(store.save(key, plan, &error)) << error;
  const core::PlanLoadResult r = store.load(key);
  ASSERT_TRUE(r.ok()) << r.error_code << ": " << r.detail;
  ASSERT_TRUE(r.zero_copy);
  const std::uint64_t file_bytes = fs::file_size(store.path_for(key));
  EXPECT_LE(r.plan->byte_size(), file_bytes + header_bytes(*r.plan))
      << "file " << file_bytes << " bytes";
}

TEST(PlanStore, LayoutPlanRoundTripsPermutationArrays) {
  // Format v2: a layout plan's permutation and inverse ride the payload
  // right after build_seconds; the header carries the layout kinds and
  // tile size. The round trip must preserve all of it bit for bit, and
  // the layout key must fork the file path so a layout=none plan can
  // never alias it.
  const auto kernel = make_kernel();
  core::PlanOptions opt = plan_opts();
  opt.layout = core::LayoutKind::Rcm;
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);
  ASSERT_FALSE(plan.perm.empty());
  ASSERT_EQ(plan.perm.size(), plan.perm_inv.size());
  ASSERT_EQ(plan.applied_layout, core::LayoutKind::Rcm);
  ASSERT_GT(plan.tile_iters, 0u);

  const test::ScratchDir scratch;
  const PlanStore store(scratch.str());
  const PlanKey key = make_plan_key(kernel, opt);
  EXPECT_EQ(key.layout, core::LayoutKind::Rcm);
  EXPECT_NE(store.path_for(key).find("-rcm"), std::string::npos)
      << store.path_for(key);
  PlanKey none_key = key;
  none_key.layout = core::LayoutKind::None;
  EXPECT_NE(store.path_for(key), store.path_for(none_key));

  std::string error;
  ASSERT_TRUE(store.save(key, plan, &error)) << error;
  const core::PlanLoadResult r = store.load(key);
  ASSERT_TRUE(r.ok()) << r.error_code << ": " << r.detail;
  EXPECT_TRUE(core::plans_bit_identical(*r.plan, plan));
  EXPECT_TRUE(r.plan->perm == plan.perm);
  EXPECT_TRUE(r.plan->perm_inv == plan.perm_inv);
  EXPECT_EQ(r.plan->applied_layout, plan.applied_layout);
  EXPECT_EQ(r.plan->tile_iters, plan.tile_iters);
  EXPECT_EQ(r.plan->options.layout, core::LayoutKind::Rcm);

  // And the header alone reports the layout identity.
  std::string code, detail;
  const auto header =
      core::read_plan_header(store.path_for(key), &code, &detail);
  ASSERT_TRUE(header.has_value()) << code << ": " << detail;
  EXPECT_EQ(header->layout,
            static_cast<std::uint32_t>(core::LayoutKind::Rcm));
  EXPECT_EQ(header->applied_layout,
            static_cast<std::uint32_t>(core::LayoutKind::Rcm));
  EXPECT_EQ(header->tile_iters, plan.tile_iters);
}

TEST(PlanStore, BrokenPermutationIsPermError) {
  // A perm defect inserted *before* serialization leaves the checksum
  // valid, so only the structural validation can catch it — and it must
  // answer with the dedicated E-STORE-PERM code, never a crash.
  const auto kernel = make_kernel();
  core::PlanOptions opt = plan_opts();
  opt.layout = core::LayoutKind::Rcm;
  const test::ScratchDir scratch;
  const PlanStore store(scratch.str());
  const PlanKey key = make_plan_key(kernel, opt);

  const auto expect_perm_error = [&](core::ExecutionPlan&& bad) {
    ASSERT_TRUE(store.save(key, bad));
    const core::PlanLoadResult r = store.load(key);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error_code, "E-STORE-PERM") << r.detail;
    EXPECT_EQ(r.plan, nullptr);
  };

  {  // not a bijection: two nodes map to one slot
    core::ExecutionPlan bad = core::build_execution_plan(kernel, opt);
    ASSERT_FALSE(bad.perm.empty());
    std::vector<std::uint32_t> p(bad.perm.data(),
                                 bad.perm.data() + bad.perm.size());
    p.at(0) = p.at(1);
    bad.perm = inspector::U32Buf(std::move(p));
    expect_perm_error(std::move(bad));
  }
  {  // truncated: perm shorter than the node count
    core::ExecutionPlan bad = core::build_execution_plan(kernel, opt);
    std::vector<std::uint32_t> p(bad.perm.data(),
                                 bad.perm.data() + bad.perm.size() - 1);
    bad.perm = inspector::U32Buf(std::move(p));
    expect_perm_error(std::move(bad));
  }
}

TEST(PlanStore, MissingKeyIsOpenError) {
  const test::ScratchDir scratch;
  const PlanStore store(scratch.str());
  const auto kernel = make_kernel();
  const core::PlanLoadResult r =
      store.load(make_plan_key(kernel, plan_opts()));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_code, "E-STORE-OPEN");
}

// Every corruption class must be a distinct coded rejection — never an
// exception, never a plan.
TEST(PlanStore, CorruptionClassesAreCodedRejections) {
  const auto kernel = make_kernel();
  const core::PlanOptions opt = plan_opts();
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, opt);
  const test::ScratchDir scratch;
  const PlanStore store(scratch.str());
  const PlanKey key = make_plan_key(kernel, opt);
  ASSERT_TRUE(store.save(key, plan));
  const std::string path = store.path_for(key);
  const std::vector<std::byte> good = read_file(path);
  ASSERT_GE(good.size(), core::kPlanHeaderBytes);

  const auto expect_code = [&](const std::string& code) {
    const core::PlanLoadResult r = store.load(key);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error_code, code) << r.detail;
    EXPECT_EQ(r.plan, nullptr);
    write_file(path, good);  // restore for the next case
  };

  // Truncated mid-payload.
  write_file(path, std::span(good).first(good.size() / 2));
  expect_code("E-STORE-TRUNC");

  // Truncated inside the header.
  write_file(path, std::span(good).first(32));
  expect_code("E-STORE-TRUNC");

  // Bad magic.
  {
    auto bad = good;
    bad[0] ^= std::byte{0xff};
    write_file(path, bad);
    expect_code("E-STORE-MAGIC");
  }

  // Unknown format version (offset 8: u32 format_version).
  {
    auto bad = good;
    bad[8] = std::byte{0x7f};
    write_file(path, bad);
    expect_code("E-STORE-VERSION");
  }

  // Foreign endianness (offset 12: u32 endian_tag). A little-endian
  // producer writes 04 03 02 01; a big-endian one writes the reverse.
  {
    auto bad = good;
    bad[12] = std::byte{0x01};
    bad[13] = std::byte{0x02};
    bad[14] = std::byte{0x03};
    bad[15] = std::byte{0x04};
    write_file(path, bad);
    expect_code("E-STORE-ENDIAN");
  }

  // Different verifier fingerprint (offset 16: u64).
  {
    auto bad = good;
    bad[16] ^= std::byte{0x01};
    write_file(path, bad);
    expect_code("E-STORE-VERIFIER");
  }

  // Payload bit-flip -> checksum mismatch (regardless of whether the
  // flipped bit would still parse or verify).
  {
    auto bad = good;
    bad[core::kPlanHeaderBytes + bad.size() / 3] ^= std::byte{0x10};
    write_file(path, bad);
    expect_code("E-STORE-CHECKSUM");
  }

  // Wrong identity: a valid file for a *different* kernel placed at this
  // key's path must be rejected before its payload is even parsed.
  {
    const auto other = make_kernel(99);
    const core::ExecutionPlan other_plan =
        core::build_execution_plan(other, opt);
    const PlanKey other_key = make_plan_key(other, opt);
    ASSERT_NE(other_key.content_hash, key.content_hash);
    write_file(path,
               core::serialize_plan(other_plan, other_key.content_hash));
    expect_code("E-STORE-KEY");
  }

  // After every restoration the original still loads.
  const core::PlanLoadResult ok = store.load(key);
  ASSERT_TRUE(ok.ok()) << ok.error_code;
  EXPECT_TRUE(core::plans_bit_identical(*ok.plan, plan));
}

// The committed corpus: every file under examples/plans/bad/ must be
// rejected with exactly the code its name declares (<code>-*.plan ->
// E-STORE-<CODE>), proving the corpus stays in sync with the decoder.
TEST(PlanStore, CommittedCorruptionCorpusIsRejected) {
  const fs::path dir =
      fs::path(EARTHRED_SOURCE_DIR) / "examples" / "plans" / "bad";
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".plan") continue;
    ++seen;
    const std::string stem = entry.path().stem().string();
    std::string code = stem.substr(0, stem.find('-'));
    for (char& c : code) c = static_cast<char>(std::toupper(c));
    const std::string expected = "E-STORE-" + code;
    const core::PlanLoadResult r =
        core::load_plan_file(entry.path().string());
    EXPECT_FALSE(r.ok()) << entry.path();
    EXPECT_EQ(r.error_code, expected) << entry.path() << ": " << r.detail;
    EXPECT_EQ(r.plan, nullptr) << entry.path();
  }
  EXPECT_GE(seen, 5u) << "corpus went missing from " << dir;
}

// The corpus's identity-mismatch case needs the store's key check: the
// keystore/ subdirectory holds a structurally valid plan filed under the
// all-zero content hash it does not have.
TEST(PlanStore, CommittedKeyMismatchCorpusIsRejected) {
  const std::string dir = (fs::path(EARTHRED_SOURCE_DIR) / "examples" /
                           "plans" / "bad" / "keystore")
                              .string();
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  const PlanStore store(dir);
  PlanKey key;
  key.content_hash = 0;
  key.num_procs = 4;
  key.k = 2;
  key.distribution = inspector::Distribution::Cyclic;
  key.block_cyclic_size = 16;
  ASSERT_TRUE(fs::exists(store.path_for(key))) << store.path_for(key);
  const core::PlanLoadResult r = store.load(key);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_code, "E-STORE-KEY") << r.detail;
}

TEST(PlanCacheStore, WarmProcessServesFromDiskAndFallsBackOnCorruption) {
  const auto kernel = make_kernel();
  const core::PlanOptions opt = plan_opts();
  const test::ScratchDir scratch;

  PlanKey key;
  // Process 1: cold build, persisted on the way out.
  {
    PlanCache::Config cfg;
    cfg.store = std::make_shared<PlanStore>(scratch.str());
    PlanCache cache(cfg);
    PlanCache::Outcome how{};
    const PlanPtr p = cache.lookup_or_build(kernel, opt, {}, &how);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(how, PlanCache::Outcome::Built);
    EXPECT_EQ(cache.counters().persisted, 1u);
    key = make_plan_key(kernel, opt);
    EXPECT_TRUE(fs::exists(cfg.store->path_for(key)));
  }

  // Process 2 (fresh cache, same store): served by a zero-copy load.
  {
    PlanCache::Config cfg;
    cfg.store = std::make_shared<PlanStore>(scratch.str());
    PlanCache cache(cfg);
    PlanCache::Outcome how{};
    const PlanPtr p = cache.lookup_or_build(kernel, opt, {}, &how);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(how, PlanCache::Outcome::DiskLoaded);
    EXPECT_EQ(cache.counters().disk_hits, 1u);
    EXPECT_EQ(cache.counters().disk_fallbacks, 0u);
    // Second request hits memory, not disk.
    const PlanPtr p2 = cache.lookup_or_build(kernel, opt, {}, &how);
    EXPECT_EQ(p2.get(), p.get());
    EXPECT_EQ(how, PlanCache::Outcome::Hit);
  }

  // Process 3: the stored file is corrupt -> counted fallback to a
  // rebuild; the client still gets a working plan and no error.
  {
    const PlanStore store(scratch.str());
    const std::string path = store.path_for(key);
    auto bytes = read_file(path);
    bytes[core::kPlanHeaderBytes + 17] ^= std::byte{0x04};
    write_file(path, bytes);

    PlanCache::Config cfg;
    cfg.store = std::make_shared<PlanStore>(scratch.str());
    PlanCache cache(cfg);
    PlanCache::Outcome how{};
    const PlanPtr p = cache.lookup_or_build(kernel, opt, {}, &how);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(how, PlanCache::Outcome::Built);
    EXPECT_EQ(cache.counters().disk_fallbacks, 1u);
    EXPECT_NE(cache.last_fallback_reason().find("E-STORE-"),
              std::string::npos)
        << cache.last_fallback_reason();
  }
}

}  // namespace
}  // namespace earthred::service

// Serialization of ExecutionPlans for the persistent plan store.
//
// One file per plan: a 112-byte little-endian header followed by a flat
// payload (docs/architecture.md section 11):
//
//   offset  field
//        0  u64 magic                 "ERPLAN01"
//        8  u32 format_version        kPlanFormatVersion
//       12  u32 endian_tag            0x01020304 as the producer wrote it
//       16  u64 verifier_fingerprint  inspector::kPlanVerifierFingerprint
//       24  u64 content_hash          kernel_fingerprint of the mesh
//       32  u32 num_procs, k, distribution, block_cyclic_size,
//           dedup_buffers
//       52  u32 num_nodes
//       56  u64 num_edges
//       64  u32 num_refs, num_reduction_arrays, num_node_read_arrays,
//           strategy (requested StrategyKind; 0 == Auto, which is also
//           what pre-strategy files wrote as their reserved field)
//       80  u64 payload_bytes
//       88  u64 payload_checksum      support::fast_hash64 of the payload
//       96  u32 layout (requested LayoutKind), applied_layout,
//           tile_iters, pad          (new in format v2)
//
// The payload serializes build_seconds, the layout permutation and its
// inverse (empty arrays when the plan carries no renumbering), then each
// processor's inspector output, every u32 array as a count +
// 8-byte-aligned data — the
// alignment that lets load_plan_file adopt the arrays as views into the
// file's memory mapping (zero-copy warm start; the mapping's lifetime is
// held by ExecutionPlan::storage). A phase's redirected indirection is
// its one ref-major block (PhaseSchedule::indir_flat), stored and adopted
// as is; PhaseSchedule::row(r) reads reference r's slice of it.
//
// Trust model: disk is untrusted input. A load is admitted only after
// header identity (magic/endian/version/verifier), the payload checksum,
// a bounds-checked structural parse against the header counts, and a
// budget-mode verify_plan() pass. Every failure is a coded E-STORE-*
// result, never an exception:
//
//   E-STORE-OPEN      file missing or unreadable (simply "not stored")
//   E-STORE-TRUNC     shorter than the header, or than payload_bytes
//   E-STORE-MAGIC     not a plan file
//   E-STORE-ENDIAN    written by a foreign-endian producer
//   E-STORE-VERSION   format_version != kPlanFormatVersion (no
//                     cross-version reads: plans are always rebuildable)
//   E-STORE-VERIFIER  persisted under a different invariant set
//   E-STORE-CHECKSUM  payload hash mismatch (reported in preference to
//                     parse/verify failures: corruption names its cause)
//   E-STORE-PARSE     structurally inconsistent with the header counts
//   E-STORE-PERM      layout permutation is truncated or not a bijection
//   E-STORE-VERIFY    parsed, but failed the budget-mode plan verifier
//   E-STORE-KEY       (PlanStore::load) header identity does not match
//                     the requested key
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/native_engine.hpp"

namespace earthred::core {

inline constexpr std::uint64_t kPlanMagic = 0x31304e414c505245ull;  // "ERPLAN01"
/// v2 (layout): header grew 96 -> 112 bytes (layout kinds + tile size at
/// offset 96) and the payload gained the permutation arrays right after
/// build_seconds. v3 (one slot numbering per plan): processor p's buffer
/// slots follow those of processors 0..p-1, so the executor can lay them
/// into one shared reduction array; each processor record stores its
/// first slot in what was a pad word. No cross-version reads — plans are
/// always rebuildable.
inline constexpr std::uint32_t kPlanFormatVersion = 3;
inline constexpr std::uint32_t kPlanEndianTag = 0x01020304u;
inline constexpr std::size_t kPlanHeaderBytes = 112;

/// Decoded fixed header of a plan file (everything before the payload).
struct PlanFileHeader {
  std::uint32_t format_version = kPlanFormatVersion;
  std::uint64_t verifier_fingerprint = 0;
  std::uint64_t content_hash = 0;
  std::uint32_t num_procs = 0;
  std::uint32_t k = 0;
  std::uint32_t distribution = 0;  ///< inspector::Distribution as u32
  std::uint32_t block_cyclic_size = 0;
  std::uint32_t dedup_buffers = 0;
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint32_t num_refs = 0;
  std::uint32_t num_reduction_arrays = 0;
  std::uint32_t num_node_read_arrays = 0;
  /// Requested StrategyKind as u32 (0 == Auto; pre-strategy files wrote
  /// a zero reserved field here, which decodes as Auto unchanged).
  std::uint32_t strategy = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
  /// Requested LayoutKind as u32 (0 == None).
  std::uint32_t layout = 0;
  /// LayoutKind the build actually applied (never Auto).
  std::uint32_t applied_layout = 0;
  /// Cache-blocking tile size (0 = untiled).
  std::uint32_t tile_iters = 0;
};

/// Outcome of load_plan_file / PlanStore::load: either a validated plan
/// or a coded rejection. Never both.
struct PlanLoadResult {
  std::shared_ptr<const ExecutionPlan> plan;
  /// True when the plan's arrays are views into the file mapping (false
  /// on the read(2) fallback of filesystems without mmap).
  bool zero_copy = false;
  std::string error_code;  ///< E-STORE-* when plan is null
  std::string detail;
  bool ok() const { return plan != nullptr; }
};

/// Serializes `plan` (header + payload) for `content_hash`. The plan must
/// be canonical (it is: build_execution_plan and patch_execution_plan
/// both produce canonical plans).
std::vector<std::byte> serialize_plan(const ExecutionPlan& plan,
                                      std::uint64_t content_hash);

/// Reads and validates only the 112-byte header — the cheap identity check
/// PlanStore::load and `plan ls` run before trusting a payload. Returns
/// nullopt with `code`/`detail` set on any header-level rejection.
std::optional<PlanFileHeader> read_plan_header(const std::string& path,
                                               std::string* code = nullptr,
                                               std::string* detail = nullptr);

/// The full untrusted-input chain: mmap, header identity, payload
/// checksum (overlapped on a helper thread with the structural parse),
/// bounds-checked parse, budget-mode verifier. On success the plan's
/// large arrays are zero-copy views into the mapping.
PlanLoadResult load_plan_file(const std::string& path);

/// Deep structural equality of two plans: shape, plan-key options,
/// schedule parameters, and every inspector array. build_seconds and the
/// storage backing are excluded — "the same plan" means the executors
/// would do bit-identical work, not that the objects share provenance.
bool plans_bit_identical(const ExecutionPlan& a, const ExecutionPlan& b);

}  // namespace earthred::core

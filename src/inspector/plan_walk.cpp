#include "inspector/plan_walk.hpp"

namespace earthred::inspector {

namespace {

/// Heap bytes one buffer pins: owned capacity (the allocation, not the
/// size), or the viewed extent for buffers adopted from a plan-store
/// mapping — what the cache budget must see. Container headers are
/// accounted by the enclosing struct's sizeof, never here.
std::uint64_t vec_bytes(const U32Buf& v) { return v.footprint_bytes(); }

}  // namespace

PlanWalkStats walk_inspector(const InspectorResult& insp,
                             std::uint32_t num_elements) {
  PlanWalkStats stats;
  for_each_phase(insp, [&](std::uint32_t, const PhaseSchedule& phase) {
    stats.iterations += phase.iter_global.size();
    for (const std::uint32_t v : phase.indir_flat) {
      if (v < num_elements)
        ++stats.direct_refs;
      else
        ++stats.deferred_refs;
    }
    stats.fold_entries += phase.copy_dst.size();
  });
  stats.bytes = inspector_byte_size(insp);
  return stats;
}

std::uint64_t inspector_byte_size(const InspectorResult& insp) {
  std::uint64_t bytes = vec_bytes(insp.assigned_phase) +
                        vec_bytes(insp.slot_elem) +
                        vec_bytes(insp.free_slots);
  bytes += insp.phases.capacity() * sizeof(PhaseSchedule);
  for_each_phase(insp, [&](std::uint32_t, const PhaseSchedule& ph) {
    bytes += vec_bytes(ph.iter_global) + vec_bytes(ph.iter_local) +
             vec_bytes(ph.indir_flat) + vec_bytes(ph.copy_dst) +
             vec_bytes(ph.copy_src);
  });
  return bytes;
}

}  // namespace earthred::inspector

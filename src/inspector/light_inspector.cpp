#include "inspector/light_inspector.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "support/check.hpp"

namespace earthred::inspector {

std::vector<std::uint64_t> InspectorResult::phase_sizes() const {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(phases.size());
  for (const PhaseSchedule& p : phases) sizes.push_back(p.iter_global.size());
  return sizes;
}

std::uint64_t InspectorResult::total_deferred() const {
  std::uint64_t n = 0;
  for (const PhaseSchedule& p : phases) n += p.copy_dst.size();
  return n;
}

namespace {

void check_refs(const RotationSchedule& sched, const IterationRefs& iters) {
  ER_EXPECTS_MSG(!iters.refs.empty(), "at least one indirection reference");
  for (const auto& row : iters.refs) {
    ER_EXPECTS_MSG(row.size() == iters.num_iterations(),
                   "ragged indirection reference rows");
    for (std::uint32_t e : row)
      ER_EXPECTS_MSG(e < sched.num_elements(),
                     "indirection value out of range");
  }
}

/// Shared slot allocator for the full and incremental paths. Slot ids
/// count from result.first_slot.
class SlotAllocator {
 public:
  SlotAllocator(InspectorResult& result, const RotationSchedule& sched,
                std::uint32_t proc, bool dedup)
      : result_(result),
        sched_(sched),
        proc_(proc),
        dedup_(dedup),
        slot0_(sched.num_elements() + result.first_slot) {}

  /// Returns the redirected index (num_elements + first_slot + slot) for
  /// a reference to `elem` that is owned only in a later phase, adding
  /// the second-loop copy entry in `elem`'s owning phase when a new slot
  /// is created.
  std::uint32_t defer(std::uint32_t elem) {
    if (dedup_) {
      const auto it = dedup_map_.find(elem);
      if (it != dedup_map_.end()) return slot0_ + it->second;
    }
    std::uint32_t slot;
    if (!result_.free_slots.empty()) {
      slot = result_.free_slots.back();
      result_.free_slots.pop_back();
      result_.slot_elem[slot] = elem;
    } else {
      slot = result_.num_buffer_slots++;
      result_.slot_elem.push_back(elem);
    }
    if (dedup_) dedup_map_.emplace(elem, slot);
    const std::uint32_t fold_phase =
        sched_.owning_phase(proc_, sched_.portion_of(elem));
    result_.phases[fold_phase].copy_dst.push_back(elem);
    result_.phases[fold_phase].copy_src.push_back(slot0_ + slot);
    return slot0_ + slot;
  }

 private:
  InspectorResult& result_;
  const RotationSchedule& sched_;
  std::uint32_t proc_;
  bool dedup_;
  std::uint32_t slot0_;
  std::unordered_map<std::uint32_t, std::uint32_t> dedup_map_;
};

/// Earliest phase in which `proc` owns one of the referenced elements.
template <typename RefAt>
std::uint32_t earliest_phase(const RotationSchedule& sched, std::uint32_t proc,
                             std::size_t nrefs, RefAt ref_at) {
  std::uint32_t assigned = sched.phases_per_sweep();
  for (std::size_t r = 0; r < nrefs; ++r)
    assigned = std::min(
        assigned, sched.owning_phase(proc, sched.portion_of(ref_at(r))));
  return assigned;
}

/// num_elements + first_slot + num_buffer_slots, refusing ids past 32 bits.
std::uint64_t array_size(const RotationSchedule& sched,
                         const InspectorResult& result) {
  const std::uint64_t size = static_cast<std::uint64_t>(sched.num_elements()) +
                             result.first_slot + result.num_buffer_slots;
  ER_CHECK_MSG(size <= std::uint64_t{1} << 32,
               "buffer slot indices overflow 32 bits");
  return size;
}

/// `insp` with its buffer slots moved to start at `first_slot`, built in
/// the one pass that copying it takes anyway: every slot index in the
/// indirection blocks and fold sources shifts by the same amount, and the
/// slot-relative tables are copied as they are.
InspectorResult with_first_slot(const RotationSchedule& sched,
                                const InspectorResult& insp,
                                std::uint32_t first_slot) {
  const std::uint32_t n_elems = sched.num_elements();
  const std::uint32_t delta = first_slot - insp.first_slot;  // mod 2^32
  const auto shifted = [&](const U32Buf& in) {
    std::vector<std::uint32_t> out(in.size());
    const std::uint32_t* v = in.data();
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = v[i] + (v[i] >= n_elems ? delta : 0u);
    return U32Buf(std::move(out));
  };
  InspectorResult out;
  out.phases.resize(insp.phases.size());
  for (std::size_t ph = 0; ph < insp.phases.size(); ++ph) {
    const PhaseSchedule& from = insp.phases[ph];
    PhaseSchedule& to = out.phases[ph];
    to.iter_global = from.iter_global;
    to.iter_local = from.iter_local;
    to.indir_flat = shifted(from.indir_flat);
    to.copy_dst = from.copy_dst;
    to.copy_src = shifted(from.copy_src);
  }
  out.num_buffer_slots = insp.num_buffer_slots;
  out.first_slot = first_slot;
  out.local_array_size = array_size(sched, out);
  out.assigned_phase = insp.assigned_phase;
  out.slot_elem = insp.slot_elem;
  out.free_slots = insp.free_slots;
  return out;
}

/// Reference count of a result, read off any non-empty phase (an empty
/// phase's block does not carry it); 0 when no phase holds an iteration.
std::size_t num_refs_of(const InspectorResult& result) {
  for (const PhaseSchedule& p : result.phases)
    if (!p.iter_global.empty())
      return p.indir_flat.size() / p.iter_global.size();
  return 0;
}

}  // namespace

InspectorResult run_light_inspector(const RotationSchedule& sched,
                                    std::uint32_t proc,
                                    const IterationRefs& iters,
                                    const LightInspectorOptions& opt,
                                    std::uint32_t first_slot) {
  ER_EXPECTS(proc < sched.num_procs());
  check_refs(sched, iters);
  const std::size_t nrefs = iters.num_refs();
  const std::size_t n_iters = iters.num_iterations();

  InspectorResult result;
  result.first_slot = first_slot;
  result.phases.resize(sched.phases_per_sweep());
  result.assigned_phase.resize(n_iters);

  // Step 1 (per iteration): the earliest owning phase over all
  // references, counted per phase so each phase's arrays are sized once.
  std::span<std::uint32_t> assigned = result.assigned_phase.mutate();
  std::vector<std::size_t> count(result.phases.size(), 0);
  for (std::size_t i = 0; i < n_iters; ++i) {
    assigned[i] = earliest_phase(sched, proc, nrefs, [&](std::size_t r) {
      return iters.refs[r][i];
    });
    ++count[assigned[i]];
  }
  struct Fill {
    std::span<std::uint32_t> glob, local, indir;
    std::size_t n = 0, next = 0;
  };
  std::vector<Fill> fill(result.phases.size());
  for (std::size_t ph = 0; ph < result.phases.size(); ++ph) {
    PhaseSchedule& phase = result.phases[ph];
    phase.iter_global.resize(count[ph]);
    phase.iter_local.resize(count[ph]);
    phase.indir_flat.resize(nrefs * count[ph]);
    fill[ph] = {phase.iter_global.mutate(), phase.iter_local.mutate(),
                phase.indir_flat.mutate(), count[ph], 0};
  }

  // Step 2: append each iteration, in local order, to its phase with
  // redirected references. Slots are allocated in (iteration, reference)
  // order, which is what makes a fresh result canonical.
  SlotAllocator slots(result, sched, proc, opt.dedup_buffers);
  for (std::uint32_t i = 0; i < n_iters; ++i) {
    Fill& f = fill[assigned[i]];
    const std::size_t j = f.next++;
    f.glob[j] = iters.global_iter[i];
    f.local[j] = i;
    for (std::size_t r = 0; r < nrefs; ++r) {
      const std::uint32_t elem = iters.refs[r][i];
      const std::uint32_t ph = sched.owning_phase(proc, sched.portion_of(elem));
      f.indir[r * f.n + j] = ph == assigned[i] ? elem : slots.defer(elem);
    }
  }

  result.local_array_size = array_size(sched, result);
  return result;
}

// The sparse incremental update. The cost model is what justifies its
// existence (bench_plan_store gates patch >= 2x faster than a rebuild),
// so the implementation leans hard on one structural fact: the base
// result is CANONICAL — the fresh inspector (without dedup) allocates one
// buffer slot per deferred reference in (local iteration, ref slot)
// lexicographic order, so a slot id IS the rank of its deferred reference
// in that order, and slot ids increase with position. Removing the
// changed iterations and re-inserting them therefore renumbers the
// surviving slots by a piecewise-constant shift that can be derived from
// the freed slots and the re-inserted references alone, via one merge
// over the slot list — no full re-ranking of every reference. The only
// O(total refs) work left is two branch-light sweeps of the resident
// blocks: a redirect count (to position the changed iterations among the
// survivors) and the redirect rewrite itself, which also moves the slot
// range to `first_slot`. Until that rewrite every slot id, old or newly
// allocated, counts from previous.first_slot.
InspectorResult update_light_inspector(const RotationSchedule& sched,
                                       std::uint32_t proc,
                                       const InspectorResult& previous,
                                       std::span<const ChangedIteration> changes,
                                       std::uint32_t first_slot,
                                       const LightInspectorOptions& opt) {
  ER_EXPECTS(proc < sched.num_procs());
  ER_EXPECTS_MSG(!opt.dedup_buffers,
                 "incremental update supports the paper's one-slot-per-"
                 "reference scheme only");
  ER_EXPECTS_MSG(previous.free_slots.empty(),
                 "base result must be canonical (a fresh run or the output "
                 "of a prior update)");
  const std::uint32_t n_elems = sched.num_elements();
  const std::uint32_t old_slot0 = n_elems + previous.first_slot;
  const std::uint32_t new_slot0 = n_elems + first_slot;
  const std::size_t n_iters = previous.assigned_phase.size();
  const std::size_t num_refs = num_refs_of(previous);
  for (std::size_t i = 0; i < changes.size(); ++i) {
    const ChangedIteration& ch = changes[i];
    ER_EXPECTS_MSG(ch.local < n_iters, "changed iteration index out of range");
    ER_EXPECTS_MSG(i == 0 || changes[i - 1].local < ch.local,
                   "changes must be sorted by local index without duplicates");
    ER_EXPECTS_MSG(ch.refs.size() == num_refs,
                   "one new reference value per reference slot");
    for (std::uint32_t v : ch.refs)
      ER_EXPECTS_MSG(v < n_elems, "indirection value out of range");
  }

  // Nothing changed: the result is exact as it is, or once its slots move.
  // U32Buf copies share adopted views, so this is cheap for loaded bases
  // and one linear copy for built ones.
  if (changes.empty())
    return first_slot == previous.first_slot
               ? previous
               : with_first_slot(sched, previous, first_slot);
  InspectorResult result = previous;

  std::vector<std::uint32_t> cl;  // sorted changed locals
  cl.reserve(changes.size());
  for (const ChangedIteration& ch : changes) cl.push_back(ch.local);

  // --- 1. Remove the changed iterations from their old phases, freeing
  // their buffer slots. Canonicity of the base means each freed slot id
  // is the old rank of that deferred reference.
  std::vector<std::uint32_t> affected;  // phases that lost iterations
  for (std::uint32_t c : cl) {
    const std::uint32_t ph = result.assigned_phase[c];
    if (std::find(affected.begin(), affected.end(), ph) == affected.end())
      affected.push_back(ph);
  }
  struct FreedSlot {
    std::uint32_t slot;
    std::uint32_t local;  // the changed iteration it belonged to
  };
  std::vector<FreedSlot> freed;
  std::vector<std::uint32_t> kept;  // surviving positions of one phase
  for (std::uint32_t ph : affected) {
    PhaseSchedule& phase = result.phases[ph];
    const std::size_t n = phase.iter_local.size();
    std::span<std::uint32_t> il = phase.iter_local.mutate();
    std::span<std::uint32_t> ig = phase.iter_global.mutate();
    std::span<std::uint32_t> blk = phase.indir_flat.mutate();
    kept.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (std::binary_search(cl.begin(), cl.end(), il[j])) {
        for (std::size_t r = 0; r < num_refs; ++r)
          if (blk[r * n + j] >= n_elems) {
            const std::uint32_t slot = blk[r * n + j] - old_slot0;
            result.free_slots.push_back(slot);
            freed.push_back({slot, il[j]});
          }
        continue;  // drop this entry
      }
      ig[kept.size()] = ig[j];
      il[kept.size()] = il[j];
      kept.push_back(static_cast<std::uint32_t>(j));
    }
    // Compact the block row by row at the new stride; every write lands
    // at or before the entry it reads, and after every entry still
    // unread, so in place is safe.
    const std::size_t w = kept.size();
    for (std::size_t r = 0; r < num_refs; ++r)
      for (std::size_t i = 0; i < w; ++i)
        blk[r * w + i] = blk[r * n + kept[i]];
    phase.iter_global.resize(w);
    phase.iter_local.resize(w);
    phase.indir_flat.resize(num_refs * w);
  }
  // The fold entries that fed the freed slots are NOT compacted here:
  // step 6 regenerates the second loop of every phase whose lists differ
  // from canonical, which necessarily includes every phase with a stale
  // entry — dropping them now would be a second pass for nothing.

  // --- 2. A[i]: number of old deferred references at positions before
  // (changes[i].local, 0) — the changed iteration's place in the old slot
  // order. Counted as surviving redirects with iter_local < local (one
  // branch-light sweep of the resident blocks) plus the freed slots of
  // earlier changed iterations.
  std::vector<std::uint32_t> A(cl.size(), 0);
  {
    std::vector<std::uint32_t> bump(cl.size() + 1, 0);
    for (const PhaseSchedule& phase : result.phases) {
      const std::uint32_t* il = phase.iter_local.data();
      for (std::size_t r = 0; r < num_refs; ++r) {
        const std::span<const std::uint32_t> row = phase.row(r);
        for (std::size_t j = 0; j < row.size(); ++j)
          if (row[j] >= n_elems)
            ++bump[static_cast<std::size_t>(
                std::upper_bound(cl.begin(), cl.end(), il[j]) - cl.begin())];
      }
    }
    std::vector<std::uint32_t> freed_per(cl.size(), 0);
    for (const FreedSlot& f : freed)
      ++freed_per[static_cast<std::size_t>(
          std::lower_bound(cl.begin(), cl.end(), f.local) - cl.begin())];
    std::uint32_t surviving = 0, freed_before = 0;
    for (std::size_t i = 0; i < cl.size(); ++i) {
      surviving += bump[i];
      A[i] = surviving + freed_before;
      freed_before += freed_per[i];
    }
  }

  // --- 3. Redirect the changed iterations' new references and pick
  // their phases. They are placed in step 5; until then their redirected
  // references live in `tail_refs` (change-major) and `tails[ph]` lists
  // the changes landing in phase ph, in ascending local order.
  SlotAllocator slots(result, sched, proc, /*dedup=*/false);
  std::vector<std::uint32_t> tail_refs(changes.size() * num_refs);
  std::vector<std::vector<std::uint32_t>> tails(result.phases.size());
  for (std::size_t i = 0; i < changes.size(); ++i) {
    const ChangedIteration& ch = changes[i];
    const std::uint32_t assigned = earliest_phase(
        sched, proc, num_refs, [&](std::size_t r) { return ch.refs[r]; });
    tails[assigned].push_back(static_cast<std::uint32_t>(i));
    for (std::size_t r = 0; r < num_refs; ++r) {
      const std::uint32_t elem = ch.refs[r];
      const std::uint32_t ph =
          sched.owning_phase(proc, sched.portion_of(elem));
      tail_refs[i * num_refs + r] =
          ph == assigned ? elem : slots.defer(elem);
    }
    result.assigned_phase[ch.local] = assigned;
  }

  // --- 4. Canonical renumbering as a merge. Surviving slots keep their
  // relative order (their ranks all shift by the same amount between two
  // consecutive change positions); each new deferred reference of change
  // i sits immediately before survivor rank A[i] - |freed below A[i]|,
  // ordered among its peers by (local, ref). One pass over the slot ids
  // yields both the final slot_elem and the temp-id -> final-id map.
  std::vector<std::uint32_t> freed_sorted;
  freed_sorted.reserve(freed.size());
  for (const FreedSlot& f : freed) freed_sorted.push_back(f.slot);
  std::sort(freed_sorted.begin(), freed_sorted.end());

  struct NewRef {
    std::uint32_t key;   // survivor rank it precedes
    std::uint32_t tmp;   // slot id the allocator handed out
    std::uint32_t elem;  // element it folds into
  };
  std::vector<NewRef> newrefs;
  for (std::size_t i = 0; i < changes.size(); ++i) {
    const std::uint32_t key =
        A[i] - static_cast<std::uint32_t>(
                   std::lower_bound(freed_sorted.begin(), freed_sorted.end(),
                                    A[i]) -
                   freed_sorted.begin());
    for (std::size_t r = 0; r < num_refs; ++r) {
      const std::uint32_t v = tail_refs[i * num_refs + r];
      if (v >= n_elems) {
        const std::uint32_t tmp = v - old_slot0;
        newrefs.push_back({key, tmp, result.slot_elem[tmp]});
      }
    }
  }

  const std::uint32_t s_old = previous.num_buffer_slots;
  // Indexed by the ids currently in the blocks: surviving old ids plus
  // whatever the allocator handed out (reused freed ids and fresh ids
  // starting at s_old).
  std::vector<std::uint32_t> slot_map(s_old + newrefs.size());
  std::vector<std::uint32_t> new_slot_elem;
  new_slot_elem.reserve(s_old - freed_sorted.size() + newrefs.size());
  {
    std::size_t ni = 0, fi = 0;
    std::uint32_t survivor_rank = 0;
    for (std::uint32_t s = 0; s < s_old; ++s) {
      if (fi < freed_sorted.size() && freed_sorted[fi] == s) {
        ++fi;
        continue;
      }
      while (ni < newrefs.size() && newrefs[ni].key <= survivor_rank) {
        slot_map[newrefs[ni].tmp] =
            static_cast<std::uint32_t>(new_slot_elem.size());
        new_slot_elem.push_back(newrefs[ni].elem);
        ++ni;
      }
      slot_map[s] = static_cast<std::uint32_t>(new_slot_elem.size());
      new_slot_elem.push_back(previous.slot_elem[s]);
      ++survivor_rank;
    }
    for (; ni < newrefs.size(); ++ni) {
      slot_map[newrefs[ni].tmp] =
          static_cast<std::uint32_t>(new_slot_elem.size());
      new_slot_elem.push_back(newrefs[ni].elem);
    }
  }

  // --- 5. Place the changed iterations in increasing-local-iteration
  // order (the fresh run's emission order). The body kept its order
  // through removal and each tail is ascending, so this is a two-pointer
  // merge that writes the phase's arrays once.
  for (std::uint32_t ph = 0; ph < tails.size(); ++ph) {
    const std::vector<std::uint32_t>& tail = tails[ph];
    if (tail.empty()) continue;
    PhaseSchedule& phase = result.phases[ph];
    const std::size_t nb = phase.iter_local.size();
    const std::size_t n = nb + tail.size();
    const std::uint32_t* bg = phase.iter_global.data();
    const std::uint32_t* bl = phase.iter_local.data();
    const std::uint32_t* bblk = phase.indir_flat.data();
    std::vector<std::uint32_t> ig(n), il(n), blk(num_refs * n);
    std::size_t b = 0, t = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (t == tail.size() || (b < nb && bl[b] < changes[tail[t]].local)) {
        ig[j] = bg[b];
        il[j] = bl[b];
        for (std::size_t r = 0; r < num_refs; ++r)
          blk[r * n + j] = bblk[r * nb + b];
        ++b;
      } else {
        const std::size_t c = tail[t++];
        ig[j] = changes[c].global;
        il[j] = changes[c].local;
        for (std::size_t r = 0; r < num_refs; ++r)
          blk[r * n + j] = tail_refs[c * num_refs + r];
      }
    }
    phase.iter_global = U32Buf(std::move(ig));
    phase.iter_local = U32Buf(std::move(il));
    phase.indir_flat = U32Buf(std::move(blk));
  }

  // --- 6. Rewrite redirects through the renumbering map, moved to the
  // new first slot. Blocks whose redirects all keep their ids are left
  // untouched — for a plan patched off a store-loaded base they stay
  // zero-copy views into the mapping.
  for (PhaseSchedule& phase : result.phases) {
    const std::uint32_t* blk = phase.indir_flat.data();
    const std::size_t len = phase.indir_flat.size();
    std::size_t j = 0;
    while (j < len &&
           !(blk[j] >= n_elems &&
             new_slot0 + slot_map[blk[j] - old_slot0] != blk[j]))
      ++j;
    if (j == len) continue;
    std::span<std::uint32_t> wblk = phase.indir_flat.mutate();
    for (; j < len; ++j)
      if (wblk[j] >= n_elems)
        wblk[j] = new_slot0 + slot_map[wblk[j] - old_slot0];
  }

  // --- 7. Regenerate the second loop in canonical slot order (the fresh
  // run appends each fold entry at allocation time, i.e. ascending slot).
  // Phases whose lists come out unchanged keep their adopted buffers.
  {
    std::vector<std::uint32_t> fold_of(new_slot_elem.size());
    std::vector<std::uint32_t> fold_count(result.phases.size(), 0);
    for (std::size_t s = 0; s < new_slot_elem.size(); ++s) {
      fold_of[s] = sched.owning_phase(proc, sched.portion_of(new_slot_elem[s]));
      ++fold_count[fold_of[s]];
    }
    std::vector<std::vector<std::uint32_t>> cd(result.phases.size());
    std::vector<std::vector<std::uint32_t>> cs(result.phases.size());
    for (std::size_t ph = 0; ph < result.phases.size(); ++ph) {
      cd[ph].reserve(fold_count[ph]);
      cs[ph].reserve(fold_count[ph]);
    }
    for (std::size_t s = 0; s < new_slot_elem.size(); ++s) {
      cd[fold_of[s]].push_back(new_slot_elem[s]);
      cs[fold_of[s]].push_back(new_slot0 + static_cast<std::uint32_t>(s));
    }
    for (std::size_t ph = 0; ph < result.phases.size(); ++ph) {
      PhaseSchedule& phase = result.phases[ph];
      if (phase.copy_dst == cd[ph] && phase.copy_src == cs[ph]) continue;
      phase.copy_dst.clear();
      phase.copy_dst.append(cd[ph]);
      phase.copy_src.clear();
      phase.copy_src.append(cs[ph]);
    }
  }

  result.num_buffer_slots = static_cast<std::uint32_t>(new_slot_elem.size());
  result.slot_elem.clear();
  result.slot_elem.append(new_slot_elem);
  result.free_slots.clear();
  result.first_slot = first_slot;
  result.local_array_size = array_size(sched, result);
  return result;
}

InspectorResult update_light_inspector(
    const RotationSchedule& sched, std::uint32_t proc,
    const IterationRefs& iters, const InspectorResult& previous,
    std::span<const std::uint32_t> changed_local,
    const LightInspectorOptions& opt) {
  check_refs(sched, iters);
  ER_EXPECTS(previous.assigned_phase.size() == iters.num_iterations());
  std::vector<std::uint32_t> cl(changed_local.begin(), changed_local.end());
  std::sort(cl.begin(), cl.end());
  cl.erase(std::unique(cl.begin(), cl.end()), cl.end());
  std::vector<ChangedIteration> changes;
  changes.reserve(cl.size());
  for (std::uint32_t c : cl) {
    ER_EXPECTS_MSG(c < iters.num_iterations(),
                   "changed iteration index out of range");
    ChangedIteration ch;
    ch.local = c;
    ch.global = iters.global_iter[c];
    ch.refs.reserve(iters.num_refs());
    for (std::size_t r = 0; r < iters.num_refs(); ++r)
      ch.refs.push_back(iters.refs[r][c]);
    changes.push_back(std::move(ch));
  }
  return update_light_inspector(sched, proc, previous, changes,
                                previous.first_slot, opt);
}

}  // namespace earthred::inspector

// Tests for the LightInspector (Sec. 3), including a Figure-3-style worked
// example, the single-reference special case, property tests of the
// schedule invariants, and equivalence of the incremental update.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "inspector/light_inspector.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace earthred::inspector {
namespace {

/// Builds two-reference iteration input from an edge list.
IterationRefs refs_from_edges(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  IterationRefs r;
  r.refs.resize(2);
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    r.global_iter.push_back(i);
    r.refs[0].push_back(edges[i].first);
    r.refs[1].push_back(edges[i].second);
  }
  return r;
}

/// Checks every structural invariant of an InspectorResult against its
/// inputs; used by unit and property tests alike.
void check_invariants(const RotationSchedule& sched, std::uint32_t proc,
                      const IterationRefs& iters,
                      const InspectorResult& result) {
  ASSERT_EQ(result.phases.size(), sched.phases_per_sweep());
  const std::uint32_t n = sched.num_elements();

  // Every local iteration appears in exactly one phase.
  std::map<std::uint32_t, int> seen;  // global iter -> count
  for (std::uint32_t ph = 0; ph < result.phases.size(); ++ph) {
    const PhaseSchedule& phase = result.phases[ph];
    ASSERT_EQ(phase.iter_global.size(), phase.iter_local.size());
    ASSERT_EQ(phase.indir_flat.size(),
              iters.num_refs() * phase.iter_global.size());
    for (std::size_t j = 0; j < phase.iter_global.size(); ++j) {
      ++seen[phase.iter_global[j]];
      const std::uint32_t local = phase.iter_local[j];
      ASSERT_LT(local, iters.num_iterations());
      EXPECT_EQ(result.assigned_phase[local], ph);
      // The assigned phase is the min owning phase over references.
      std::uint32_t min_ph = sched.phases_per_sweep();
      for (std::size_t r = 0; r < iters.num_refs(); ++r) {
        const std::uint32_t elem = iters.refs[r][local];
        min_ph = std::min(min_ph,
                          sched.owning_phase(proc, sched.portion_of(elem)));
      }
      EXPECT_EQ(min_ph, ph);
      // Each reference is either direct (and owned this phase) or a
      // redirect to an in-range buffer slot whose element matches.
      for (std::size_t r = 0; r < iters.num_refs(); ++r) {
        const std::uint32_t elem = iters.refs[r][local];
        const std::uint32_t redirected = phase.row(r)[j];
        if (redirected < n) {
          EXPECT_EQ(redirected, elem);
          EXPECT_EQ(sched.owned_portion(proc, ph), sched.portion_of(elem));
        } else {
          const std::uint32_t slot = redirected - n;
          ASSERT_LT(slot, result.num_buffer_slots);
          EXPECT_EQ(result.slot_elem[slot], elem);
          // Deferred means owned strictly later.
          EXPECT_GT(sched.owning_phase(proc, sched.portion_of(elem)), ph);
        }
      }
    }
  }
  for (std::uint32_t i = 0; i < iters.num_iterations(); ++i)
    EXPECT_EQ(seen[iters.global_iter[i]], 1) << "iteration " << i;

  // Second-loop entries: every *active* slot is folded exactly once, in
  // the phase during which its destination element is owned.
  std::set<std::uint32_t> freed(result.free_slots.begin(),
                                result.free_slots.end());
  std::map<std::uint32_t, int> folds;  // slot -> count
  for (std::uint32_t ph = 0; ph < result.phases.size(); ++ph) {
    const PhaseSchedule& phase = result.phases[ph];
    ASSERT_EQ(phase.copy_dst.size(), phase.copy_src.size());
    for (std::size_t j = 0; j < phase.copy_dst.size(); ++j) {
      const std::uint32_t dst = phase.copy_dst[j];
      const std::uint32_t src = phase.copy_src[j];
      ASSERT_GE(src, n);
      const std::uint32_t slot = src - n;
      ASSERT_LT(slot, result.num_buffer_slots);
      EXPECT_EQ(result.slot_elem[slot], dst);
      EXPECT_EQ(sched.owning_phase(proc, sched.portion_of(dst)), ph);
      EXPECT_FALSE(freed.count(slot)) << "fold of freed slot";
      ++folds[slot];
    }
  }
  for (const auto& [slot, count] : folds) EXPECT_EQ(count, 1);

  // Every slot referenced from indir has a fold (or is freed).
  std::set<std::uint32_t> referenced;
  for (const PhaseSchedule& phase : result.phases)
    for (std::uint32_t v : phase.indir_flat)
      if (v >= n) referenced.insert(v - n);
  for (std::uint32_t slot : referenced) {
    EXPECT_FALSE(freed.count(slot));
    EXPECT_TRUE(folds.count(slot)) << "referenced slot never folded";
  }
  EXPECT_EQ(result.local_array_size,
            static_cast<std::uint64_t>(n) + result.num_buffer_slots);
}

TEST(LightInspector, WorkedExampleEightNodesTwoProcs) {
  // The setting of the paper's Figure 3: 8 nodes, 2 processors, k = 2,
  // processor 0 holding 10 edges. (The paper's exact edge list is not
  // recoverable from the text; we fix one and hand-check the pivotal
  // facts the narration gives: 4 phases, 2-node portions, remote buffer
  // starting at location 8, and an edge whose second endpoint is owned in
  // phase 2 being redirected into the buffer.)
  const RotationSchedule sched(8, 2, 2);
  const auto iters = refs_from_edges({{0, 1},
                                      {2, 3},
                                      {0, 2},
                                      {4, 5},
                                      {6, 7},
                                      {1, 6},
                                      {3, 5},
                                      {7, 4},
                                      {2, 6},
                                      {0, 7}});
  const InspectorResult res = run_light_inspector(sched, 0, iters);
  check_invariants(sched, 0, iters, res);

  // Portions on P0 are owned phase == portion id: {0,1}@0, {2,3}@1,
  // {4,5}@2, {6,7}@3.
  // Edge 0 (0,1): both in phase 0 -> phase 0, both direct.
  EXPECT_EQ(res.assigned_phase[0], 0u);
  // Edge 7 (7,4): node 7 -> phase 3, node 4 -> phase 2; assigned to the
  // earlier phase 2 with node 7 deferred to a buffer location >= 8.
  EXPECT_EQ(res.assigned_phase[7], 2u);
  {
    const PhaseSchedule& ph2 = res.phases[2];
    const auto it = std::find(ph2.iter_global.begin(), ph2.iter_global.end(),
                              7u);
    ASSERT_NE(it, ph2.iter_global.end());
    const auto j = static_cast<std::size_t>(it - ph2.iter_global.begin());
    EXPECT_EQ(ph2.row(1)[j], 4u);   // owned endpoint stays direct
    EXPECT_GE(ph2.row(0)[j], 8u);   // deferred endpoint -> buffer
  }
  // The buffer extends the array: first slot is location 8 (paper: "the
  // remote buffer starts at location 8").
  EXPECT_GT(res.num_buffer_slots, 0u);
  EXPECT_EQ(res.local_array_size, 8u + res.num_buffer_slots);
}

TEST(LightInspector, SingleReferenceNeedsNoBuffers) {
  // Sec. 3: with a single distinct indirection reference, all updates
  // happen when the element is owned — no buffer, no second loop.
  const RotationSchedule sched(16, 2, 2);
  IterationRefs iters;
  iters.refs.resize(1);
  Xoshiro256 rng(4);
  for (std::uint32_t i = 0; i < 40; ++i) {
    iters.global_iter.push_back(i);
    iters.refs[0].push_back(static_cast<std::uint32_t>(rng.below(16)));
  }
  const InspectorResult res = run_light_inspector(sched, 1, iters);
  check_invariants(sched, 1, iters, res);
  EXPECT_EQ(res.num_buffer_slots, 0u);
  EXPECT_EQ(res.total_deferred(), 0u);
}

TEST(LightInspector, BothEndpointsSamePortionAreDirect) {
  const RotationSchedule sched(8, 2, 2);
  const auto iters = refs_from_edges({{4, 5}});
  const InspectorResult res = run_light_inspector(sched, 0, iters);
  EXPECT_EQ(res.num_buffer_slots, 0u);
  EXPECT_EQ(res.assigned_phase[0], 2u);
}

TEST(LightInspector, ThreeReferencesSupported) {
  // The paper: "the algorithm can be trivially extended" beyond two
  // references — verify a 3-reference loop partitions correctly.
  const RotationSchedule sched(24, 2, 2);
  IterationRefs iters;
  iters.refs.resize(3);
  Xoshiro256 rng(5);
  for (std::uint32_t i = 0; i < 60; ++i) {
    iters.global_iter.push_back(i);
    for (auto& row : iters.refs)
      row.push_back(static_cast<std::uint32_t>(rng.below(24)));
  }
  const InspectorResult res = run_light_inspector(sched, 0, iters);
  check_invariants(sched, 0, iters, res);
  EXPECT_GT(res.total_deferred(), 0u);
}

TEST(LightInspector, DedupSharesSlotsAcrossIterations) {
  const RotationSchedule sched(8, 2, 2);
  // Three edges all deferring node 6 (owned last on P0).
  const auto iters = refs_from_edges({{0, 6}, {1, 6}, {2, 6}});
  const InspectorResult plain = run_light_inspector(sched, 0, iters, {});
  const InspectorResult dedup =
      run_light_inspector(sched, 0, iters, {.dedup_buffers = true});
  check_invariants(sched, 0, iters, plain);
  check_invariants(sched, 0, iters, dedup);
  EXPECT_EQ(plain.num_buffer_slots, 3u);
  EXPECT_EQ(dedup.num_buffer_slots, 1u);
  EXPECT_EQ(plain.total_deferred(), 3u);
  EXPECT_EQ(dedup.total_deferred(), 1u);
}

TEST(LightInspector, RejectsBadInput) {
  const RotationSchedule sched(8, 2, 2);
  IterationRefs ragged;
  ragged.global_iter = {0, 1};
  ragged.refs = {{0, 1}, {2}};
  EXPECT_THROW(run_light_inspector(sched, 0, ragged), precondition_error);

  IterationRefs oob;
  oob.global_iter = {0};
  oob.refs = {{8}, {0}};
  EXPECT_THROW(run_light_inspector(sched, 0, oob), precondition_error);

  IterationRefs ok = refs_from_edges({{0, 1}});
  EXPECT_THROW(run_light_inspector(sched, 2, ok), precondition_error);
}

TEST(LightInspector, PropertyInvariantsOnRandomInputs) {
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const auto procs = static_cast<std::uint32_t>(rng.range(1, 6));
    const auto k = static_cast<std::uint32_t>(rng.range(1, 4));
    const auto n = static_cast<std::uint32_t>(
        rng.range(procs * k, procs * k * 10));
    const auto nrefs = static_cast<std::size_t>(rng.range(1, 3));
    const auto niter = static_cast<std::uint32_t>(rng.range(0, 200));
    const RotationSchedule sched(n, procs, k);
    const auto proc = static_cast<std::uint32_t>(rng.below(procs));

    IterationRefs iters;
    iters.refs.resize(nrefs);
    for (std::uint32_t i = 0; i < niter; ++i) {
      iters.global_iter.push_back(i * 3 + 1);  // arbitrary global ids
      for (auto& row : iters.refs)
        row.push_back(static_cast<std::uint32_t>(rng.below(n)));
    }
    const bool dedup = rng.chance(0.5);
    const InspectorResult res =
        run_light_inspector(sched, proc, iters, {.dedup_buffers = dedup});
    check_invariants(sched, proc, iters, res);
  }
}

// ------------------------------------------------------- incremental

/// Applies the schedule semantically: replays a sweep of X[a]+=v, X[b]+=v
/// reductions restricted to this processor and checks the result equals
/// the direct computation. This is the ground truth for incremental
/// equivalence.
std::vector<double> execute_schedule(const RotationSchedule& sched,
                                     const IterationRefs& iters,
                                     const InspectorResult& res,
                                     const std::vector<double>& edge_val) {
  std::vector<double> x(res.local_array_size, 0.0);
  for (const PhaseSchedule& phase : res.phases) {
    for (std::size_t j = 0; j < phase.iter_global.size(); ++j) {
      const std::uint32_t local = phase.iter_local[j];
      for (std::size_t r = 0; r < iters.num_refs(); ++r)
        x[phase.row(r)[j]] += edge_val[local] * (r + 1);
    }
    for (std::size_t j = 0; j < phase.copy_dst.size(); ++j) {
      x[phase.copy_dst[j]] += x[phase.copy_src[j]];
      x[phase.copy_src[j]] = 0.0;
    }
  }
  x.resize(sched.num_elements());
  (void)iters;
  return x;
}

std::vector<double> execute_reference(const RotationSchedule& sched,
                                      const IterationRefs& iters,
                                      const std::vector<double>& edge_val) {
  std::vector<double> x(sched.num_elements(), 0.0);
  for (std::uint32_t i = 0; i < iters.num_iterations(); ++i)
    for (std::size_t r = 0; r < iters.num_refs(); ++r)
      x[iters.refs[r][i]] += edge_val[i] * (r + 1);
  return x;
}

TEST(LightInspector, ScheduleExecutionMatchesReference) {
  Xoshiro256 rng(123);
  const RotationSchedule sched(32, 4, 2);
  IterationRefs iters;
  iters.refs.resize(2);
  std::vector<double> vals;
  for (std::uint32_t i = 0; i < 100; ++i) {
    iters.global_iter.push_back(i);
    iters.refs[0].push_back(static_cast<std::uint32_t>(rng.below(32)));
    iters.refs[1].push_back(static_cast<std::uint32_t>(rng.below(32)));
    vals.push_back(rng.uniform(-1, 1));
  }
  const InspectorResult res = run_light_inspector(sched, 1, iters);
  const auto got = execute_schedule(sched, iters, res, vals);
  const auto want = execute_reference(sched, iters, vals);
  for (std::size_t e = 0; e < want.size(); ++e)
    EXPECT_NEAR(got[e], want[e], 1e-12) << "element " << e;
}

TEST(LightInspector, IncrementalUpdateMatchesFullRerun) {
  Xoshiro256 rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    const auto procs = static_cast<std::uint32_t>(rng.range(1, 5));
    const auto k = static_cast<std::uint32_t>(rng.range(1, 3));
    const auto n = static_cast<std::uint32_t>(
        rng.range(procs * k * 2, procs * k * 12));
    const RotationSchedule sched(n, procs, k);
    const auto proc = static_cast<std::uint32_t>(rng.below(procs));
    const auto niter = static_cast<std::uint32_t>(rng.range(5, 120));

    IterationRefs iters;
    iters.refs.resize(2);
    std::vector<double> vals;
    for (std::uint32_t i = 0; i < niter; ++i) {
      iters.global_iter.push_back(i);
      iters.refs[0].push_back(static_cast<std::uint32_t>(rng.below(n)));
      iters.refs[1].push_back(static_cast<std::uint32_t>(rng.below(n)));
      vals.push_back(rng.uniform(-1, 1));
    }
    const InspectorResult base = run_light_inspector(sched, proc, iters);

    // Mutate a random subset of iterations' references.
    std::vector<std::uint32_t> changed;
    for (std::uint32_t i = 0; i < niter; ++i) {
      if (rng.chance(0.3)) {
        iters.refs[0][i] = static_cast<std::uint32_t>(rng.below(n));
        iters.refs[1][i] = static_cast<std::uint32_t>(rng.below(n));
        changed.push_back(i);
      }
    }
    const InspectorResult incr =
        update_light_inspector(sched, proc, iters, base, changed);
    check_invariants(sched, proc, iters, incr);

    // Semantically identical to a from-scratch run.
    const InspectorResult full = run_light_inspector(sched, proc, iters);
    const auto got = execute_schedule(sched, iters, incr, vals);
    const auto want = execute_schedule(sched, iters, full, vals);
    for (std::size_t e = 0; e < want.size(); ++e)
      ASSERT_NEAR(got[e], want[e], 1e-12)
          << "trial " << trial << " element " << e;
    EXPECT_EQ(incr.phase_sizes(), full.phase_sizes());
  }
}

TEST(LightInspector, IncrementalRejectsDedupAndBadIndices) {
  const RotationSchedule sched(8, 2, 2);
  auto iters = refs_from_edges({{0, 7}, {1, 6}});
  const InspectorResult base = run_light_inspector(sched, 0, iters);
  const std::vector<std::uint32_t> changed{0};
  EXPECT_THROW(update_light_inspector(sched, 0, iters, base, changed,
                                      {.dedup_buffers = true}),
               precondition_error);
  const std::vector<std::uint32_t> oob{9};
  EXPECT_THROW(update_light_inspector(sched, 0, iters, base, oob),
               precondition_error);
}

TEST(LightInspector, IncrementalReusesFreedSlots) {
  const RotationSchedule sched(8, 2, 2);
  auto iters = refs_from_edges({{0, 7}, {1, 6}});
  const InspectorResult base = run_light_inspector(sched, 0, iters);
  EXPECT_EQ(base.num_buffer_slots, 2u);
  // Change both edges; slots should be recycled, not grown.
  iters.refs[0] = {2, 3};
  iters.refs[1] = {7, 6};
  const InspectorResult incr = update_light_inspector(
      sched, 0, iters, base, std::vector<std::uint32_t>{0, 1});
  EXPECT_EQ(incr.num_buffer_slots, 2u);
}

}  // namespace
}  // namespace earthred::inspector

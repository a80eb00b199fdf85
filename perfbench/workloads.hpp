// The benchmark's three traffic mixes, generated from a seed.
//
// The program under test only ever sees job lines; everything a workload
// varies (mesh seeds, mutation seeds, revisit order) is drawn here from
// the --seed the benchmark is given, so one seed always yields the same
// job sequence. Every line uses the service's default knobs: no
// `strategy=`, `layout=` or `backend=` keys.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

/// One synthesized mesh: the plan identity of a job line.
struct MeshSpec {
  std::string kernel;  ///< fig1 | euler | moldyn
  std::uint32_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t seed = 0;
};

/// One job: its mesh, the work it asks for, and its line (without the
/// per-job `name=` the benchmark appends).
struct JobSpec {
  MeshSpec mesh;
  std::uint32_t procs = 2;
  std::uint32_t k = 2;
  std::uint32_t sweeps = 1;
  std::uint32_t mutate = 0;  ///< rewired edges; 0 = plain job
  std::uint64_t mutate_seed = 0;

  std::string line() const;
  /// The same job with `sweeps` replaced (plan identity unchanged).
  JobSpec with_sweeps(std::uint32_t s) const;
};

struct Workload {
  std::string name;
  std::uint32_t clients = 1;
  /// Quantile latency_tail_s reports: the highest one with at least ten
  /// samples beyond it at this workload's job count.
  double tail_quantile = 0.9;
  /// PlanCache byte budget of each shard.
  std::uint64_t cache_budget = 256ull << 20;
  /// Each shard gets a fresh PlanStore directory.
  bool plan_store = false;
  std::vector<JobSpec> warm;      ///< submitted during set-up
  std::vector<JobSpec> sequence;  ///< the timed window's jobs, in order
};

/// warm-small, plan-churn, dram-sweep.
const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`. The timed window submits a fixed
/// number of jobs, sized so the window lasts about `seconds` on the
/// reference host (see README.md); `short_mode` shrinks every mesh and
/// job count for the self-test. Throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, bool short_mode);

}  // namespace fleetbench

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/prng.hpp"

namespace fleetbench {

namespace {

const char* const kKernels[] = {"fig1", "euler", "moldyn"};

/// Jobs per second each workload's window is sized for: the measured
/// closed-loop rate on the reference host (README.md), so a window of
/// `seconds` submits the same job count on every commit.
constexpr double kWarmSmallRate = 90.0;
constexpr double kPlanChurnRate = 8.0;
constexpr double kDramSweepRate = 2.6;

std::uint32_t job_budget(double rate, double seconds) {
  return static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(rate * seconds)));
}

/// A mesh of `nodes` nodes at the workloads' common density of six edges
/// per node; only its geometry (the mesh seed) is drawn.
MeshSpec draw_mesh(earthred::Xoshiro256& rng, const std::string& kernel,
                   std::uint32_t nodes) {
  MeshSpec m;
  m.kernel = kernel;
  m.nodes = nodes;
  m.edges = 6ull * m.nodes;
  m.seed = rng() >> 1;  // job-line integers are signed
  return m;
}

JobSpec plain_job(const MeshSpec& m, std::uint32_t procs,
                  std::uint32_t sweeps) {
  JobSpec j;
  j.mesh = m;
  j.procs = procs;
  j.sweeps = sweeps;
  return j;
}

/// warm-small sweeps per kernel (fig1, euler, moldyn): each job's exec is
/// 2-5 ms on the reference host, inside one 10 ms ServeLoop poll tick
/// with room for the shared host's speed swings (README.md).
constexpr std::uint32_t kWarmSmallSweeps[] = {20, 6, 4};

// warm-small: every plan is built during set-up, so the window serves
// memory hits only, and exec is under half of the round trip: the
// front end (router relay, poll loop and its tick) is the rest. One
// client, not four: with four, the seed-dependent rendezvous split of 24
// keys over two shards moved p50 and tail latency by more than a tenth
// between seeds, and with two, each reply's wait for the other job's
// poll tick moved p50 and p95 by 7-35% between runs (README.md).
Workload warm_small(std::uint64_t seed, double seconds, bool short_mode) {
  Workload w;
  w.name = "warm-small";
  w.clients = 1;
  w.tail_quantile = 0.95;
  earthred::Xoshiro256 rng(seed ^ 0x77a2a5e11ull);
  const std::uint32_t meshes = short_mode ? 6 : 24;
  std::vector<MeshSpec> pool;
  for (std::uint32_t i = 0; i < meshes; ++i) {
    pool.push_back(draw_mesh(rng, kKernels[i % 3], short_mode ? 2000 : 20000));
    w.warm.push_back(plain_job(pool.back(), 2, 1));
  }
  // Revisit order: back-to-back seeded permutations, so every mesh is
  // served equally often and the window's shard split is the keys' split.
  const std::uint32_t jobs =
      short_mode ? 12 : job_budget(kWarmSmallRate, seconds);
  std::vector<std::uint32_t> order(meshes);
  while (w.sequence.size() < jobs) {
    for (std::uint32_t i = 0; i < meshes; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::uint32_t i : order) {
      if (w.sequence.size() == jobs) break;
      w.sequence.push_back(
          plain_job(pool[i], 2, short_mode ? 4 : kWarmSmallSweeps[i % 3]));
    }
  }
  return w;
}

// plan-churn: the write side of the plan cache. In every block of four
// jobs two introduce a new mesh (Built), one mutates a recent base
// (Patched) and one revisits a mesh old enough to have been evicted from
// a shard's undersized PlanCache (DiskLoaded); the block order is
// shuffled per block. One client: with four, which shard each
// consecutive job lands on (a property of the seed) moved throughput and
// latency by 15-17% between seeds (README.md).
Workload plan_churn(std::uint64_t seed, double seconds, bool short_mode) {
  Workload w;
  w.name = "plan-churn";
  w.clients = 1;
  w.tail_quantile = 0.85;
  w.plan_store = true;
  // Each 30k-node plan is about 6.5 MB, so a shard keeps about two.
  w.cache_budget = short_mode ? (1ull << 20) : (16ull << 20);
  earthred::Xoshiro256 rng(seed ^ 0xc4a2b7ull);
  const std::uint32_t center = short_mode ? 3000 : 30000;
  const std::uint32_t mutate = short_mode ? 30 : 300;
  // Distances (in job positions) that make a base "recent" and a mesh
  // "evicted"; scaled down with the job count in short mode.
  const std::size_t recent_min = short_mode ? 2 : 8;
  const std::size_t recent_max = short_mode ? 6 : 20;
  const std::size_t evicted_min = short_mode ? 6 : 24;

  struct Introduced {
    MeshSpec mesh;
    std::ptrdiff_t position;
  };
  std::vector<Introduced> introduced;
  const auto new_mesh = [&](std::ptrdiff_t position) {
    introduced.push_back(
        {draw_mesh(rng, kKernels[introduced.size() % 3], center), position});
    return introduced.back().mesh;
  };
  // Set-up builds the first bases, so early mutations have one to patch.
  for (int i = 0; i < 12; ++i)
    w.warm.push_back(plain_job(new_mesh(-1), 2, 1));

  enum Kind { New, Mutate, Revisit };
  std::vector<Kind> block = {New, New, Mutate, Revisit};
  const std::uint32_t jobs =
      short_mode ? 16 : job_budget(kPlanChurnRate, seconds);
  for (std::uint32_t j = 0; j < jobs; ++j) {
    if (j % 4 == 0) std::shuffle(block.begin(), block.end(), rng);
    const auto pos = static_cast<std::ptrdiff_t>(j);
    std::vector<const Introduced*> candidates;
    const Kind kind = block[j % 4];
    for (const Introduced& in : introduced) {
      const std::ptrdiff_t age = pos - in.position;
      if (kind == Mutate && age >= static_cast<std::ptrdiff_t>(recent_min) &&
          age <= static_cast<std::ptrdiff_t>(recent_max))
        candidates.push_back(&in);
      if (kind == Revisit && age >= static_cast<std::ptrdiff_t>(evicted_min))
        candidates.push_back(&in);
    }
    const std::uint32_t sweeps = 1 + static_cast<std::uint32_t>(rng.below(2));
    if (kind == New || candidates.empty()) {
      w.sequence.push_back(plain_job(new_mesh(pos), 2, sweeps));
      continue;
    }
    const MeshSpec base = candidates[rng.below(candidates.size())]->mesh;
    JobSpec job = plain_job(base, 2, sweeps);
    if (kind == Mutate) {
      job.mutate = mutate;
      job.mutate_seed = rng() >> 1;
    }
    w.sequence.push_back(job);
  }
  return w;
}

// dram-sweep: one euler mesh whose job working set is several times the
// last-level cache, one client, plan built during set-up. Rotated
// execution is nearly the whole round trip and the shard split is moot.
Workload dram_sweep(std::uint64_t seed, double seconds, bool short_mode) {
  Workload w;
  w.name = "dram-sweep";
  w.clients = 1;
  w.tail_quantile = 0.6;
  // The ~2M-node plan alone is about 250 MB; keep it resident.
  w.cache_budget = 1ull << 30;
  earthred::Xoshiro256 rng(seed ^ 0xd7a3ull);
  MeshSpec m;
  m.kernel = "euler";
  m.nodes = short_mode ? 100000 : 2000000;
  m.edges = 4ull * m.nodes;
  m.seed = rng() >> 1;
  w.warm.push_back(plain_job(m, 4, 1));
  const std::uint32_t jobs =
      short_mode ? 4 : job_budget(kDramSweepRate, seconds);
  for (std::uint32_t j = 0; j < jobs; ++j)
    w.sequence.push_back(plain_job(m, 4, short_mode ? 1 : 2));
  return w;
}

}  // namespace

std::string JobSpec::line() const {
  std::string s = "kernel=" + mesh.kernel +
                  " nodes=" + std::to_string(mesh.nodes) +
                  " edges=" + std::to_string(mesh.edges) +
                  " seed=" + std::to_string(mesh.seed) +
                  " procs=" + std::to_string(procs) +
                  " k=" + std::to_string(k) +
                  " sweeps=" + std::to_string(sweeps);
  if (mutate > 0)
    s += " mutate=" + std::to_string(mutate) +
         " mutate-seed=" + std::to_string(mutate_seed);
  return s;
}

JobSpec JobSpec::with_sweeps(std::uint32_t s) const {
  JobSpec j = *this;
  j.sweeps = s;
  return j;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"warm-small", "plan-churn",
                                                 "dram-sweep"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, bool short_mode) {
  if (name == "warm-small") return warm_small(seed, seconds, short_mode);
  if (name == "plan-churn") return plan_churn(seed, seconds, short_mode);
  if (name == "dram-sweep") return dram_sweep(seed, seconds, short_mode);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace fleetbench

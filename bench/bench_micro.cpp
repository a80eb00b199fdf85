// Substrate microbenchmarks (google-benchmark): host-side throughput of
// the building blocks the figure benches lean on — the cache model, the
// rotation-ownership algebra, the LightInspector (full and incremental),
// the classic schedule build, and EARTH machine event processing.
#include <benchmark/benchmark.h>

#include <vector>

#include "earth/cache.hpp"
#include "earth/machine.hpp"
#include "inspector/classic_inspector.hpp"
#include "inspector/light_inspector.hpp"
#include "inspector/rotation.hpp"
#include "mesh/generators.hpp"
#include "support/prng.hpp"

namespace earthred {
namespace {

void BM_CacheAccess(benchmark::State& state) {
  earth::CacheConfig cc;
  earth::CacheModel cache(cc);
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = rng.below(1 << 20);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addrs[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void BM_RotationOwnership(benchmark::State& state) {
  const inspector::RotationSchedule sched(100000, 32, 2);
  std::uint32_t e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched.owning_phase(e % 32, sched.portion_of(e % 100000)));
    ++e;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RotationOwnership);

inspector::IterationRefs random_refs(std::uint32_t n_elems,
                                     std::uint32_t n_iters,
                                     std::uint64_t seed) {
  Xoshiro256 rng(seed);
  inspector::IterationRefs refs;
  refs.refs.resize(2);
  for (std::uint32_t i = 0; i < n_iters; ++i) {
    refs.global_iter.push_back(i);
    refs.refs[0].push_back(static_cast<std::uint32_t>(rng.below(n_elems)));
    refs.refs[1].push_back(static_cast<std::uint32_t>(rng.below(n_elems)));
  }
  return refs;
}

void BM_LightInspectorFull(benchmark::State& state) {
  const auto n_iters = static_cast<std::uint32_t>(state.range(0));
  const inspector::RotationSchedule sched(10000, 16, 2);
  const auto refs = random_refs(10000, n_iters, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inspector::run_light_inspector(sched, 3, refs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * n_iters);
}
BENCHMARK(BM_LightInspectorFull)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LightInspectorIncremental(benchmark::State& state) {
  const std::uint32_t n_iters = 100000;
  const auto changed_count = static_cast<std::uint32_t>(state.range(0));
  const inspector::RotationSchedule sched(10000, 16, 2);
  auto refs = random_refs(10000, n_iters, 7);
  const auto base = inspector::run_light_inspector(sched, 3, refs);
  Xoshiro256 rng(8);
  std::vector<std::uint32_t> changed;
  for (std::uint32_t i = 0; i < changed_count; ++i) {
    const auto c = static_cast<std::uint32_t>(rng.below(n_iters));
    changed.push_back(c);
    refs.refs[0][c] = static_cast<std::uint32_t>(rng.below(10000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(inspector::update_light_inspector(
        sched, 3, refs, base, changed));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * changed_count);
}
BENCHMARK(BM_LightInspectorIncremental)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ClassicScheduleBuild(benchmark::State& state) {
  const auto n_iters = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t procs = 16;
  std::vector<inspector::IterationRefs> per_proc;
  per_proc.reserve(procs);
  for (std::uint32_t p = 0; p < procs; ++p)
    per_proc.push_back(random_refs(10000, n_iters / procs, p + 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inspector::build_classic_schedule(10000, procs, per_proc));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * n_iters);
}
BENCHMARK(BM_ClassicScheduleBuild)->Arg(16000)->Arg(160000);

void BM_MachineSyncRing(benchmark::State& state) {
  // Host cost of simulating one sync hop around a 4-node ring.
  for (auto _ : state) {
    earth::MachineConfig cfg;
    cfg.num_nodes = 4;
    earth::EarthMachine m(cfg);
    std::vector<earth::FiberId> ring;
    ring.reserve(4);
    int hops = 0;
    for (std::uint32_t n = 0; n < 4; ++n) {
      ring.push_back(
          m.add_fiber(n, 1, [&, n](earth::FiberContext& ctx) {
            if (++hops < 400) ctx.sync(ring[(n + 1) % 4]);
          }));
    }
    m.credit(ring[0]);
    benchmark::DoNotOptimize(m.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          400);
}
BENCHMARK(BM_MachineSyncRing);

// Mesh synthesis, the `mesh.generate_s` stage of a served job line: the
// paper's 2,800-node euler mesh, and the 30k-node / 180k-edge mesh that
// perfbench's plan-churn workload synthesizes for every new or mutated
// mesh.
void BM_GeometricMeshGen(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto edges = static_cast<std::uint64_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mesh::make_geometric_mesh({nodes, edges, 42}));
  }
}
BENCHMARK(BM_GeometricMeshGen)
    ->Args({2800, 17377})
    ->Args({30000, 180000})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace earthred

BENCHMARK_MAIN();

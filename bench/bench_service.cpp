// bench_service: throughput and setup-cost profile of the reduction
// service (src/service/) — the compile-once/run-many payoff of the
// paper's LightInspector made measurable.
//
// Part 1 (setup cost): for each (mesh, P, k) configuration, time the cold
// PlanCache path (distribution + per-processor inspector build) against
// the warm path (cache hit with a precomputed mesh fingerprint). The
// headline number is the cold/warm ratio — warm submissions skip the
// rebuild entirely, so the ratio is expected to be >= 10x.
//
// Part 2 (throughput): drive a JobScheduler worker pool with a stream of
// jobs cycling over the configurations, once with the cache disabled
// (byte budget 0: every job rebuilds its plan) and once enabled. Reports
// jobs/second and the ServiceStats snapshot for each mode.
//
// Part 3 (--net): the same scheduler fronted by a ServeLoop on a
// loopback socket, driven by concurrent net::Client threads — measures
// the wire path (framing, checksums, poll loop, result reaping) end to
// end. With --net-faults each client connection is wrapped in a
// FaultyStream (seeded drops / bit flips / short reads), so the number
// also covers the retry/reconnect machinery; the gate is then
// accounting, not speed: every submission must terminate with a result
// or a coded refusal, and the server must drain clean.
//
// Part 4 (--shards=N): N in-process shard ServeLoops fronted by a
// ShardRouter on loopback — the multi-process fleet topology collapsed
// into one benchmarkable process. Mixed job lines spread over several
// meshes exercise the rendezvous partitioner; the gates are accounting
// (submits == results + coded rejects at the router) and zero reroutes
// on a healthy fleet, the headline is routed jobs/second and the
// per-shard forward spread.
//
// Flags: --jobs=N (default 48), --workers=W (default 4), --sweeps=S
//        (default 4), --reps=R warm-lookup repetitions (default 32),
//        --net (run part 3), --net-clients=C (default 4), --net-faults,
//        --shards=N (run part 4 with N loopback shards),
//        --small (CI-sized: shrink counts, skip the >=10x ratio gate),
//        --json=<path> (JSONL record with the measured numbers).
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "net/client.hpp"
#include "net/stream.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"
#include "service/serve_loop.hpp"
#include "shard/endpoint_pool.hpp"
#include "shard/shard_map.hpp"
#include "shard/shard_router.hpp"
#include "support/options.hpp"

namespace earthred {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string name;
  std::shared_ptr<const core::PhasedKernel> kernel;
  std::uint64_t fingerprint = 0;
  core::PlanOptions plan{};
};

std::vector<Config> make_configs() {
  std::vector<Config> configs;
  const auto add = [&](std::string name,
                       std::shared_ptr<const core::PhasedKernel> kernel,
                       std::uint32_t P, std::uint32_t k) {
    Config c;
    c.name = std::move(name) + "/P" + std::to_string(P) + "k" +
             std::to_string(k);
    c.fingerprint = service::kernel_fingerprint(*kernel);
    c.kernel = std::move(kernel);
    c.plan.num_procs = P;
    c.plan.k = k;
    configs.push_back(std::move(c));
  };
  const auto euler = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({2000, 12000, 7}));
  const auto moldyn = std::make_shared<kernels::MoldynKernel>(
      mesh::make_moldyn_lattice({4, 2000, 0.03, 9}));
  const auto fig1 = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({1500, 9000, 11})));
  add("euler2k", euler, 4, 2);
  add("euler2k", euler, 8, 2);
  add("moldyn2k", moldyn, 4, 2);
  add("moldyn2k", moldyn, 4, 4);
  add("fig1", fig1, 4, 2);
  add("fig1", fig1, 8, 1);
  return configs;
}

struct ThroughputResult {
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  service::ServiceStats stats;
};

ThroughputResult run_throughput(const std::vector<Config>& configs,
                                std::uint32_t jobs, std::uint32_t workers,
                                std::uint32_t sweeps, bool cache_on) {
  service::JobScheduler::Config cfg;
  cfg.workers = workers;
  cfg.queue_capacity = jobs;  // admission sized to the run: nothing rejected
  cfg.cache.byte_budget = cache_on ? (256ull << 20) : 0;
  service::JobScheduler sched(cfg);

  std::vector<service::JobRequest> reqs;
  reqs.reserve(jobs);
  for (std::uint32_t j = 0; j < jobs; ++j) {
    const Config& c = configs[j % configs.size()];
    service::JobRequest r;
    r.kernel = c.kernel;
    r.name = c.name;
    r.plan = c.plan;
    r.sweeps = sweeps;
    r.fingerprint = c.fingerprint;
    reqs.push_back(std::move(r));
  }

  const auto t0 = Clock::now();
  const std::vector<service::JobHandle> handles =
      sched.submit_batch(std::move(reqs));
  ThroughputResult out;
  for (const service::JobHandle& h : handles) {
    const service::JobOutcome& o = h.wait();
    if (o.state == service::JobState::Done) ++out.done;
    else if (o.state == service::JobState::Failed) ++out.failed;
    else ++out.rejected;
  }
  out.wall_seconds = seconds_since(t0);
  out.jobs_per_second =
      out.wall_seconds > 0 ? static_cast<double>(jobs) / out.wall_seconds
                           : 0.0;
  out.stats = sched.stats();
  return out;
}

struct NetResult {
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  std::uint64_t done = 0;
  std::uint64_t coded = 0;  ///< terminated with an E-NET-*/E-JOB-* code
  net::ClientStats client;  ///< summed across client threads
  service::ServeStats serve;
  bool started = false;
};

NetResult run_net(std::uint32_t jobs, std::uint32_t workers,
                  std::uint32_t clients, std::uint32_t sweeps,
                  bool faults) {
  NetResult out;
  service::JobScheduler::Config cfg;
  cfg.workers = workers;
  cfg.queue_capacity = jobs + 16;
  cfg.cache.byte_budget = 256ull << 20;
  service::JobScheduler sched(cfg);

  service::JobLimits limits;
  limits.allow_file_io = false;  // networked submissions: no file refs
  const auto builder = std::make_shared<service::JobBuilder>(limits);
  const auto lineno = std::make_shared<std::size_t>(0);

  service::ServeConfig scfg;
  scfg.max_inflight = jobs + 16;
  if (faults) {
    // Dropped chunks leave frames incomplete; a short read timeout turns
    // them into fast coded rejects instead of 10s stalls per incident.
    scfg.read_timeout_ms = 500;
    scfg.write_timeout_ms = 1000;
  }
  service::ServeLoop loop(
      sched,
      [builder, lineno](std::string_view line) {
        return builder->build(line, ++*lineno);
      },
      scfg);
  std::string error;
  if (!loop.start(&error)) {
    std::fprintf(stderr, "bench_service: serve start failed: %s\n",
                 error.c_str());
    return out;
  }
  out.started = true;

  // One small job line reused throughout: the first submission builds the
  // kernel + plan, the rest hit the plan cache — so the measurement is
  // dominated by the wire path, which is the point.
  const std::string job_line =
      "kernel=fig1 nodes=1500 edges=9000 seed=11 procs=4 k=2 sweeps=" +
      std::to_string(sweeps) + " name=net";

  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> coded{0};
  std::mutex agg_mutex;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientConfig ccfg;
      ccfg.port = loop.port();
      // A dropped chunk stalls the attempt until this expires; keep it
      // short under faults so a retry happens in seconds, not tens.
      ccfg.request_timeout_ms = faults ? 2000 : 10000;
      ccfg.max_attempts = 6;
      ccfg.backoff_base_ms = 2;
      ccfg.backoff_cap_ms = 50;
      ccfg.jitter_seed = 0x6a11ULL + c;
      // Under injected faults the breaker must not fast-fail the run;
      // persistence is what is being measured.
      ccfg.breaker_threshold = 1000;
      if (faults) {
        ccfg.wrap_stream = [c](std::unique_ptr<net::Stream> s)
            -> std::unique_ptr<net::Stream> {
          net::ByteFaultConfig f;
          f.seed = 0xbe5eULL + 0x9e3779b9ULL * c;
          f.drop = 0.02;
          f.corrupt = 0.02;
          f.short_read = 0.10;
          return std::make_unique<net::FaultyStream>(std::move(s), f);
        };
      }
      net::Client client(ccfg);
      const std::uint32_t per =
          jobs / clients + (c < jobs % clients ? 1u : 0u);
      for (std::uint32_t j = 0; j < per; ++j) {
        const net::Client::Reply r = client.submit(job_line);
        if (r.ok() &&
            r.result.state ==
                static_cast<std::uint32_t>(service::JobState::Done)) {
          done.fetch_add(1);
        } else {
          coded.fetch_add(1);
        }
      }
      const std::lock_guard<std::mutex> lk(agg_mutex);
      const net::ClientStats& s = client.stats();
      out.client.calls += s.calls;
      out.client.attempts += s.attempts;
      out.client.retries += s.retries;
      out.client.reconnects += s.reconnects;
      out.client.transport_failures += s.transport_failures;
      out.client.breaker_fast_fails += s.breaker_fast_fails;
      out.client.breaker_trips += s.breaker_trips;
      out.client.breaker_half_open_probes += s.breaker_half_open_probes;
      out.client.breaker_closes += s.breaker_closes;
      out.client.backoff_sleeps += s.backoff_sleeps;
      out.client.backoff_ms_total += s.backoff_ms_total;
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_seconds = seconds_since(t0);
  out.done = done.load();
  out.coded = coded.load();
  out.jobs_per_second =
      out.wall_seconds > 0 ? static_cast<double>(jobs) / out.wall_seconds
                           : 0.0;
  loop.request_drain();
  loop.wait();
  sched.drain();
  out.serve = loop.stats();
  return out;
}

// ---- Part 4: multi-shard loopback fleet ---------------------------------

/// One in-process backend shard (scheduler + ServeLoop), wired the way
/// `earthred serve --listen` wires them.
struct BenchShard {
  service::JobScheduler sched;
  std::shared_ptr<service::JobBuilder> builder;
  std::unique_ptr<service::ServeLoop> loop;

  explicit BenchShard(std::uint32_t workers, std::uint32_t inflight)
      : sched([&] {
          service::JobScheduler::Config cfg;
          cfg.workers = workers;
          cfg.queue_capacity = inflight;
          cfg.cache.byte_budget = 256ull << 20;
          return cfg;
        }()) {
    service::JobLimits limits;
    limits.allow_file_io = false;
    builder = std::make_shared<service::JobBuilder>(limits);
    service::ServeConfig scfg;
    scfg.max_inflight = inflight;
    loop = std::make_unique<service::ServeLoop>(
        sched,
        [b = builder](std::string_view line) { return b->build(line, 0); },
        scfg);
  }
};

struct ShardBenchResult {
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  std::uint64_t done = 0;
  std::uint64_t coded = 0;
  std::uint64_t forwards_min = 0, forwards_max = 0;
  shard::RouterStats router;
  std::vector<shard::ShardSnapshot> shards;
  bool started = false;
};

ShardBenchResult run_sharded(std::uint32_t jobs, std::uint32_t workers,
                             std::uint32_t nshards, std::uint32_t clients,
                             std::uint32_t sweeps) {
  ShardBenchResult out;
  std::vector<std::unique_ptr<BenchShard>> shards;
  std::vector<shard::ShardEndpoint> eps;
  for (std::uint32_t i = 0; i < nshards; ++i) {
    shards.push_back(std::make_unique<BenchShard>(workers, jobs + 16));
    std::string error;
    if (!shards.back()->loop->start(&error)) {
      std::fprintf(stderr, "bench_service: shard start failed: %s\n",
                   error.c_str());
      return out;
    }
    eps.push_back({"shard-" + std::to_string(i), "127.0.0.1",
                   shards.back()->loop->port()});
  }
  shard::RouterConfig rcfg;
  rcfg.max_connections = clients + 8;
  rcfg.pool.max_inflight_per_shard = jobs + 16;
  shard::ShardRouter router{shard::ShardMap(eps), rcfg};
  std::string error;
  if (!router.start(&error)) {
    std::fprintf(stderr, "bench_service: router start failed: %s\n",
                 error.c_str());
    return out;
  }
  out.started = true;

  // Mixed lines over several meshes: distinct content keys, so the
  // rendezvous partitioner actually spreads work, and each shard's
  // PlanCache warms for its own subset only.
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i)
    lines.push_back("kernel=" + std::string(i % 2 ? "euler" : "fig1") +
                    " nodes=" + std::to_string(1000 + 150 * i) +
                    " edges=" + std::to_string(6000 + 500 * i) +
                    " seed=11 procs=4 k=2 sweeps=" +
                    std::to_string(sweeps));

  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> coded{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientConfig ccfg;
      ccfg.port = router.port();
      ccfg.jitter_seed = 0x6a11ULL + c;
      net::Client client(ccfg);
      const std::uint32_t per =
          jobs / clients + (c < jobs % clients ? 1u : 0u);
      for (std::uint32_t j = 0; j < per; ++j) {
        const net::Client::Reply r =
            client.submit(lines[(c + j) % lines.size()]);
        if (r.ok() &&
            r.result.state ==
                static_cast<std::uint32_t>(service::JobState::Done))
          done.fetch_add(1);
        else
          coded.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_seconds = seconds_since(t0);
  out.done = done.load();
  out.coded = coded.load();
  out.jobs_per_second =
      out.wall_seconds > 0 ? static_cast<double>(jobs) / out.wall_seconds
                           : 0.0;

  // Quiesce router-last; final counters are exact after wait().
  router.drain_fleet();
  router.wait();
  for (auto& s : shards) {
    s->loop->wait();
    s->sched.drain();
  }
  out.router = router.stats();
  out.shards = router.pool().snapshot();
  for (std::size_t i = 0; i < out.shards.size(); ++i) {
    const std::uint64_t f = out.shards[i].forwards;
    out.forwards_min = i == 0 ? f : std::min(out.forwards_min, f);
    out.forwards_max = std::max(out.forwards_max, f);
  }
  return out;
}

/// Prints part 4; true iff routing terminated every job, nothing was
/// rerouted on a healthy fleet, and the router accounting identity holds.
bool report_sharded(std::uint32_t jobs, std::uint32_t nshards,
                    const ShardBenchResult& r) {
  if (!r.started) return false;
  Table t("sharded fleet (" + std::to_string(nshards) +
          " loopback shards + router)");
  t.set_header({"metric", "value"});
  t.add_row({"wall s", fmt_f(r.wall_seconds, 3)});
  t.add_row({"routed jobs/s", fmt_f(r.jobs_per_second, 1)});
  t.add_row({"done", std::to_string(r.done)});
  t.add_row({"coded refusals", std::to_string(r.coded)});
  t.add_row({"reroutes", std::to_string(r.router.reroutes)});
  t.add_row({"forward spread (min/max per shard)",
             std::to_string(r.forwards_min) + " / " +
                 std::to_string(r.forwards_max)});
  for (const shard::ShardSnapshot& s : r.shards)
    t.add_row({"  " + s.name + " forwards / p95 ms",
               std::to_string(s.forwards) + " / " + fmt_f(s.p95_ms, 2)});
  t.print(std::cout);
  const bool accounted =
      r.done + r.coded == jobs &&
      r.router.submits == r.router.results_sent + r.router.submit_rejects;
  const bool no_reroutes = r.router.reroutes == 0;
  std::printf(
      "shard accounting: %llu done + %llu coded = %u submitted, router "
      "%llu = %llu + %llu %s; %llu reroute(s) on a healthy fleet %s\n",
      static_cast<unsigned long long>(r.done),
      static_cast<unsigned long long>(r.coded), jobs,
      static_cast<unsigned long long>(r.router.submits),
      static_cast<unsigned long long>(r.router.results_sent),
      static_cast<unsigned long long>(r.router.submit_rejects),
      accounted ? "(PASS)" : "(FAIL)",
      static_cast<unsigned long long>(r.router.reroutes),
      no_reroutes ? "(PASS)" : "(FAIL)");
  return accounted && no_reroutes;
}

/// Prints one net mode's table + summary; true iff the accounting gate
/// holds (every job terminated, server drained clean).
bool report_net(const char* title, std::uint32_t jobs, const NetResult& r) {
  if (!r.started) return false;
  Table t(title);
  t.set_header({"metric", "value"});
  t.add_row({"wall s", fmt_f(r.wall_seconds, 3)});
  t.add_row({"jobs/s", fmt_f(r.jobs_per_second, 1)});
  t.add_row({"done", std::to_string(r.done)});
  t.add_row({"coded refusals", std::to_string(r.coded)});
  t.add_row({"client attempts", std::to_string(r.client.attempts)});
  t.add_row({"client retries", std::to_string(r.client.retries)});
  t.add_row({"client reconnects", std::to_string(r.client.reconnects)});
  t.add_row({"transport failures",
             std::to_string(r.client.transport_failures)});
  t.add_row({"backoff sleeps / ms",
             std::to_string(r.client.backoff_sleeps) + " / " +
                 std::to_string(r.client.backoff_ms_total)});
  t.add_row({"breaker trips/probes/closes",
             std::to_string(r.client.breaker_trips) + " / " +
                 std::to_string(r.client.breaker_half_open_probes) +
                 " / " + std::to_string(r.client.breaker_closes)});
  t.add_row({"server frames in/out",
             std::to_string(r.serve.frames_in) + " / " +
                 std::to_string(r.serve.frames_out)});
  t.add_row({"server bad frames", std::to_string(r.serve.bad_frames)});
  t.add_row({"server sheds (busy/drain)",
             std::to_string(r.serve.shed_busy) + " / " +
                 std::to_string(r.serve.shed_draining)});
  t.add_row({"server read/write timeouts",
             std::to_string(r.serve.read_timeouts) + " / " +
                 std::to_string(r.serve.write_timeouts)});
  t.print(std::cout);
  const bool accounted = r.done + r.coded == jobs;
  const bool drained = r.serve.open_connections() == 0;
  std::printf(
      "net accounting: %llu done + %llu coded = %u submitted %s; "
      "%llu connection(s) left open %s\n",
      static_cast<unsigned long long>(r.done),
      static_cast<unsigned long long>(r.coded), jobs,
      accounted ? "(PASS)" : "(FAIL)",
      static_cast<unsigned long long>(r.serve.open_connections()),
      drained ? "(PASS)" : "(FAIL)");
  return accounted && drained;
}

int run(const Options& opt) {
  const bool small = opt.get_bool("small", false);
  const auto jobs =
      static_cast<std::uint32_t>(opt.get_int("jobs", small ? 16 : 48));
  const auto workers =
      static_cast<std::uint32_t>(opt.get_int("workers", small ? 2 : 4));
  const auto sweeps =
      static_cast<std::uint32_t>(opt.get_int("sweeps", small ? 2 : 4));
  const auto reps =
      static_cast<std::uint32_t>(opt.get_int("reps", small ? 8 : 32));

  const std::vector<Config> configs = make_configs();

  // ---- Part 1: cold vs warm plan acquisition --------------------------
  service::PlanCache cache;
  Table t("service plan setup: cold (build) vs warm (cache hit)");
  t.set_header({"config", "cold ms", "warm ms", "ratio"});
  double cold_sum = 0.0, warm_sum = 0.0;
  for (const Config& c : configs) {
    const auto t0 = Clock::now();
    (void)cache.lookup_or_build(*c.kernel, c.plan, c.fingerprint);
    const double cold = seconds_since(t0);

    const auto t1 = Clock::now();
    for (std::uint32_t i = 0; i < reps; ++i)
      (void)cache.lookup_or_build(*c.kernel, c.plan, c.fingerprint);
    const double warm = seconds_since(t1) / reps;

    cold_sum += cold;
    warm_sum += warm;
    t.add_row({c.name, fmt_f(cold * 1e3, 3), fmt_f(warm * 1e3, 4),
               warm > 0 ? fmt_f(cold / warm, 1) + "x" : "-"});
  }
  t.print(std::cout);
  const double ratio = warm_sum > 0 ? cold_sum / warm_sum : 0.0;
  std::printf(
      "warm (cache-hit) setup skips distribution + inspector rebuild: "
      "%.1fx cheaper than cold overall %s\n",
      ratio, ratio >= 10.0 ? "(>= 10x: PASS)" : "(< 10x: FAIL)");

  // ---- Part 2: throughput with cache off/on ---------------------------
  const ThroughputResult off =
      run_throughput(configs, jobs, workers, sweeps, false);
  const ThroughputResult on =
      run_throughput(configs, jobs, workers, sweeps, true);

  Table tp("service throughput (" + std::to_string(jobs) + " jobs, " +
           std::to_string(workers) + " workers, " +
           std::to_string(sweeps) + " sweeps/job)");
  tp.set_header({"mode", "wall s", "jobs/s", "done", "failed", "rejected",
                 "cache hit rate"});
  const auto row = [&](const char* name, const ThroughputResult& r) {
    tp.add_row({name, fmt_f(r.wall_seconds, 3), fmt_f(r.jobs_per_second, 1),
                std::to_string(r.done), std::to_string(r.failed),
                std::to_string(r.rejected),
                fmt_f(r.stats.cache.hit_rate(), 3)});
  };
  row("cache off (cold start every job)", off);
  row("cache on", on);
  tp.print(std::cout);
  on.stats.print(std::cout, "service stats (cache on)");

  // ---- Part 3: networked front-end (--net) ----------------------------
  bool net_ok = true;
  NetResult net;
  NetResult net_chaos;
  const bool run_net_part = opt.get_bool("net", false);
  const bool net_faults = opt.get_bool("net-faults", false);
  const auto clients = static_cast<std::uint32_t>(
      opt.get_int("net-clients", small ? 2 : 4));
  if (run_net_part) {
    net = run_net(jobs, workers, clients, sweeps, false);
    net_ok = report_net(
        ("networked service (" + std::to_string(clients) +
         " clients, clean wire)")
            .c_str(),
        jobs, net);
    if (net_faults) {
      net_chaos = run_net(jobs, workers, clients, sweeps, true);
      net_ok = report_net(
          ("networked service (" + std::to_string(clients) +
           " clients, injected byte faults)")
              .c_str(),
          jobs, net_chaos) &&
               net_ok;
    }
  }

  // ---- Part 4: sharded fleet (--shards=N) -----------------------------
  bool shard_ok = true;
  ShardBenchResult sharded;
  const auto nshards =
      static_cast<std::uint32_t>(opt.get_int("shards", 0));
  if (nshards > 0) {
    sharded = run_sharded(jobs, workers, nshards, clients, sweeps);
    shard_ok = report_sharded(jobs, nshards, sharded);
  }

  if (opt.has("json")) {
    JsonWriter w;
    w.field("bench", "service");
    bench::stamp_host(w)
        .field("jobs", static_cast<std::uint64_t>(jobs))
        .field("workers", static_cast<std::uint64_t>(workers))
        .field("sweeps", static_cast<std::uint64_t>(sweeps))
        .field("cold_setup_ms_total", cold_sum * 1e3)
        .field("warm_setup_ms_total", warm_sum * 1e3)
        .field("cold_over_warm_ratio", ratio)
        .field("throughput_cache_off_jobs_per_s", off.jobs_per_second)
        .field("throughput_cache_on_jobs_per_s", on.jobs_per_second)
        .field("cache_hit_rate", on.stats.cache.hit_rate())
        .field("p50_latency_s", on.stats.p50_latency)
        .field("p95_latency_s", on.stats.p95_latency)
        .field("p99_latency_s", on.stats.p99_latency);
    if (run_net_part) {
      w.field("net_clients", static_cast<std::uint64_t>(clients))
          .field("net_jobs_per_s", net.jobs_per_second)
          .field("net_done", net.done)
          .field("net_coded", net.coded)
          .field("net_retries", net.client.retries)
          .field("net_reconnects", net.client.reconnects)
          .field("net_backoff_sleeps", net.client.backoff_sleeps)
          .field("net_backoff_ms_total", net.client.backoff_ms_total)
          .field("net_breaker_trips", net.client.breaker_trips)
          .field("net_breaker_half_open_probes",
                 net.client.breaker_half_open_probes)
          .field("net_breaker_closes", net.client.breaker_closes);
      if (net_faults) {
        w.field("net_chaos_jobs_per_s", net_chaos.jobs_per_second)
            .field("net_chaos_done", net_chaos.done)
            .field("net_chaos_coded", net_chaos.coded)
            .field("net_chaos_retries", net_chaos.client.retries)
            .field("net_chaos_transport_failures",
                   net_chaos.client.transport_failures)
            .field("net_chaos_backoff_sleeps",
                   net_chaos.client.backoff_sleeps)
            .field("net_chaos_backoff_ms_total",
                   net_chaos.client.backoff_ms_total)
            .field("net_chaos_breaker_trips",
                   net_chaos.client.breaker_trips);
      }
    }
    if (nshards > 0) {
      w.field("shard_count", static_cast<std::uint64_t>(nshards))
          .field("shard_jobs_per_s", sharded.jobs_per_second)
          .field("shard_done", sharded.done)
          .field("shard_coded", sharded.coded)
          .field("shard_reroutes", sharded.router.reroutes)
          .field("shard_forwards_min", sharded.forwards_min)
          .field("shard_forwards_max", sharded.forwards_max);
    }
    append_json_line(opt.get("json"), w.str());
    std::printf("appended JSON record to %s\n", opt.get("json").c_str());
  }
  // --small is the CI smoke shape: counts too small for the >= 10x
  // cold/warm ratio to be meaningful, so only correctness is gated.
  const bool ratio_ok = small || ratio >= 10.0;
  return ratio_ok && off.failed == 0 && on.failed == 0 &&
                 off.rejected == 0 && on.rejected == 0 && net_ok &&
                 shard_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace earthred

int main(int argc, char** argv) {
  const earthred::Options opt(argc, argv);
  return earthred::run(opt);
}

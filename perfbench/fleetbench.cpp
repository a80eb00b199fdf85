// fleetbench: the end-to-end fleet benchmark (see README.md).
//
//   fleetbench --workload=NAME --seed=N --seconds=S --trace=0|1
//              [--workdir=DIR] [--git-sha=SHA] [--short] [--corrupt-digest]
//
// Starts a ShardRouter in front of two ServeLoop + JobScheduler shards in
// this process, drives it over loopback with closed-loop net::Client
// threads, checks every reply's digest against an in-process recomputation
// of the same job line, and prints one JSON result as the last line of
// stdout: the end-to-end metrics with --trace=0, the per-layer ledger with
// --trace=1. --short shrinks the workload for the self-test;
// --corrupt-digest falsifies one expected digest so the run must fail.
// Exit status: 0 when every checked output is correct, 1 otherwise, 2 on
// a usage error.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/native_engine.hpp"
#include "core/sequential.hpp"
#include "fleet.hpp"
#include "mesh/generators.hpp"
#include "service/plan_store.hpp"
#include "support/cpu_features.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"
#include "workloads.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

namespace fleetbench {
namespace {

namespace core = earthred::core;
namespace net = earthred::net;
namespace service = earthred::service;
using earthred::json_escape;
using earthred::json_number;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  bool corrupt_digest = false;
  std::string workdir = ".bench_build/work";
  std::string git_sha = "unknown";
};

/// Clients stop taking jobs once a window has run this long, so one run
/// always ends well inside its time limit even on a much slower commit.
constexpr double kWindowCapSeconds = 40.0;
/// Set-ups per measured run; setup_s is their median.
constexpr int kSetups = 3;
/// plan-churn lines whose digests are recomputed (seeded sample).
constexpr std::size_t kChurnSample = 8;

double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return earthred::quantile_sorted(xs, q);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

template <typename F>
double time_call(F&& f) {
  const TimePoint t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Process VmHWM (peak resident set) in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

std::vector<std::string> named_lines(const std::vector<JobSpec>& jobs,
                                     const std::string& prefix) {
  std::vector<std::string> lines;
  lines.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    lines.push_back(jobs[i].line() + " name=" + prefix + "-" +
                    std::to_string(i));
  return lines;
}

bool is_done(const JobRecord& r) {
  return r.attempted && r.code.empty() &&
         r.result.state ==
             static_cast<std::uint32_t>(service::JobState::Done);
}

// ---- metric output --------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void print_table() const {
    for (const Metric& m : metrics_)
      std::printf("fleetbench: %-48s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  std::string json() const {
    std::string s = "{";
    for (const Metric& m : metrics_) {
      if (s.size() > 1) s += ", ";
      s += "\"" + json_escape(m.name) + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) +
           "\"}";
    }
    return s + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

void print_stamp(const Args& a, const Workload& w) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  earthred::JsonWriter j;
  j.field("workload", w.name)
      .field("seed", a.seed)
      .field("seconds", a.seconds)
      .field("trace", a.trace)
      .field("short", a.short_mode)
      .field("jobs", static_cast<std::uint64_t>(w.sequence.size()))
      .field("warm_jobs", static_cast<std::uint64_t>(w.warm.size()))
      .field("clients", w.clients)
      .field("shards", Fleet::Config{}.shards)
      .field("latency_tail_quantile", w.tail_quantile)
      .field("nproc", static_cast<std::int64_t>(nproc))
      .field("hardware_threads", earthred::support::hardware_threads())
      .field("cpu_flags",
             earthred::support::to_string(
                 earthred::support::host_cpu_features()))
      .field("cache", earthred::support::to_string(
                          earthred::support::host_cache_info()))
      .field("build_type", FLEETBENCH_BUILD_TYPE)
      .field("compiler", compiler)
      .field("git_sha", a.git_sha);
  std::printf("fleetbench: stamp %s\n", j.str().c_str());
}

// ---- set-up -------------------------------------------------------------

/// Starts a fleet and submits the workload's warm jobs through it.
/// `seconds` receives the set-up time: fleet start plus warm-up.
std::unique_ptr<Fleet> set_up(const Workload& w, const Args& a, int serial,
                              TraceSink* trace, double* seconds) {
  const TimePoint t0 = Clock::now();
  Fleet::Config cfg;
  cfg.cache_budget = w.cache_budget;
  if (w.plan_store)
    cfg.store_root = a.workdir + "/stores-" + std::to_string(serial);
  auto fleet = std::make_unique<Fleet>(cfg, trace);
  const WindowResult warm =
      drive(fleet->port(),
            named_lines(w.warm, "warm" + std::to_string(serial)), w.clients,
            kWindowCapSeconds, false);
  for (const JobRecord& r : warm.jobs)
    if (!is_done(r))
      throw std::runtime_error("warm-up job " + r.name + " did not finish: " +
                               (r.code.empty() ? r.result.error : r.code));
  *seconds = seconds_between(t0, Clock::now());
  return fleet;
}

// ---- output checks ------------------------------------------------------

/// The digest the service must return for `line`, recomputed in-process:
/// JobBuilder + build_execution_plan + run_native_plan + result_digest.
std::uint64_t reference_digest(const std::string& line) {
  service::JobLimits limits;
  limits.allow_file_io = false;
  service::JobBuilder builder(limits);
  const service::JobBuild b = builder.build(line, 0);
  if (!b.ok() || b.requests.size() != 1)
    throw std::runtime_error("reference build of '" + line +
                             "' failed: " + b.code + " " + b.detail);
  const service::JobRequest& req = b.requests.front();
  const core::ExecutionPlan plan =
      core::build_execution_plan(*req.kernel, req.plan);
  core::SweepOptions sopt;
  sopt.sweeps = req.sweeps;
  sopt.batch = req.batch;
  sopt.affinity = req.affinity;
  sopt.backend = req.backend;
  return service::result_digest(core::run_native_plan(*req.kernel, plan, sopt));
}

/// Runs one kernel natively and on the sequential reference executor and
/// compares every output element: exactly for the integer-valued fig1,
/// within the test suite's 1e-9 (relative above 1) for the FP kernels.
bool kernel_matches_sequential(const JobSpec& job, std::string* detail) {
  service::JobBuilder builder;
  const service::JobBuild b = builder.build(job.line(), 0);
  if (!b.ok()) {
    *detail = b.code + " " + b.detail;
    return false;
  }
  const service::JobRequest& req = b.requests.front();
  const core::ExecutionPlan plan =
      core::build_execution_plan(*req.kernel, req.plan);
  core::SweepOptions sopt;
  sopt.sweeps = req.sweeps;
  const core::NativeResult native =
      core::run_native_plan(*req.kernel, plan, sopt);
  core::SequentialOptions seq_opt;
  seq_opt.sweeps = req.sweeps;
  const core::RunResult seq = core::run_sequential_kernel(*req.kernel, seq_opt);
  const bool exact = job.mesh.kernel == "fig1";
  const auto same = [&](const std::vector<std::vector<double>>& x,
                        const std::vector<std::vector<double>>& y,
                        const char* what) {
    if (x.size() != y.size()) {
      *detail = std::string(what) + " array count differs";
      return false;
    }
    for (std::size_t a = 0; a < x.size(); ++a) {
      if (x[a].size() != y[a].size()) {
        *detail = std::string(what) + " array length differs";
        return false;
      }
      for (std::size_t i = 0; i < x[a].size(); ++i) {
        const double tol =
            exact ? 0.0 : 1e-9 * std::max(1.0, std::abs(y[a][i]));
        if (!(std::abs(x[a][i] - y[a][i]) <= tol)) {
          *detail = std::string(what) + "[" + std::to_string(a) + "][" +
                    std::to_string(i) + "] native " + json_number(x[a][i]) +
                    " sequential " + json_number(y[a][i]);
          return false;
        }
      }
    }
    return true;
  };
  return same(native.reduction, seq.reduction, "reduction") &&
         same(native.node_read, seq.node_read, "node_read");
}

/// Job tallies of one or more windows after the output checks.
struct Checked {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;          ///< Done with a verified digest
  std::uint64_t failed = 0;      ///< refused, transport failure or Failed
  std::uint64_t mismatched = 0;  ///< Done with a wrong digest
  bool kernels_ok = true;
  std::vector<double> ok_round_trips;
};

/// Checks every window job: Done, the same digest for every repeat of a
/// line, and that digest equal to the in-process recomputation (every
/// distinct line, or a seeded sample for plan-churn). Also checks each
/// kernel the workload serves once against the sequential executor.
Checked check_outputs(const Workload& w, const Args& a,
                      const std::vector<const WindowResult*>& windows) {
  Checked c;
  std::map<std::string, std::uint64_t> served;  // line -> digest
  std::set<std::string> inconsistent;
  for (const WindowResult* win : windows)
    for (std::size_t i = 0; i < win->jobs.size(); ++i) {
      const JobRecord& r = win->jobs[i];
      if (!r.attempted || !is_done(r)) continue;
      const std::string line = w.sequence[i].line();
      const auto [it, fresh] = served.emplace(line, r.result.digest);
      if (!fresh && it->second != r.result.digest) inconsistent.insert(line);
    }

  std::vector<std::string> to_verify;
  for (const auto& [line, digest] : served) to_verify.push_back(line);
  if (w.name == "plan-churn" && to_verify.size() > kChurnSample) {
    // Half the sample from mutated lines, half from plain ones (which
    // include the revisited meshes), drawn with the run's seed.
    std::vector<std::string> plain, mutated;
    for (const std::string& l : to_verify)
      (l.find(" mutate=") != std::string::npos ? mutated : plain).push_back(l);
    earthred::Xoshiro256 rng(a.seed ^ 0x5a3b1eull);
    std::shuffle(plain.begin(), plain.end(), rng);
    std::shuffle(mutated.begin(), mutated.end(), rng);
    to_verify.clear();
    for (std::size_t i = 0; to_verify.size() < kChurnSample &&
                            (i < plain.size() || i < mutated.size());
         ++i) {
      if (i < mutated.size()) to_verify.push_back(mutated[i]);
      if (i < plain.size() && to_verify.size() < kChurnSample)
        to_verify.push_back(plain[i]);
    }
  }
  std::set<std::string> wrong = inconsistent;
  for (std::size_t i = 0; i < to_verify.size(); ++i) {
    std::uint64_t expected = reference_digest(to_verify[i]);
    if (a.corrupt_digest && i == 0) expected ^= 1;
    if (served.at(to_verify[i]) != expected) {
      std::fprintf(stderr, "fleetbench: digest mismatch on '%s'\n",
                   to_verify[i].c_str());
      wrong.insert(to_verify[i]);
    }
  }
  for (const std::string& l : inconsistent)
    std::fprintf(stderr, "fleetbench: repeats of '%s' returned different "
                 "digests\n", l.c_str());

  std::size_t reported = 0;
  for (const WindowResult* win : windows)
    for (std::size_t i = 0; i < win->jobs.size(); ++i) {
      const JobRecord& r = win->jobs[i];
      if (!r.attempted) continue;
      ++c.attempted;
      if (!is_done(r)) {
        ++c.failed;
        if (reported++ < 5)
          std::fprintf(stderr, "fleetbench: job %s: %s %s\n", r.name.c_str(),
                       r.code.c_str(), r.result.error.c_str());
      } else if (wrong.count(w.sequence[i].line())) {
        ++c.mismatched;
      } else {
        ++c.ok;
        c.ok_round_trips.push_back(r.round_trip());
      }
    }

  // One sequential check per kernel, on a small mesh of that kernel.
  std::set<std::string> kernels;
  for (const JobSpec& j : w.warm) {
    if (!kernels.insert(j.mesh.kernel).second) continue;
    JobSpec small = j.with_sweeps(2);
    if (small.mesh.nodes > 50000) {
      small.mesh.nodes = 20000;
      small.mesh.edges = 6ull * small.mesh.nodes;
    }
    std::string detail;
    if (!kernel_matches_sequential(small, &detail)) {
      std::fprintf(stderr, "fleetbench: %s differs from the sequential "
                   "executor: %s\n", j.mesh.kernel.c_str(), detail.c_str());
      c.kernels_ok = false;
    }
  }
  return c;
}

void print_result(const Checked& c, const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              c.mismatched == 0 && c.kernels_ok ? "true" : "false",
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed + c.mismatched),
              r.json().c_str());
  std::fflush(stdout);
}

int exit_status(const Checked& c) {
  return c.mismatched == 0 && c.kernels_ok ? 0 : 1;
}

/// One human-readable line per shard with the lifetime transport
/// counters that explain a failover (a rerouted job runs on the other
/// shard and doubles its load).
void print_shard_counters(const FleetCounters& c) {
  for (std::size_t s = 0; s < c.pool.size(); ++s) {
    const net::ClientStats& pc = c.pool[s].client;
    const service::ServeStats& sv = c.serve[s];
    std::printf("fleetbench: shard-%zu lifetime counters: forwards %llu "
                "failovers %llu pool-client attempts %llu reconnects %llu "
                "transport-failures %llu breaker-trips %llu; serve accepted "
                "%llu closed %llu read-timeouts %llu write-timeouts %llu "
                "idle-closes %llu shed-busy %llu orphaned %llu\n",
                s, static_cast<unsigned long long>(c.pool[s].forwards),
                static_cast<unsigned long long>(c.pool[s].failovers),
                static_cast<unsigned long long>(pc.attempts),
                static_cast<unsigned long long>(pc.reconnects),
                static_cast<unsigned long long>(pc.transport_failures),
                static_cast<unsigned long long>(pc.breaker_trips),
                static_cast<unsigned long long>(sv.accepted),
                static_cast<unsigned long long>(sv.closed),
                static_cast<unsigned long long>(sv.read_timeouts),
                static_cast<unsigned long long>(sv.write_timeouts),
                static_cast<unsigned long long>(sv.idle_closes),
                static_cast<unsigned long long>(sv.shed_busy),
                static_cast<unsigned long long>(sv.orphaned_results));
  }
}

// ---- --trace=0: end-to-end metrics ----------------------------------------

int run_measured(const Workload& w, const Args& a) {
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (int s = 0; s < kSetups; ++s) {
    // One fleet alive at a time; hand its freed memory back to the OS so
    // peak_rss_mb reflects one fleet, not the discarded set-ups.
    fleet.reset();
    malloc_trim(0);
    double seconds = 0.0;
    fleet = set_up(w, a, s, nullptr, &seconds);
    setups.push_back(seconds);
  }
  const WindowResult win =
      drive(fleet->port(), named_lines(w.sequence, "job"), w.clients,
            kWindowCapSeconds, false);
  const double rss = peak_rss_mb();
  print_shard_counters(fleet->counters());
  fleet.reset();
  if (win.cut)
    std::fprintf(stderr, "fleetbench: window cut at %.0f s\n",
                 kWindowCapSeconds);

  const Checked c = check_outputs(w, a, {&win});
  const double ok = static_cast<double>(std::max<std::uint64_t>(c.ok, 1));
  Report r;
  r.add("setup_s", median(setups), "s");
  r.add("jobs_per_s", static_cast<double>(c.ok) / win.wall_seconds, "1/s");
  r.add("latency_p50_s", median(c.ok_round_trips), "s");
  r.add("latency_tail_s", quantile(c.ok_round_trips, w.tail_quantile), "s");
  r.add("ok_rate",
        static_cast<double>(c.ok) /
            static_cast<double>(std::max<std::uint64_t>(c.attempted, 1)),
        "ratio");
  r.add("peak_rss_mb", rss, "MB");
  r.add("cpu_s_per_job", win.cpu_seconds / ok, "s");
  r.print_table();
  std::printf("fleetbench: round trip quantiles (s) over %zu jobs: p50 %.6f "
              "p75 %.6f p80 %.6f p90 %.6f p95 %.6f p98 %.6f p99 %.6f\n",
              c.ok_round_trips.size(), quantile(c.ok_round_trips, 0.5),
              quantile(c.ok_round_trips, 0.75),
              quantile(c.ok_round_trips, 0.8),
              quantile(c.ok_round_trips, 0.9),
              quantile(c.ok_round_trips, 0.95),
              quantile(c.ok_round_trips, 0.98),
              quantile(c.ok_round_trips, 0.99));
  std::printf("fleetbench: %-48s %16.6g %s\n", "error_rate",
              1.0 - static_cast<double>(c.ok) /
                        static_cast<double>(
                            std::max<std::uint64_t>(c.attempted, 1)),
              "ratio");
  print_result(c, r);
  return exit_status(c);
}

// ---- --trace=1: the per-layer ledger --------------------------------------

/// Bytes one edge update touches, computed from the kernel's array
/// counts: per reference, a 4-byte redirected index, an 8-byte read of
/// each node array and an 8-byte read plus write of each reduction
/// array. Per-edge data arrays are not counted.
double computed_bytes_per_edge(const std::string& kernel) {
  service::JobBuilder builder;
  const service::JobBuild b =
      builder.build("kernel=" + kernel + " nodes=64 edges=256", 0);
  const core::KernelShape s = b.requests.front().kernel->shape();
  return static_cast<double>(s.num_refs) *
         (4.0 + 8.0 * s.num_node_read_arrays + 16.0 * s.num_reduction_arrays);
}

/// Direct calls into the plan and executor layers on the workload's own
/// meshes (one per kernel), outside any window.
struct LayerProbe {
  double mesh_generate_s = 0.0;
  double inspector_s = 0.0;
  double verify_s = 0.0;
  double patch_s = 0.0;
  double plan_bytes = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double parallel_efficiency = 0.0;
};

LayerProbe probe_layers(const Workload& w, const Args& a) {
  std::vector<JobSpec> reps;
  std::set<std::string> kinds;
  for (const std::vector<JobSpec>* list : {&w.sequence, &w.warm})
    for (const JobSpec& j : *list)
      if (j.mutate == 0 && kinds.insert(j.mesh.kernel).second)
        reps.push_back(j);
  LayerProbe sum;
  const std::string store_dir = a.workdir + "/probe-store";
  for (const JobSpec& job : reps) {
    const int repeats = job.mesh.edges > 1000000 || a.short_mode ? 1 : 3;
    std::vector<double> gen, build, run1, runp;
    for (int i = 0; i < repeats; ++i)
      gen.push_back(time_call([&] {
        (void)earthred::mesh::make_geometric_mesh(
            {job.mesh.nodes, job.mesh.edges, job.mesh.seed});
      }));
    service::JobBuilder builder;
    const service::JobBuild b = builder.build(job.line(), 0);
    if (!b.ok()) throw std::runtime_error("probe build failed: " + b.detail);
    const service::JobRequest& req = b.requests.front();
    core::PlanOptions opt = req.plan;
    opt.layout = core::LayoutKind::None;
    opt.verify = false;
    std::optional<core::ExecutionPlan> built;
    for (int i = 0; i < repeats; ++i) {
      built.reset();
      build.push_back(time_call([&] {
        built.emplace(core::build_execution_plan(*req.kernel, opt));
      }));
    }
    const core::ExecutionPlan& plan = *built;
    sum.inspector_s += median(build);
    sum.mesh_generate_s += median(gen);
    sum.plan_bytes += static_cast<double>(plan.byte_size());
    bool verified = false;
    sum.verify_s += time_call([&] {
      verified = core::verify_execution_plan(plan, req.kernel.get()).ok();
    });
    if (!verified) throw std::runtime_error("probe plan failed verification");
    {
      JobSpec m = job;
      m.mutate = a.short_mode ? 30 : 300;
      m.mutate_seed = 1;
      const service::JobBuild mb = builder.build(m.line(), 0);
      const service::JobRequest& mreq = mb.requests.front();
      sum.patch_s += time_call([&] {
        (void)core::patch_execution_plan(*mreq.kernel, plan,
                                         mreq.changed_edges);
      });
    }
    {
      const service::PlanStore store(store_dir);
      const service::PlanKey key = service::make_plan_key(*req.kernel, opt);
      std::string error;
      bool saved = false;
      sum.save_s += time_call([&] { saved = store.save(key, plan, &error); });
      if (!saved) throw std::runtime_error("probe plan save failed: " + error);
      bool loaded = false;
      sum.load_s += time_call([&] { loaded = store.load(key).ok(); });
      if (!loaded) throw std::runtime_error("probe plan load failed");
      std::filesystem::remove(store.path_for(key));
    }
    core::SweepOptions sopt;
    sopt.sweeps = job.sweeps;
    core::PlanOptions opt1 = opt;
    opt1.num_procs = 1;
    const core::ExecutionPlan plan1 =
        core::build_execution_plan(*req.kernel, opt1);
    for (int i = 0; i < repeats; ++i) {
      run1.push_back(time_call(
          [&] { (void)core::run_native_plan(*req.kernel, plan1, sopt); }));
      runp.push_back(time_call(
          [&] { (void)core::run_native_plan(*req.kernel, plan, sopt); }));
    }
    sum.parallel_efficiency +=
        median(run1) / (static_cast<double>(opt.num_procs) * median(runp));
  }
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  const double n = static_cast<double>(std::max<std::size_t>(reps.size(), 1));
  sum.mesh_generate_s /= n;
  sum.inspector_s /= n;
  sum.verify_s /= n;
  sum.patch_s /= n;
  sum.plan_bytes /= n;
  sum.save_s /= n;
  sum.load_s /= n;
  sum.parallel_efficiency /= n;
  return sum;
}

const char* const kOutcomes[] = {"hit", "coalesced", "built", "disk_loaded",
                                 "patched"};

int run_traced(const Workload& w, const Args& a) {
  // Untraced reference window on its own fleet, for trace.overhead_frac.
  double setup_seconds = 0.0;
  WindowResult plain;
  {
    auto fleet = set_up(w, a, 0, nullptr, &setup_seconds);
    plain = drive(fleet->port(), named_lines(w.sequence, "plain"), w.clients,
                  kWindowCapSeconds, false);
  }
  TraceSink sink;
  WindowResult win;
  FleetCounters before, after;
  {
    auto fleet = set_up(w, a, 1, &sink, &setup_seconds);
    before = fleet->counters();
    win = drive(fleet->port(), named_lines(w.sequence, "traced"), w.clients,
                kWindowCapSeconds, true);
    after = fleet->counters();
  }

  // Per-job ledger: the round trip split at the seams.
  std::vector<double> fwd_wait, fwd_rtt, reply_delay, handler_s, queue_s,
      exec_s, setup_all, unexplained;
  std::vector<std::vector<double>> setup_by_outcome(5);
  std::vector<double> handler_busy(after.serve.size(), 0.0);
  std::vector<std::uint64_t> by_outcome(5, 0);
  double edge_updates = 0.0, exec_total = 0.0, bytes_total = 0.0;
  std::map<std::string, double> bytes_per_edge;
  for (std::size_t i = 0; i < win.jobs.size(); ++i) {
    const JobRecord& r = win.jobs[i];
    if (!is_done(r)) continue;
    const net::ResultBody& res = r.result;
    if (res.plan_source < 5) {
      ++by_outcome[res.plan_source];
      setup_by_outcome[res.plan_source].push_back(res.setup_seconds);
    }
    queue_s.push_back(res.queue_seconds);
    setup_all.push_back(res.setup_seconds);
    exec_s.push_back(res.exec_seconds);
    const JobSpec& job = w.sequence[i];
    const double updates =
        static_cast<double>(job.mesh.edges) * static_cast<double>(job.sweeps);
    edge_updates += updates;
    exec_total += res.exec_seconds;
    auto [bpe, fresh] = bytes_per_edge.emplace(job.mesh.kernel, 0.0);
    if (fresh) bpe->second = computed_bytes_per_edge(job.mesh.kernel);
    bytes_total += updates * bpe->second;

    const auto f = sink.forward(r.name);
    const auto h = sink.handler(r.name);
    if (!f || !h) continue;
    const double rt = r.round_trip();
    const double wait = seconds_between(r.written, f->written);
    const double rtt = seconds_between(f->written, f->replied);
    const double hs = seconds_between(h->start, h->end);
    const double delay = rtt - hs - res.total_seconds;
    fwd_wait.push_back(wait);
    fwd_rtt.push_back(rtt);
    handler_s.push_back(hs);
    reply_delay.push_back(delay);
    if (h->shard < handler_busy.size()) handler_busy[h->shard] += hs;
    const double stages = wait + hs + res.queue_seconds + res.setup_seconds +
                          res.exec_seconds + delay;
    unexplained.push_back((rt - stages) / rt);
  }

  const LayerProbe probe = probe_layers(w, a);
  const Checked c = check_outputs(w, a, {&plain, &win});

  const auto delta = [](std::uint64_t after_v, std::uint64_t before_v) {
    return static_cast<double>(after_v - before_v);
  };
  double retries = static_cast<double>(win.clients.retries);
  double reconnects = static_cast<double>(win.clients.reconnects) -
                      static_cast<double>(w.clients);  // initial connects
  double bad_frames = delta(after.router.bad_frames, before.router.bad_frames);
  double busy_shed = 0.0, forwards_max = 0.0, forwards_sum = 0.0;
  for (std::size_t s = 0; s < after.pool.size(); ++s) {
    retries += delta(after.pool[s].client.retries,
                     before.pool[s].client.retries);
    reconnects += delta(after.pool[s].client.reconnects,
                        before.pool[s].client.reconnects);
    busy_shed += delta(after.pool[s].busy_shed, before.pool[s].busy_shed);
    const double fw = delta(after.pool[s].forwards, before.pool[s].forwards);
    forwards_max = std::max(forwards_max, fw);
    forwards_sum += fw;
  }
  double rejected = 0.0, evictions = 0.0, patch_fallbacks = 0.0,
         persisted = 0.0, disk_fallbacks = 0.0, phased = 0.0,
         privatized = 0.0;
  for (std::size_t s = 0; s < after.service.size(); ++s) {
    const service::ServiceStats& x = after.service[s];
    const service::ServiceStats& y = before.service[s];
    bad_frames += delta(after.serve[s].bad_frames, before.serve[s].bad_frames);
    rejected += delta(x.rejected, y.rejected);
    evictions += delta(x.cache.evictions, y.cache.evictions);
    patch_fallbacks += delta(x.cache.patch_fallbacks, y.cache.patch_fallbacks);
    persisted += delta(x.cache.persisted, y.cache.persisted);
    disk_fallbacks += delta(x.cache.disk_fallbacks, y.cache.disk_fallbacks);
    phased += delta(x.served_phased, y.served_phased);
    privatized += delta(x.served_privatized, y.served_privatized);
  }
  print_shard_counters(after);
  const double shards = static_cast<double>(after.pool.size());
  double blocked = 0.0;
  for (const double busy : handler_busy)
    blocked = std::max(blocked, busy / win.wall_seconds);
  const auto rate = [](const WindowResult& wr) {
    std::uint64_t done = 0;
    for (const JobRecord& r : wr.jobs) done += is_done(r) ? 1 : 0;
    return static_cast<double>(done) / wr.wall_seconds;
  };

  Report r;
  r.add("net.client.retries", retries, "count");
  r.add("net.client.reconnects", reconnects, "count");
  r.add("net.serve.bad_frames", bad_frames, "count");
  r.add("shard.forward_wait_s", median(fwd_wait), "s");
  r.add("shard.forward_rtt_s", median(fwd_rtt), "s");
  r.add("shard.forward_imbalance",
        forwards_sum > 0 ? forwards_max / (forwards_sum / shards) : 0.0,
        "ratio");
  r.add("shard.reroutes", delta(after.router.reroutes, before.router.reroutes),
        "count");
  r.add("shard.busy_shed", busy_shed, "count");
  r.add("service.serve.reply_delay_s", median(reply_delay), "s");
  r.add("service.serve.loop_blocked_frac", blocked, "ratio");
  r.add("service.job_builder.build_s", median(handler_s), "s");
  r.add("service.job_builder.build_p90_s", quantile(handler_s, 0.9), "s");
  r.add("mesh.generate_s", probe.mesh_generate_s, "s");
  r.add("service.scheduler.queue_s", median(queue_s), "s");
  r.add("service.scheduler.rejected", rejected, "count");
  for (std::size_t o = 0; o < 5; ++o)
    r.add(std::string("service.plan_cache.") + kOutcomes[o],
          static_cast<double>(by_outcome[o]), "count");
  for (std::size_t o = 0; o < 5; ++o)
    r.add(std::string("service.plan_cache.setup_s.") + kOutcomes[o],
          median(setup_by_outcome[o]), "s");
  r.add("service.plan_cache.evictions", evictions, "count");
  r.add("service.plan_cache.patch_fallbacks", patch_fallbacks, "count");
  r.add("service.plan_store.persisted", persisted, "count");
  r.add("service.plan_store.disk_fallbacks", disk_fallbacks, "count");
  r.add("service.plan_store.save_s", probe.save_s, "s");
  r.add("service.plan_store.load_s", probe.load_s, "s");
  r.add("core.plan.inspector_s", probe.inspector_s, "s");
  r.add("core.plan.verify_s", probe.verify_s, "s");
  r.add("core.plan.patch_s", probe.patch_s, "s");
  r.add("core.plan.bytes", probe.plan_bytes, "bytes");
  r.add("core.exec.s", median(exec_s), "s");
  r.add("core.exec.edge_updates_per_s",
        exec_total > 0 ? edge_updates / exec_total : 0.0, "1/s");
  r.add("core.exec.parallel_efficiency", probe.parallel_efficiency, "ratio");
  r.add("core.exec.computed_bytes_per_edge_update",
        edge_updates > 0 ? bytes_total / edge_updates : 0.0, "bytes");
  r.add("core.exec.served_phased", phased, "count");
  r.add("core.exec.served_privatized", privatized, "count");
  r.add("ledger.unexplained_frac", median(unexplained), "ratio");
  r.add("trace.overhead_frac", rate(plain) / rate(win) - 1.0, "ratio");
  r.print_table();
  std::vector<double> rts;
  for (const JobRecord& j : win.jobs)
    if (is_done(j)) rts.push_back(j.round_trip());
  std::printf("fleetbench: ledger p50 (s): round_trip %.6f = forward_wait "
              "%.6f + handler %.6f + queue %.6f + setup %.6f + exec %.6f + "
              "reply_delay %.6f + unexplained\n",
              median(rts), median(fwd_wait), median(handler_s),
              median(queue_s), median(setup_all), median(exec_s),
              median(reply_delay));
  const double unexplained_p50 = median(unexplained);
  std::printf("fleetbench: ledger: stages explain %.1f%% of a job's round "
              "trip (median over jobs; target >= 95%%: %s); %zu of %zu jobs "
              "traced\n",
              100.0 * (1.0 - unexplained_p50),
              unexplained_p50 <= 0.05 ? "met" : "NOT met", unexplained.size(),
              win.jobs.size());
  print_result(c, r);
  return exit_status(c);
}

Args parse_args(int argc, char** argv) {
  const earthred::Options opt(argc, argv);
  Args a;
  a.workload = opt.get("workload");
  a.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  a.seconds = opt.get_double("seconds", 10.0);
  a.trace = opt.get_int("trace", 0) != 0;
  a.short_mode = opt.get_bool("short", false);
  a.corrupt_digest = opt.get_bool("corrupt-digest", false);
  a.workdir = opt.get("workdir", a.workdir);
  a.git_sha = opt.get("git-sha", a.git_sha);
  return a;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  const Args a = parse_args(argc, argv);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end() ||
      !(a.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload=warm-small|plan-churn|"
                 "dram-sweep --seed=N --seconds=S --trace=0|1\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(a.workdir);
    const Workload w = make_workload(a.workload, a.seed, a.seconds,
                                     a.short_mode);
    print_stamp(a, w);
    return a.trace ? run_traced(w, a) : run_measured(w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}

// The serving stack under test, run in-process, and the closed-loop
// clients that drive it over loopback.
//
// A Fleet is a ShardRouter in front of N shards, each a ServeLoop +
// JobScheduler with one worker, wired the way `earthred serve --listen`
// and `earthred route` wire them. The traced run observes it only through
// public seams: the SubmitHandler given to each ServeLoop, the client and
// router-pool `wrap_stream` hooks, the ResultBody timing fields and the
// public counters. Nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/client.hpp"
#include "net/wire.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"
#include "service/serve_loop.hpp"
#include "shard/endpoint_pool.hpp"
#include "shard/shard_router.hpp"

namespace fleetbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Value of the `name=` token of a job line ("" when absent).
std::string job_name(std::string_view line);

/// Timestamps the traced run takes at the program's seams, keyed by the
/// unique `name=` every benchmark job carries.
class TraceSink {
 public:
  struct Forward {
    TimePoint written{};  ///< router began writing the frame to the shard
    TimePoint replied{};  ///< router finished reading the shard's Result
    std::uint32_t shard = 0;
  };
  struct Handler {
    TimePoint start{};
    TimePoint end{};
    std::uint32_t shard = 0;
  };

  void forward_written(const std::string& name, std::uint32_t shard,
                       TimePoint t);
  void forward_replied(const std::string& name, TimePoint t);
  void handled(const std::string& name, std::uint32_t shard, TimePoint start,
               TimePoint end);
  std::optional<Forward> forward(const std::string& name) const;
  std::optional<Handler> handler(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Forward> forwards_;
  std::unordered_map<std::string, Handler> handlers_;
};

/// Public counters of the whole fleet at one instant.
struct FleetCounters {
  std::vector<earthred::service::ServeStats> serve;      ///< per shard
  std::vector<earthred::service::ServiceStats> service;  ///< per shard
  earthred::shard::RouterStats router;
  std::vector<earthred::shard::ShardSnapshot> pool;      ///< per shard
};

class Fleet {
 public:
  struct Config {
    std::uint32_t shards = 2;
    std::uint64_t cache_budget = 256ull << 20;
    /// Parent of one fresh PlanStore directory per shard; empty = none.
    /// Removed when the fleet is destroyed.
    std::string store_root;
  };

  /// Starts every shard and the router; `trace` (may be null) receives
  /// handler and forward timestamps. Throws std::runtime_error when a
  /// listener cannot bind.
  Fleet(const Config& cfg, TraceSink* trace);
  /// Drains the fleet router-last and removes the store directories.
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::uint16_t port() const { return router_->port(); }
  FleetCounters counters() const;

 private:
  struct Shard {
    std::unique_ptr<earthred::service::JobScheduler> sched;
    std::shared_ptr<earthred::service::JobBuilder> builder;
    std::unique_ptr<earthred::service::ServeLoop> loop;
  };

  std::string store_root_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<earthred::shard::ShardRouter> router_;
};

/// One submitted job as the client saw it.
struct JobRecord {
  bool attempted = false;
  std::string name;
  std::string code;  ///< "" = a Result arrived; else the refusal code
  earthred::net::ResultBody result;
  TimePoint submitted{};  ///< submit() called
  TimePoint written{};    ///< Submit frame written (traced runs only)
  TimePoint decoded{};    ///< submit() returned the decoded reply
  double round_trip() const { return seconds_between(submitted, decoded); }
};

struct WindowResult {
  std::vector<JobRecord> jobs;  ///< index-aligned with the input lines
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;     ///< process user + system over the window
  bool cut = false;             ///< stopped at the time cap
  /// Retries and reconnects summed over the client threads.
  earthred::net::ClientStats clients;
};

/// Submits `lines` through the router on `port` from `clients` closed-loop
/// client threads that share one job cursor. The window opens once every
/// client is connected and closes when the last reply arrives; clients
/// stop taking jobs after `cap_seconds`. `traced` interposes the client
/// stream tap that timestamps each Submit frame's write.
WindowResult drive(std::uint16_t port, const std::vector<std::string>& lines,
                   std::uint32_t clients, double cap_seconds, bool traced);

}  // namespace fleetbench

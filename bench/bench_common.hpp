// Shared helpers for the paper-figure benches.
//
// Machine calibration: the paper's numbers come from a cycle-accurate
// simulator of the MANNA multiprocessor (50 MHz i860XP EU+SU per node,
// ~50 MB/s links). The defaults below approximate that balance point —
// 1 cycle/flop, ~1 byte/cycle links, tens-of-cycles EARTH operation and
// fiber switch overheads, 16 KB 4-way data cache — and reported "seconds"
// are simulated cycles divided by the 50 MHz clock. Absolute numbers are
// not expected to match the paper; the speedup *shapes* are.
#pragma once

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "earth/types.hpp"
#include "support/cpu_features.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

#ifndef EARTHRED_BUILD_TYPE
#define EARTHRED_BUILD_TYPE "unknown"
#endif

namespace earthred::bench {

/// Stamps a JSONL record with the host it was measured on, under the
/// field names perfbench's stamp uses: CPUs this process may run on,
/// hardware threads, CPU feature flags, cache geometry, build type and
/// compiler.
inline JsonWriter& stamp_host(JsonWriter& w) {
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
  return w.field("nproc", static_cast<std::int64_t>(nproc))
      .field("hardware_threads", support::hardware_threads())
      .field("cpu_flags", support::to_string(support::host_cpu_features()))
      .field("cache", support::to_string(support::host_cache_info()))
      .field("build_type", EARTHRED_BUILD_TYPE)
      .field("compiler", compiler);
}

constexpr double kClockHz = 50e6;  // i860XP clock

inline double to_seconds(earth::Cycles c) {
  return static_cast<double>(c) / kClockHz;
}

/// MANNA-like machine configuration (num_nodes filled in by engines).
inline earth::MachineConfig manna_machine() {
  earth::MachineConfig cfg;
  cfg.cost.flop = 1;
  cfg.cost.intop = 1;
  cfg.cost.fiber_switch = 40;
  cfg.cost.op_issue = 8;
  cfg.cost.su_event = 30;
  cfg.cost.cache_hit = 1;
  cfg.cost.cache_miss = 18;
  cfg.net.latency = 150;
  cfg.net.bytes_per_cycle = 1.0;
  cfg.net.inject_overhead = 50;
  cfg.cache.size_bytes = 16 * 1024;
  cfg.cache.line_bytes = 32;
  cfg.cache.ways = 4;
  cfg.max_events = 0;
  return cfg;
}

/// Applies --latency/--bandwidth/--cache-kb/--no-cache overrides.
inline earth::MachineConfig machine_from_options(const Options& opt) {
  earth::MachineConfig cfg = manna_machine();
  cfg.net.latency =
      static_cast<earth::Cycles>(opt.get_int("latency", static_cast<std::int64_t>(cfg.net.latency)));
  cfg.net.bytes_per_cycle =
      opt.get_double("bandwidth", cfg.net.bytes_per_cycle);
  cfg.cache.size_bytes = static_cast<std::uint32_t>(
      opt.get_int("cache-kb", cfg.cache.size_bytes / 1024) * 1024);
  if (opt.get_bool("no-cache", false)) cfg.cache.enabled = false;
  return cfg;
}

/// One measured series entry.
struct Point {
  std::uint32_t procs = 0;
  double seconds = 0.0;
  double speedup = 0.0;  ///< vs the sequential reference
};

/// A named series (one strategy line of a figure).
struct Series {
  std::string name;
  std::vector<Point> points;

  double seconds_at(std::uint32_t procs) const {
    for (const Point& pt : points)
      if (pt.procs == procs) return pt.seconds;
    return 0.0;
  }
  /// Relative speedup between two processor counts (the paper's 2->32
  /// metric).
  double relative_speedup(std::uint32_t from, std::uint32_t to) const {
    const double a = seconds_at(from);
    const double b = seconds_at(to);
    return b > 0.0 ? a / b : 0.0;
  }
};

/// Prints a figure as two tables: execution times and absolute speedups.
inline void print_figure(const std::string& title, double seq_seconds,
                         const std::vector<std::uint32_t>& procs,
                         const std::vector<Series>& series) {
  std::printf("\n");
  Table times(title + " — execution time (simulated seconds)");
  std::vector<std::string> header{"strategy"};
  for (auto p : procs) header.push_back("P=" + std::to_string(p));
  times.set_header(header);
  {
    std::vector<std::string> row{"sequential"};
    for (std::size_t i = 0; i < procs.size(); ++i)
      row.push_back(i == 0 ? fmt_f(seq_seconds, 2) : "");
    times.add_row(row);
    times.add_rule();
  }
  for (const Series& s : series) {
    std::vector<std::string> row{s.name};
    for (auto p : procs) row.push_back(fmt_f(s.seconds_at(p), 2));
    times.add_row(row);
  }
  times.print(std::cout);

  Table speed(title + " — absolute speedup vs sequential");
  speed.set_header(header);
  for (const Series& s : series) {
    std::vector<std::string> row{s.name};
    for (auto p : procs) {
      const double t = s.seconds_at(p);
      row.push_back(t > 0 ? fmt_f(seq_seconds / t, 2) : "-");
    }
    speed.add_row(row);
  }
  speed.print(std::cout);
}

/// Prints the paper's "relative speedup from->to" summary line per series.
inline void print_relative(const std::string& title, std::uint32_t from,
                           std::uint32_t to,
                           const std::vector<Series>& series) {
  Table t(title + " — relative speedup " + std::to_string(from) + "->" +
          std::to_string(to) + " processors");
  t.set_header({"strategy", "relative speedup"});
  for (const Series& s : series)
    t.add_row({s.name, fmt_f(s.relative_speedup(from, to), 2)});
  t.print(std::cout);
}

/// Coefficient of variation of per-(proc,phase) iteration counts — the
/// paper's load-balance diagnostic (Sec. 5.4.3).
inline double phase_imbalance(const core::RunResult& r) {
  return coefficient_of_variation(r.phase_iterations);
}

/// One figure as a compact JSON object: title, sequential baseline, and
/// every series' (procs, seconds, speedup) points.
inline std::string figure_json(const std::string& title, double seq_seconds,
                               const std::vector<std::uint32_t>& procs,
                               const std::vector<Series>& series) {
  std::vector<std::string> procs_json;
  for (const auto p : procs) procs_json.push_back(std::to_string(p));
  std::vector<std::string> series_json;
  for (const Series& s : series) {
    std::vector<std::string> pts;
    for (const Point& pt : s.points) {
      JsonWriter pw;
      pw.field("procs", pt.procs)
          .field("seconds", pt.seconds)
          .field("speedup", pt.speedup);
      pts.push_back(pw.str());
    }
    JsonWriter sw;
    sw.field("name", s.name).raw_field("points", json_array(pts));
    series_json.push_back(sw.str());
  }
  JsonWriter w;
  w.field("figure", title)
      .field("seq_seconds", seq_seconds)
      .raw_field("procs", json_array(procs_json))
      .raw_field("series", json_array(series_json));
  return w.str();
}

/// Honors the shared --json=<path> flag: appends one JSONL record per
/// figure so every bench can emit machine-readable results alongside its
/// tables (the BENCH_*.json perf trajectory).
inline void maybe_write_figure_json(const Options& opt,
                                    const std::string& title,
                                    double seq_seconds,
                                    const std::vector<std::uint32_t>& procs,
                                    const std::vector<Series>& series) {
  if (!opt.has("json")) return;
  append_json_line(opt.get("json"),
                   figure_json(title, seq_seconds, procs, series));
  std::printf("appended JSON record for '%s' to %s\n", title.c_str(),
              opt.get("json").c_str());
}

}  // namespace earthred::bench

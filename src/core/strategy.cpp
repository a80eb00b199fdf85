#include "core/strategy.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/kernel.hpp"
#include "support/check.hpp"
#include "support/cpu_features.hpp"
#include "support/str.hpp"

namespace earthred::core {

std::string_view to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::Auto: return "auto";
    case StrategyKind::Phased: return "phased";
    case StrategyKind::Privatized: return "privatized";
  }
  return "phased";
}

StrategyKind parse_strategy(std::string_view name) {
  if (name == "auto") return StrategyKind::Auto;
  if (name == "phased" || name == "rotation") return StrategyKind::Phased;
  if (name == "privatized" || name == "private")
    return StrategyKind::Privatized;
  throw check_error(strformat(
      "E-STRATEGY-NAME: unknown strategy '%.*s' "
      "(expected auto|phased|privatized)",
      static_cast<int>(name.size()), name.data()));
}

StrategyKind effective_strategy(StrategyKind requested) {
  if (requested != StrategyKind::Auto) return requested;
  const char* forced = std::getenv("EARTHRED_FORCE_STRATEGY");
  if (forced == nullptr || *forced == '\0') return requested;
  return parse_strategy(forced);
}

StrategyInputs strategy_inputs(const KernelShape& shape,
                               std::uint32_t num_procs, std::uint32_t k) {
  StrategyInputs in;
  in.num_nodes = shape.num_nodes == 0 ? 1 : shape.num_nodes;
  in.num_edges = shape.num_edges == 0 ? 1 : shape.num_edges;
  in.num_refs = shape.num_refs == 0 ? 1 : shape.num_refs;
  in.num_reduction_arrays =
      shape.num_reduction_arrays == 0 ? 1 : shape.num_reduction_arrays;
  in.num_procs = num_procs == 0 ? 1 : num_procs;
  in.k = k == 0 ? 1 : k;
  in.hw_threads = support::hardware_threads();
  return in;
}

namespace {

// Cost-model constants, in units of one fused gather-accumulate (the
// per-reference compute work every strategy pays identically). They are
// coarse on purpose: the model only has to rank strategies correctly on
// real shapes (bench_hotpath's strategy section gates the auto pick at
// >= 0.9x the best measured strategy), not predict absolute time.
constexpr double kCopyCost = 0.45;    ///< one double copied, per double
constexpr double kSyncCost = 5.0;     ///< one semaphore/barrier handoff
constexpr double kOversubFactor = 100.0;  ///< a handoff between procs
                                          ///< sharing a hardware thread is
                                          ///< a scheduler round trip
                                          ///< (~10us), not a cache-line
                                          ///< ping (~100ns)

}  // namespace

std::vector<StrategyCost> score_strategies(const StrategyInputs& in) {
  const double N = static_cast<double>(in.num_nodes);
  const double E = static_cast<double>(in.num_edges);
  const double P = in.num_procs;
  const double K = in.k;
  const double R = in.num_refs;
  const double RA = in.num_reduction_arrays;

  // When the plan runs more procs than the host has hardware threads,
  // every handoff parks a thread through the OS scheduler; price sync at
  // the context-switch rate. hw_threads == 0 (the compiler's static
  // pass) models a dedicated host and keeps the base rate.
  const bool oversub = in.hw_threads != 0 && in.num_procs > in.hw_threads;
  const double sync_unit = oversub ? kSyncCost * kOversubFactor : kSyncCost;
  const char* sync_note = oversub ? ", oversubscribed host" : "";

  std::vector<StrategyCost> scores;
  scores.reserve(2);

  // Phased: every portion (N/(k*P) elements x RA arrays) is copied
  // through the staging slot of each of the k*P phases once per sweep —
  // P * N * RA doubles of rotation traffic — plus two semaphore handoffs
  // per (proc, phase). The native executor now hands portions over
  // without copying them, so the rotate term overstates phased; it stays
  // as it is because auto picks, and with them results, follow it.
  {
    const double rotate = kCopyCost * P * N * RA / E;
    const double sync = sync_unit * 2.0 * K * P * P / E;
    StrategyCost c;
    c.strategy = StrategyKind::Phased;
    c.cost_per_edge = R + rotate + sync;
    c.rationale = strformat(
        "compute %.2f + rotate %.2f (%.2g portion-doubles/edge) + "
        "sync %.2f (%u phases x %u procs%s)",
        R, rotate, P * N * RA / E, sync,
        static_cast<unsigned>(in.k * in.num_procs),
        static_cast<unsigned>(in.num_procs), sync_note);
    scores.push_back(std::move(c));
  }

  // Privatized: replicas are zeroed and folded every sweep — P reads +
  // 1 write of N * RA doubles — with three barriers per sweep. Replica
  // memory beyond the last-level cache makes the merge bandwidth-bound,
  // modeled as a flat multiplier per doubling.
  {
    const double replica_bytes = P * N * RA * 8.0;
    constexpr double kLlcBytes = 32.0 * 1024 * 1024;
    double mem_penalty = 1.0;
    for (double b = replica_bytes; b > kLlcBytes && mem_penalty < 4.0;
         b /= 2.0)
      mem_penalty += 0.25;
    const double merge = kCopyCost * (P + 1.0) * N * RA / E * mem_penalty;
    const double sync = sync_unit * 3.0 * P / E;
    StrategyCost c;
    c.strategy = StrategyKind::Privatized;
    c.cost_per_edge = R + merge + sync;
    c.rationale = strformat(
        "compute %.2f + merge %.2f (%u replicas of %.2g doubles, "
        "mem penalty %.2fx) + sync %.2f (3 barriers%s)",
        R, merge, static_cast<unsigned>(in.num_procs), N * RA,
        mem_penalty, sync, sync_note);
    scores.push_back(std::move(c));
  }

  return scores;
}

StrategyKind choose_strategy(const StrategyInputs& in) {
  const std::vector<StrategyCost> scores = score_strategies(in);
  const auto cheaper = [](const StrategyCost& a, const StrategyCost& b) {
    return a.cost_per_edge < b.cost_per_edge;
  };
  // min_element keeps the first of equal scores: ties go to phased.
  return std::min_element(scores.begin(), scores.end(), cheaper)->strategy;
}

StrategyKind resolve_strategy(StrategyKind requested,
                              const StrategyInputs& in) {
  const StrategyKind effective = effective_strategy(requested);
  return effective == StrategyKind::Auto ? choose_strategy(in) : effective;
}

std::uint64_t privatized_replica_bytes(const KernelShape& shape,
                                       std::uint32_t num_procs) {
  return static_cast<std::uint64_t>(num_procs) * shape.num_nodes *
         shape.num_reduction_arrays * sizeof(double);
}

}  // namespace earthred::core

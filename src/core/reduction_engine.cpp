#include "core/reduction_engine.hpp"

#include <algorithm>
#include <cmath>

#include "earth/machine.hpp"
#include "inspector/rotation.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace earthred::core {

using earth::Cycles;
using earth::EarthMachine;
using earth::FiberContext;
using earth::FiberId;
using inspector::InspectorResult;
using inspector::RotationSchedule;

namespace {

/// Everything one simulated processor owns.
struct ProcState {
  OwnedArrays store;
  ProcArrays arrays;  ///< views of `store`
  InspectorResult insp;
  /// Prefix sums of phase sizes: slot_base[ph] + j is the streaming slot
  /// of the j-th iteration of phase ph (cost-model addressing).
  std::vector<std::uint64_t> slot_base;
};

CostTags make_tags(const KernelShape& shape) {
  earth::ArrayTagAllocator alloc;
  CostTags tags;
  for (std::uint32_t a = 0; a < shape.num_reduction_arrays; ++a)
    tags.reduction.push_back(alloc.next());
  for (std::uint32_t a = 0; a < shape.num_node_read_arrays; ++a)
    tags.node_read.push_back(alloc.next());
  tags.edge_data = alloc.next();
  tags.indir = alloc.next();
  return tags;
}

}  // namespace

RunResult run_rotation_engine(const PhasedKernel& kernel,
                              const RotationOptions& opt) {
  const KernelShape shape = kernel.shape();
  ER_EXPECTS(opt.num_procs >= 1);
  ER_EXPECTS(opt.k >= 1);
  ER_EXPECTS(opt.sweeps >= 1);
  ER_EXPECTS(shape.num_refs >= 1);
  ER_EXPECTS(shape.num_reduction_arrays >= 1);

  const std::uint32_t P = opt.num_procs;
  const std::uint32_t kp = P * opt.k;
  const RotationSchedule sched(shape.num_nodes, P, opt.k);
  const CostTags tags = make_tags(shape);

  // ---- runtime preprocessing (host side; charged on-machine below) ----
  const auto owned_iters = inspector::distribute_iterations(
      shape.num_edges, P, opt.distribution, opt.block_cyclic_size);

  std::vector<ProcState> procs(P);
  for (std::uint32_t p = 0; p < P; ++p) {
    inspector::IterationRefs refs;
    refs.global_iter = owned_iters[p];
    refs.refs.resize(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
      refs.refs[r].reserve(refs.global_iter.size());
      for (std::uint32_t e : refs.global_iter)
        refs.refs[r].push_back(kernel.ref(r, e));
    }
    procs[p].insp =
        inspector::run_light_inspector(sched, p, refs, opt.inspector);

    procs[p].store.reduction.assign(
        shape.num_reduction_arrays,
        std::vector<double>(procs[p].insp.local_array_size, 0.0));
    procs[p].store.node_read.assign(
        shape.num_node_read_arrays,
        std::vector<double>(shape.num_nodes, 0.0));
    kernel.init_node_arrays(procs[p].store.node_read);
    procs[p].arrays = procs[p].store.view();

    procs[p].slot_base.assign(kp + 1, 0);
    for (std::uint32_t ph = 0; ph < kp; ++ph)
      procs[p].slot_base[ph + 1] =
          procs[p].slot_base[ph] + procs[p].insp.phases[ph].iter_global.size();
  }

  // ---- machine & fiber graph ------------------------------------------
  earth::MachineConfig mcfg = opt.machine;
  mcfg.num_nodes = P;
  EarthMachine m(mcfg);

  // Stage 1: charge the LightInspector (local work, no communication).
  ER_EXPECTS(opt.inspector_work_items.empty() ||
             opt.inspector_work_items.size() == P);
  for (std::uint32_t p = 0; p < P; ++p) {
    const std::uint64_t items = opt.inspector_work_items.empty()
                                    ? owned_iters[p].size()
                                    : opt.inspector_work_items[p];
    const std::uint64_t work =
        items * shape.num_refs * opt.inspector_cycles_per_ref;
    const FiberId f = m.add_fiber(
        p, 0, [work](FiberContext& ctx) { ctx.charge(work); },
        "inspector[" + std::to_string(p) + "]");
    m.credit(f);
  }
  const Cycles t_inspector = m.run();

  // Stage 2: the phased sweep graph.
  std::vector<std::vector<FiberId>> compute(P, std::vector<FiberId>(kp));
  // channel_gate[p][q]: counts the k node-read broadcasts per sweep that
  // processor p receives from q; fires once per sweep per sender and
  // contributes one signal to compute[p][0]. Per-channel counting is safe
  // because each sender's messages arrive in order (port serialization),
  // so counts can never mix sweeps.
  std::vector<std::vector<FiberId>> channel_gate(P, std::vector<FiberId>(P));

  const std::uint32_t sweeps = opt.sweeps;
  const bool collect = opt.collect_results;

  // Reliable transport (opt.reliable): one channel per ring edge and
  // target phase (ring_ch[q][tph], fed by ring_sender(q)) and one per
  // (receiver, portion) replication pair (bc_ch[q][pid], fed by the
  // portion's final owner). Each channel carries a fixed [begin, end)
  // region, so its accept callback knows where to scatter; the channels
  // are built after the gates below, once every notify fiber exists —
  // the compute bodies capture the (empty) vectors by reference.
  std::vector<std::vector<std::unique_ptr<earth::ReliableChannel>>> ring_ch(
      P);
  std::vector<std::vector<std::unique_ptr<earth::ReliableChannel>>> bc_ch(P);

  RunResult result;
  if (collect) {
    result.reduction.assign(shape.num_reduction_arrays,
                            std::vector<double>(shape.num_nodes, 0.0));
  }

  for (std::uint32_t p = 0; p < P; ++p) {
    for (std::uint32_t ph = 0; ph < kp; ++ph) {
      const std::uint32_t sync =
          (ph == 0) ? (P > 1 ? 2 + (P - 1) : 2) : 2;
      compute[p][ph] = m.add_fiber(
          p, sync,
          [&, p, ph](FiberContext& ctx) {
            ProcState& ps = procs[p];
            const inspector::PhaseSchedule& phase = ps.insp.phases[ph];
            const std::uint64_t sweep = ctx.activation();

            // -- main loop: iterations assigned to this phase ----------
            ctx.charge_intops(4 + phase.iter_global.size());
            std::vector<std::uint32_t> redirected(shape.num_refs);
            for (std::size_t j = 0; j < phase.iter_global.size(); ++j) {
              for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
                redirected[r] = phase.row(r)[j];
                ctx.load(tags.indir,
                         (ps.slot_base[ph] + j) * shape.num_refs + r, 4);
              }
              // Edge-aligned data is NOT gathered into per-phase copies
              // (the inspector rewrites only the indirection arrays), so
              // its cost address is the iteration's position in the local
              // edge arrays — strided within a phase, which is the
              // locality the paper reports losing to phase partitioning.
              kernel.compute_edge(ctx, tags, phase.iter_global[j],
                                  phase.iter_local[j], redirected,
                                  ps.arrays);
            }

            // -- second loop: fold buffered contributions --------------
            ctx.charge_intops(2 + phase.copy_dst.size());
            for (std::size_t j = 0; j < phase.copy_dst.size(); ++j) {
              const std::uint32_t dst = phase.copy_dst[j];
              const std::uint32_t src = phase.copy_src[j];
              for (std::uint32_t a = 0; a < shape.num_reduction_arrays;
                   ++a) {
                ctx.load(tags.reduction[a], src);
                ctx.load(tags.reduction[a], dst);
                ctx.charge_flops(1);
                ctx.store(tags.reduction[a], dst);
                ctx.store(tags.reduction[a], src);
                ps.arrays.reduction[a][dst] += ps.arrays.reduction[a][src];
                ps.arrays.reduction[a][src] = 0.0;
              }
            }

            const std::uint32_t pid = sched.owned_portion(p, ph);
            const std::uint32_t begin = sched.portion_begin(pid);
            const std::uint32_t end = sched.portion_end(pid);

            // -- portion complete: node update + replication ------------
            if (sched.last_owning_phase(pid) == ph) {
              kernel.update_nodes(ctx, tags, begin, end, begin, ps.arrays);

              if (collect && sweep + 1 == sweeps) {
                for (std::uint32_t a = 0; a < shape.num_reduction_arrays;
                     ++a)
                  std::copy(ps.arrays.reduction[a].begin() + begin,
                            ps.arrays.reduction[a].begin() + end,
                            result.reduction[a].begin() + begin);
              }

              // Zero the portion so the next sweep accumulates afresh.
              for (std::uint32_t a = 0; a < shape.num_reduction_arrays;
                   ++a) {
                std::fill(ps.arrays.reduction[a].begin() + begin,
                          ps.arrays.reduction[a].begin() + end, 0.0);
                for (std::uint32_t e = begin; e < end; ++e)
                  ctx.store(tags.reduction[a], e);
              }

              // Broadcast the refreshed node-read portion.
              if (opt.reliable) {
                const std::size_t len = end - begin;
                std::vector<double> buf(len * shape.num_node_read_arrays);
                for (std::uint32_t a = 0; a < shape.num_node_read_arrays;
                     ++a)
                  std::copy(ps.arrays.node_read[a].begin() + begin,
                            ps.arrays.node_read[a].begin() + end,
                            buf.begin() + a * len);
                for (std::uint32_t q = 0; q < P; ++q) {
                  if (q == p) continue;
                  bc_ch[q][pid]->send(ctx, buf.data(), buf.size());
                }
              } else {
                const std::uint64_t bbytes =
                    static_cast<std::uint64_t>(end - begin) * 8 *
                    std::max<std::uint32_t>(shape.num_node_read_arrays, 1);
                for (std::uint32_t q = 0; q < P; ++q) {
                  if (q == p) continue;
                  ctx.send(channel_gate[q][p], bbytes,
                           [&procs, p, q, begin, end, &shape] {
                             for (std::uint32_t a = 0;
                                  a < shape.num_node_read_arrays; ++a)
                               std::copy(
                                   procs[p].arrays.node_read[a].begin() +
                                       begin,
                                   procs[p].arrays.node_read[a].begin() + end,
                                   procs[q].arrays.node_read[a].begin() +
                                       begin);
                           });
                }
              }
            }

            // -- forward the reduction portion around the ring ----------
            std::uint32_t tph = ph + opt.k;
            std::uint64_t tsweep = sweep + (tph >= kp ? 1 : 0);
            tph %= kp;
            if (tsweep < sweeps) {
              const std::uint32_t q = sched.next_owner(p);
              if (opt.reliable) {
                const std::size_t len = end - begin;
                std::vector<double> buf(len * shape.num_reduction_arrays);
                for (std::uint32_t a = 0; a < shape.num_reduction_arrays;
                     ++a)
                  std::copy(ps.arrays.reduction[a].begin() + begin,
                            ps.arrays.reduction[a].begin() + end,
                            buf.begin() + a * len);
                ring_ch[q][tph]->send(ctx, buf.data(), buf.size());
              } else {
                const std::uint64_t pbytes =
                    static_cast<std::uint64_t>(end - begin) * 8 *
                    shape.num_reduction_arrays;
                ctx.send(compute[q][tph], pbytes,
                         [&procs, p, q, begin, end, &shape] {
                           for (std::uint32_t a = 0;
                                a < shape.num_reduction_arrays; ++a)
                             std::copy(
                                 procs[p].arrays.reduction[a].begin() + begin,
                                 procs[p].arrays.reduction[a].begin() + end,
                                 procs[q].arrays.reduction[a].begin() +
                                     begin);
                         });
              }
            }

            // -- chain to the next local phase ---------------------------
            std::uint32_t nph = ph + 1;
            std::uint64_t nsweep = sweep + (nph == kp ? 1 : 0);
            nph %= kp;
            if (nsweep < sweeps) ctx.sync(compute[p][nph]);
          },
          "compute[" + std::to_string(p) + "][" + std::to_string(ph) + "]");
    }
  }

  if (P > 1) {
    for (std::uint32_t p = 0; p < P; ++p) {
      for (std::uint32_t q = 0; q < P; ++q) {
        if (q == p) continue;
        channel_gate[p][q] = m.add_fiber(
            p, opt.k,
            [&, p](FiberContext& ctx) { ctx.sync(compute[p][0]); },
            "gate[" + std::to_string(p) + "<-" + std::to_string(q) + "]");
      }
    }
  }

  if (opt.reliable) {
    for (std::uint32_t q = 0; q < P; ++q) {
      ring_ch[q].resize(kp);
      bc_ch[q].resize(kp);
      const std::uint32_t sender = sched.ring_sender(q);
      for (std::uint32_t tph = 0; tph < kp; ++tph) {
        // A (q, tph) slot whose transfer count is zero (tph < k with a
        // single sweep) never receives — no channel needed.
        if (sched.phase_transfers(tph, sweeps) == 0) continue;
        const std::uint32_t pid = sched.owned_portion(q, tph);
        const std::uint32_t begin = sched.portion_begin(pid);
        const std::uint32_t end = sched.portion_end(pid);
        ring_ch[q][tph] = std::make_unique<earth::ReliableChannel>(
            m, sender, q, compute[q][tph],
            [&procs, q, begin, end, &shape](const std::vector<double>& pl) {
              const std::size_t len = end - begin;
              ER_ENSURES(pl.size() == len * shape.num_reduction_arrays);
              for (std::uint32_t a = 0; a < shape.num_reduction_arrays; ++a)
                std::copy(pl.begin() + a * len, pl.begin() + (a + 1) * len,
                          procs[q].arrays.reduction[a].begin() + begin);
            },
            "ring[" + std::to_string(sender) + "->" + std::to_string(q) +
                "][" + std::to_string(tph) + "]",
            opt.reliable_opt);
      }
      if (P > 1) {
        for (std::uint32_t pid = 0; pid < kp; ++pid) {
          const std::uint32_t owner = sched.final_owner(pid);
          if (owner == q) continue;
          const std::uint32_t begin = sched.portion_begin(pid);
          const std::uint32_t end = sched.portion_end(pid);
          bc_ch[q][pid] = std::make_unique<earth::ReliableChannel>(
              m, owner, q, channel_gate[q][owner],
              [&procs, q, begin, end,
               &shape](const std::vector<double>& pl) {
                const std::size_t len = end - begin;
                ER_ENSURES(pl.size() == len * shape.num_node_read_arrays);
                for (std::uint32_t a = 0; a < shape.num_node_read_arrays;
                     ++a)
                  std::copy(pl.begin() + a * len,
                            pl.begin() + (a + 1) * len,
                            procs[q].arrays.node_read[a].begin() + begin);
              },
              "bcast[" + std::to_string(owner) + "->" + std::to_string(q) +
                  "][" + std::to_string(pid) + "]",
              opt.reliable_opt);
        }
      }
    }
  }

  // Initial conditions: phase 0 has its predecessor, its portion, and (for
  // sweep 0) all replication signals satisfied by construction; phases
  // 1..k-1 start with their portions already local.
  for (std::uint32_t p = 0; p < P; ++p) {
    m.credit(compute[p][0], P > 1 ? 2 + (P - 1) : 2);
    for (std::uint32_t ph = 1; ph < opt.k && ph < kp; ++ph)
      m.credit(compute[p][ph], 1);
  }

  // Quiescence watchdog: if any message is lost (a fault without the
  // reliable transport, or a protocol bug), the machine drains early and
  // names the starved fibers instead of silently reporting a bogus
  // makespan alongside wrong results.
  for (std::uint32_t p = 0; p < P; ++p) {
    for (std::uint32_t ph = 0; ph < kp; ++ph)
      m.expect_activations(compute[p][ph], sweeps);
    if (P > 1) {
      for (std::uint32_t q = 0; q < P; ++q)
        if (q != p) m.expect_activations(channel_gate[p][q], sweeps);
    }
  }

  const Cycles t_total = m.run();

  // ---- results ---------------------------------------------------------
  result.total_cycles = t_total;
  result.inspector_cycles = t_inspector;
  result.machine = m.stats();
  if (opt.reliable) {
    for (const auto& row : ring_ch)
      for (const auto& ch : row)
        if (ch) result.reliable.add(ch->stats());
    for (const auto& row : bc_ch)
      for (const auto& ch : row)
        if (ch) result.reliable.add(ch->stats());
  }
  if (mcfg.trace) result.gantt = m.trace().render_gantt(P);
  result.phases_per_proc = kp;
  result.phase_iterations.reserve(static_cast<std::size_t>(P) * kp);
  for (std::uint32_t p = 0; p < P; ++p)
    for (const auto s : procs[p].insp.phase_sizes())
      result.phase_iterations.push_back(s);

  if (collect) {
    result.node_read.assign(shape.num_node_read_arrays,
                            std::vector<double>(shape.num_nodes, 0.0));
    result.node_read = procs[0].store.node_read;
    // Replication invariant: every processor holds identical node arrays
    // after the final broadcasts drain.
    for (std::uint32_t p = 1; p < P; ++p)
      for (std::uint32_t a = 0; a < shape.num_node_read_arrays; ++a)
        ER_ENSURES_MSG(procs[p].store.node_read[a] ==
                           procs[0].store.node_read[a],
                       "node-read replicas diverged");
  }

  // Every compute fiber must have fired exactly `sweeps` times.
  for (std::uint32_t p = 0; p < P; ++p)
    for (std::uint32_t ph = 0; ph < kp; ++ph)
      ER_ENSURES_MSG(m.fiber_activations(compute[p][ph]) == sweeps,
                     "phase fiber fired wrong number of times");

  ER_LOG(Debug) << "rotation engine: P=" << P << " k=" << opt.k
                << " cycles=" << t_total;
  return result;
}

}  // namespace earthred::core

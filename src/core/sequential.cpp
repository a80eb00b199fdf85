#include "core/sequential.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "earth/machine.hpp"
#include "support/check.hpp"

namespace earthred::core {

using earth::EarthMachine;
using earth::FiberContext;
using earth::FiberId;

namespace {
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

RunResult run_sequential_kernel(const PhasedKernel& kernel,
                                const SequentialOptions& opt) {
  const KernelShape shape = kernel.shape();
  ER_EXPECTS(opt.sweeps >= 1);
  const CostTags tags = make_tags(shape);

  OwnedArrays store;
  store.reduction.assign(shape.num_reduction_arrays,
                         std::vector<double>(shape.num_nodes, 0.0));
  store.node_read.assign(shape.num_node_read_arrays,
                         std::vector<double>(shape.num_nodes, 0.0));
  kernel.init_node_arrays(store.node_read);
  ProcArrays arrays = store.view();

  earth::MachineConfig mcfg = opt.machine;
  mcfg.num_nodes = 1;
  EarthMachine m(mcfg);

  std::vector<FiberId> self(1);
  const std::uint32_t sweeps = opt.sweeps;
  self[0] = m.add_fiber(
      0, 1,
      [&](FiberContext& ctx) {
        std::vector<std::uint32_t> redirected(shape.num_refs);
        ctx.charge_intops(4 + shape.num_edges);
        for (std::uint64_t e = 0; e < shape.num_edges; ++e) {
          for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
            redirected[r] = kernel.ref(r, e);
            ctx.load(tags.indir, e * shape.num_refs + r, 4);
          }
          kernel.compute_edge(ctx, tags, e, e, redirected, arrays);
        }
        kernel.update_nodes(ctx, tags, 0, shape.num_nodes, 0, arrays);
        if (ctx.activation() + 1 < sweeps) {
          // Re-zero reduction arrays for the next sweep.
          for (std::uint32_t a = 0; a < shape.num_reduction_arrays; ++a) {
            std::fill(arrays.reduction[a].begin(),
                      arrays.reduction[a].end(), 0.0);
            for (std::uint32_t v = 0; v < shape.num_nodes; ++v)
              ctx.store(tags.reduction[a], v);
          }
          ctx.sync(self[0]);
        }
      },
      "sequential");
  m.credit(self[0]);

  RunResult result;
  result.total_cycles = m.run();
  result.inspector_cycles = 0;
  result.machine = m.stats();
  result.phases_per_proc = 1;
  result.phase_iterations = {shape.num_edges};
  if (opt.collect_results) {
    result.reduction = std::move(store.reduction);
    result.node_read = std::move(store.node_read);
  }
  return result;
}

RunResult run_sequential_mvm(const sparse::CsrMatrix& A,
                             std::span<const double> x,
                             const SequentialOptions& opt) {
  ER_EXPECTS(x.size() == A.ncols());
  ER_EXPECTS(opt.sweeps >= 1);

  earth::ArrayTagAllocator alloc;
  const earth::ArrayTag tag_x = alloc.next();
  const earth::ArrayTag tag_y = alloc.next();
  const earth::ArrayTag tag_acol = alloc.next();
  const earth::ArrayTag tag_aval = alloc.next();
  const earth::ArrayTag tag_rptr = alloc.next();

  std::vector<double> y(A.nrows(), 0.0);

  earth::MachineConfig mcfg = opt.machine;
  mcfg.num_nodes = 1;
  EarthMachine m(mcfg);

  std::vector<FiberId> self(1);
  const std::uint32_t sweeps = opt.sweeps;
  self[0] = m.add_fiber(
      0, 1,
      [&](FiberContext& ctx) {
        const auto row_ptr = A.row_ptr();
        const auto col_idx = A.col_idx();
        const auto values = A.values();
        ctx.charge_intops(4 + A.nrows());
        for (std::uint32_t r = 0; r < A.nrows(); ++r) {
          double acc = 0.0;
          ctx.load(tag_rptr, r, 8);
          for (std::uint64_t j = row_ptr[r]; j < row_ptr[r + 1]; ++j) {
            ctx.load(tag_acol, j, 4);
            ctx.load(tag_aval, j, 8);
            ctx.load(tag_x, col_idx[j], 8);
            ctx.charge_flops(2);
            acc += values[j] * x[col_idx[j]];
          }
          ctx.store(tag_y, r, 8);
          y[r] = acc;
        }
        if (ctx.activation() + 1 < sweeps) ctx.sync(self[0]);
      },
      "sequential-mvm");
  m.credit(self[0]);

  RunResult result;
  result.total_cycles = m.run();
  result.machine = m.stats();
  result.phases_per_proc = 1;
  result.phase_iterations = {A.nnz()};
  if (opt.collect_results) result.reduction.assign(1, y);
  return result;
}

}  // namespace earthred::core

#include "compiler/compiled_kernel.hpp"

#include <algorithm>
#include <functional>

#include "support/check.hpp"

namespace earthred::compiler {

namespace {

const ArrayDecl* find_decl(const Program& program, const std::string& name) {
  for (const ArrayDecl& a : program.arrays)
    if (a.name == name) return &a;
  return nullptr;
}

std::uint64_t param_value(const DataEnv& env, const std::string& name) {
  const auto it = env.params.find(name);
  ER_CHECK_MSG(it != env.params.end(),
               "parameter '" + name + "' not bound in DataEnv");
  return it->second;
}

void collect_refs(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == ExprKind::ArrayRef) out.push_back(&e);
  if (e.lhs) collect_refs(*e.lhs, out);
  if (e.rhs) collect_refs(*e.rhs, out);
}

}  // namespace

CompiledKernel::CompiledKernel(const Program& program,
                               const FissionedLoop& loop, DataEnv env) {
  // ---- extents ---------------------------------------------------------
  num_edges_ = loop.loop.hi_param.empty()
                   ? static_cast<std::uint64_t>(loop.loop.hi_literal)
                   : param_value(env, loop.loop.hi_param);

  reduction_names_ = loop.group.reduction_arrays;
  lhs_indirections_ = loop.group.indirection_arrays;
  gather_names_ = loop.gather_arrays;
  edge_names_ = loop.edge_arrays;

  std::string node_param;
  for (const std::string& rn : reduction_names_) {
    const ArrayDecl* d = find_decl(program, rn);
    ER_CHECK_MSG(d != nullptr, "missing declaration for '" + rn + "'");
    if (node_param.empty()) node_param = d->size_param;
    ER_CHECK_MSG(d->size_param == node_param,
                 "reduction arrays of one loop must share an extent");
  }
  for (const std::string& gn : gather_names_) {
    const ArrayDecl* d = find_decl(program, gn);
    ER_CHECK_MSG(d != nullptr, "missing declaration for '" + gn + "'");
    ER_CHECK_MSG(d->size_param == node_param,
                 "gather array '" + gn + "' must span the node space");
  }
  num_nodes_ = static_cast<std::uint32_t>(param_value(env, node_param));

  // ---- id maps ----------------------------------------------------------
  all_indirections_ = lhs_indirections_;
  for (const Stmt& s : loop.loop.body) {
    std::vector<const Expr*> refs;
    if (s.value) collect_refs(*s.value, refs);
    for (const Expr* r : refs)
      if (!r->index.is_direct() &&
          std::find(all_indirections_.begin(), all_indirections_.end(),
                    r->index.indirection) == all_indirections_.end())
        all_indirections_.push_back(r->index.indirection);
  }
  for (std::uint32_t i = 0; i < all_indirections_.size(); ++i)
    indirection_id_[all_indirections_[i]] = i;
  for (std::uint32_t i = 0; i < reduction_names_.size(); ++i)
    reduction_id_[reduction_names_[i]] = i;
  for (std::uint32_t i = 0; i < gather_names_.size(); ++i)
    gather_id_[gather_names_[i]] = i;
  for (std::uint32_t i = 0; i < edge_names_.size(); ++i)
    edge_id_[edge_names_[i]] = i;

  // ---- bind data ---------------------------------------------------------
  indirection_data_.resize(all_indirections_.size());
  for (std::uint32_t i = 0; i < all_indirections_.size(); ++i) {
    const auto it = env.int_arrays.find(all_indirections_[i]);
    ER_CHECK_MSG(it != env.int_arrays.end(),
                 "int array '" + all_indirections_[i] + "' not bound");
    ER_CHECK_MSG(it->second.size() == num_edges_,
                 "indirection '" + all_indirections_[i] +
                     "' has the wrong length");
    for (const std::uint32_t v : it->second)
      ER_CHECK_MSG(v < num_nodes_, "indirection value out of range in '" +
                                       all_indirections_[i] + "'");
    indirection_data_[i] = it->second;
  }
  edge_data_.resize(edge_names_.size());
  for (std::uint32_t i = 0; i < edge_names_.size(); ++i) {
    const auto it = env.real_arrays.find(edge_names_[i]);
    ER_CHECK_MSG(it != env.real_arrays.end(),
                 "real array '" + edge_names_[i] + "' not bound");
    ER_CHECK_MSG(it->second.size() == num_edges_,
                 "edge array '" + edge_names_[i] + "' has the wrong length");
    edge_data_[i] = it->second;
  }
  gather_init_.resize(gather_names_.size());
  for (std::uint32_t i = 0; i < gather_names_.size(); ++i) {
    const auto it = env.real_arrays.find(gather_names_[i]);
    ER_CHECK_MSG(it != env.real_arrays.end(),
                 "real array '" + gather_names_[i] + "' not bound");
    ER_CHECK_MSG(it->second.size() == num_nodes_,
                 "node array '" + gather_names_[i] +
                     "' has the wrong length");
    gather_init_[i] = it->second;
  }

  // ---- code generation ----------------------------------------------------
  for (const Stmt& s : loop.loop.body) {
    if (s.kind == StmtKind::ScalarAssign) {
      const auto slot = static_cast<std::uint32_t>(scalar_slot_.size());
      // Fission may replicate a definition chain; keep first slot.
      const auto [it, inserted] = scalar_slot_.emplace(s.target, slot);
      CompiledScalarAssign ca;
      ca.slot = it->second;
      ca.rhs = compile_expr(*s.value);
      scalar_assigns_.push_back(std::move(ca));
    } else {
      CompiledStatement cs;
      cs.reduction_id = reduction_id_.at(s.target);
      const auto slot_it =
          std::find(lhs_indirections_.begin(), lhs_indirections_.end(),
                    s.index.indirection);
      ER_CHECK_MSG(slot_it != lhs_indirections_.end(),
                   "statement uses an indirection outside its group");
      cs.ref_slot = static_cast<std::uint32_t>(
          slot_it - lhs_indirections_.begin());
      cs.subtract = s.subtract;
      cs.rhs = compile_expr(*s.value);
      statements_.push_back(std::move(cs));
    }
  }
}

Bytecode CompiledKernel::compile_expr(const Expr& e) const {
  Bytecode bc;
  std::uint32_t depth = 0, maxd = 0;
  const auto emit = [&](Instr in, std::int32_t delta) {
    bc.code.push_back(in);
    depth = static_cast<std::uint32_t>(static_cast<std::int32_t>(depth) +
                                       delta);
    maxd = std::max(maxd, depth);
  };
  // Post-order walk emitting operands before operators.
  const std::function<void(const Expr&)> walk = [&](const Expr& n) {
    switch (n.kind) {
      case ExprKind::Number:
        emit({Op::PushConst, 0, 0, n.number}, +1);
        break;
      case ExprKind::ScalarRef: {
        const auto it = scalar_slot_.find(n.name);
        ER_CHECK_MSG(it != scalar_slot_.end(),
                     "scalar '" + n.name + "' has no slot");
        emit({Op::LoadScalar, it->second, 0, 0.0}, +1);
        break;
      }
      case ExprKind::ArrayRef: {
        if (n.index.is_direct()) {
          const auto it = edge_id_.find(n.name);
          ER_CHECK_MSG(it != edge_id_.end(),
                       "edge array '" + n.name + "' has no id");
          emit({Op::LoadEdge, it->second, 0, 0.0}, +1);
        } else {
          const auto git = gather_id_.find(n.name);
          ER_CHECK_MSG(git != gather_id_.end(),
                       "gather array '" + n.name + "' has no id");
          emit({Op::LoadNode, git->second,
                indirection_id_.at(n.index.indirection), 0.0},
               +1);
        }
        break;
      }
      case ExprKind::Unary:
        walk(*n.lhs);
        emit({Op::Neg, 0, 0, 0.0}, 0);
        break;
      case ExprKind::Binary:
        walk(*n.lhs);
        walk(*n.rhs);
        switch (n.op) {
          case BinOp::Add: emit({Op::Add, 0, 0, 0.0}, -1); break;
          case BinOp::Sub: emit({Op::Sub, 0, 0, 0.0}, -1); break;
          case BinOp::Mul: emit({Op::Mul, 0, 0, 0.0}, -1); break;
          case BinOp::Div: emit({Op::Div, 0, 0, 0.0}, -1); break;
        }
        break;
    }
  };
  walk(e);
  bc.max_stack = maxd;
  return bc;
}

core::KernelShape CompiledKernel::shape() const {
  return core::KernelShape{
      .num_nodes = num_nodes_,
      .num_edges = num_edges_,
      .num_refs = static_cast<std::uint32_t>(lhs_indirections_.size()),
      .num_reduction_arrays =
          static_cast<std::uint32_t>(reduction_names_.size()),
      .num_node_read_arrays =
          static_cast<std::uint32_t>(gather_names_.size()),
  };
}

std::uint32_t CompiledKernel::ref(std::uint32_t r,
                                  std::uint64_t edge) const {
  ER_EXPECTS(r < lhs_indirections_.size());
  ER_EXPECTS(edge < num_edges_);
  // LHS indirections occupy the first slots of all_indirections_ in order.
  return indirection_data_[r][edge];
}

void CompiledKernel::init_node_arrays(
    std::vector<std::vector<double>>& arrays) const {
  for (std::size_t i = 0; i < gather_init_.size(); ++i)
    arrays[i] = gather_init_[i];
}

double CompiledKernel::eval(earth::FiberContext* ctx,
                            const core::CostTags* tags, const Bytecode& bc,
                            std::uint64_t edge, std::uint64_t cost_slot,
                            std::vector<double>& stack,
                            std::vector<double>& scalars,
                            std::span<const std::span<double>> node_read)
    const {
  stack.clear();
  for (const Instr& in : bc.code) {
    switch (in.op) {
      case Op::PushConst:
        stack.push_back(in.c);
        break;
      case Op::LoadScalar:
        if (ctx) ctx->charge_intops(1);
        stack.push_back(scalars[in.a]);
        break;
      case Op::LoadEdge:
        if (ctx)
          ctx->load(tags->edge_data,
                    cost_slot * edge_data_.size() + in.a, 8);
        stack.push_back(edge_data_[in.a][edge]);
        break;
      case Op::LoadNode: {
        const std::uint32_t node = indirection_data_[in.b][edge];
        if (ctx) ctx->load(tags->node_read[in.a], node, 8);
        stack.push_back(node_read.empty() ? gather_init_[in.a][node]
                                          : node_read[in.a][node]);
        break;
      }
      case Op::Add: {
        const double r = stack.back();
        stack.pop_back();
        stack.back() += r;
        if (ctx) ctx->charge_flops(1);
        break;
      }
      case Op::Sub: {
        const double r = stack.back();
        stack.pop_back();
        stack.back() -= r;
        if (ctx) ctx->charge_flops(1);
        break;
      }
      case Op::Mul: {
        const double r = stack.back();
        stack.pop_back();
        stack.back() *= r;
        if (ctx) ctx->charge_flops(1);
        break;
      }
      case Op::Div: {
        const double r = stack.back();
        stack.pop_back();
        stack.back() /= r;
        if (ctx) ctx->charge_flops(8);  // divides are expensive
        break;
      }
      case Op::Neg:
        stack.back() = -stack.back();
        if (ctx) ctx->charge_flops(1);
        break;
    }
  }
  ER_ENSURES(stack.size() == 1);
  return stack.back();
}

void CompiledKernel::compute_edge(earth::FiberContext& ctx,
                                  const core::CostTags& tags,
                                  std::uint64_t edge_global,
                                  std::uint64_t edge_slot,
                                  std::span<const std::uint32_t> redirected,
                                  core::ProcArrays& arrays) const {
  // The machine is single-threaded, so shared scratch is safe.
  thread_local std::vector<double> stack;
  thread_local std::vector<double> scalars;
  scalars.assign(scalar_slot_.size(), 0.0);

  for (const CompiledScalarAssign& ca : scalar_assigns_) {
    scalars[ca.slot] = eval(&ctx, &tags, ca.rhs, edge_global, edge_slot,
                            stack, scalars, arrays.node_read);
  }
  for (const CompiledStatement& cs : statements_) {
    const double v = eval(&ctx, &tags, cs.rhs, edge_global, edge_slot,
                          stack, scalars, arrays.node_read);
    const std::uint32_t where = redirected[cs.ref_slot];
    ctx.load(tags.reduction[cs.reduction_id], where);
    ctx.charge_flops(1);
    ctx.store(tags.reduction[cs.reduction_id], where);
    if (cs.subtract) {
      arrays.reduction[cs.reduction_id][where] -= v;
    } else {
      arrays.reduction[cs.reduction_id][where] += v;
    }
  }
}

void CompiledKernel::update_nodes(earth::FiberContext&,
                                  const core::CostTags&, std::uint32_t,
                                  std::uint32_t, std::uint32_t,
                                  core::ProcArrays&) const {
  // The DSL models the reduction sweep only; there is no node update.
}

std::map<std::string, std::vector<double>>
CompiledKernel::interpret_reference() const {
  std::map<std::string, std::vector<double>> result;
  std::vector<std::vector<double>> red(reduction_names_.size(),
                                       std::vector<double>(num_nodes_, 0.0));
  std::vector<double> stack, scalars;
  for (std::uint64_t e = 0; e < num_edges_; ++e) {
    scalars.assign(scalar_slot_.size(), 0.0);
    for (const CompiledScalarAssign& ca : scalar_assigns_)
      scalars[ca.slot] =
          eval(nullptr, nullptr, ca.rhs, e, e, stack, scalars, {});
    for (const CompiledStatement& cs : statements_) {
      const double v =
          eval(nullptr, nullptr, cs.rhs, e, e, stack, scalars, {});
      const std::uint32_t node = indirection_data_[cs.ref_slot][e];
      if (cs.subtract) {
        red[cs.reduction_id][node] -= v;
      } else {
        red[cs.reduction_id][node] += v;
      }
    }
  }
  for (std::size_t i = 0; i < reduction_names_.size(); ++i)
    result[reduction_names_[i]] = std::move(red[i]);
  return result;
}

}  // namespace earthred::compiler

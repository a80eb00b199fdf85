// Code generation target: a fissioned DSL loop bound to data, runnable on
// every engine through the core::PhasedKernel interface.
//
// Binding model: the host supplies a DataEnv naming parameter values and
// array contents; CompiledKernel validates shapes against the
// declarations, then serves the engine callbacks by interpreting the
// statement bytecodes. Indirection data (the IA arrays) lives here too —
// the engines query it through ref() exactly as they do for hand-written
// kernels, and the LightInspector call the compiler inserted is realized
// by the engine invoking the inspector with this kernel's references.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "compiler/analysis.hpp"
#include "compiler/bytecode.hpp"
#include "core/kernel.hpp"

namespace earthred::compiler {

/// Named data bound to a compiled program.
struct DataEnv {
  std::map<std::string, std::uint64_t> params;
  std::map<std::string, std::vector<double>> real_arrays;
  std::map<std::string, std::vector<std::uint32_t>> int_arrays;
};

/// One accumulate statement after code generation.
struct CompiledStatement {
  std::uint32_t reduction_id = 0;  ///< index into reduction arrays
  std::uint32_t ref_slot = 0;      ///< index into LHS indirection set
  bool subtract = false;
  Bytecode rhs;
};

/// One scalar assignment after code generation.
struct CompiledScalarAssign {
  std::uint32_t slot = 0;
  Bytecode rhs;
};

class CompiledKernel final : public core::PhasedKernel {
 public:
  /// Compiles `loop` (a fission product) against the program's
  /// declarations and binds `env`. Throws compile_error on codegen
  /// problems and check_error on binding mismatches.
  CompiledKernel(const Program& program, const FissionedLoop& loop,
                 DataEnv env);

  // --- PhasedKernel ---------------------------------------------------
  core::KernelShape shape() const override;
  std::uint32_t ref(std::uint32_t r, std::uint64_t edge) const override;
  void init_node_arrays(
      std::vector<std::vector<double>>& arrays) const override;
  void compute_edge(earth::FiberContext& ctx, const core::CostTags& tags,
                    std::uint64_t edge_global, std::uint64_t edge_slot,
                    std::span<const std::uint32_t> redirected,
                    core::ProcArrays& arrays) const override;
  void update_nodes(earth::FiberContext& ctx, const core::CostTags& tags,
                    std::uint32_t begin, std::uint32_t end,
                    std::uint32_t base,
                    core::ProcArrays& arrays) const override;

  // --- introspection ----------------------------------------------------
  const std::vector<std::string>& reduction_names() const {
    return reduction_names_;
  }
  const std::vector<std::string>& indirection_names() const {
    return lhs_indirections_;
  }
  const std::vector<std::string>& node_read_names() const {
    return gather_names_;
  }

  /// Runs the loop directly (sequential interpretation, no machine) and
  /// returns the reduction arrays — ground truth for tests.
  std::map<std::string, std::vector<double>> interpret_reference() const;

 private:
  /// Evaluates `bc` for one edge. Node loads read `node_read`, or the
  /// initial gather values when it is empty (the reference interpreter).
  double eval(earth::FiberContext* ctx, const core::CostTags* tags,
              const Bytecode& bc, std::uint64_t edge,
              std::uint64_t cost_slot,
              std::vector<double>& stack, std::vector<double>& scalars,
              std::span<const std::span<double>> node_read) const;
  Bytecode compile_expr(const Expr& e) const;

  std::uint32_t num_nodes_ = 0;
  std::uint64_t num_edges_ = 0;

  std::vector<std::string> lhs_indirections_;  ///< ref slots
  std::vector<std::string> all_indirections_;  ///< ref slots + gather-only
  std::vector<std::string> reduction_names_;
  std::vector<std::string> gather_names_;      ///< node_read arrays
  std::vector<std::string> edge_names_;

  std::map<std::string, std::uint32_t> scalar_slot_;
  std::map<std::string, std::uint32_t> edge_id_;
  std::map<std::string, std::uint32_t> gather_id_;
  std::map<std::string, std::uint32_t> indirection_id_;
  std::map<std::string, std::uint32_t> reduction_id_;

  std::vector<CompiledScalarAssign> scalar_assigns_;
  std::vector<CompiledStatement> statements_;

  /// Bound data (indirections and iteration-aligned inputs are owned
  /// here; node arrays are copied into engine storage at init).
  std::vector<std::vector<std::uint32_t>> indirection_data_;
  std::vector<std::vector<double>> edge_data_;
  std::vector<std::vector<double>> gather_init_;
};

}  // namespace earthred::compiler

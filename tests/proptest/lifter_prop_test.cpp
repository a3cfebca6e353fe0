// Differential oracle for the lifter's edge construction: lift_program
// dedups each new edge against the edges its own block has added so far;
// the reference below is the original dedup over every edge built so far
// (O(E^2)). Both must give the same edge list, order included, on random
// branch-dense programs (jumps to the fall-through block, calls to the
// next label, self-loops) and on realistic family programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isa/lifter.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "util/rng.hpp"

namespace cfgx {
namespace {

bool is_internal_call(const Instruction& instr) {
  return instr.is_call() && instr.label_target() != nullptr;
}

// Edge construction of the original lifter over the blocks lift_program
// formed (block formation is unchanged), with the full-scan dedup.
std::vector<CfgEdge> full_scan_edges(const LiftedCfg& cfg) {
  const Program& program = cfg.program();
  const auto& instrs = program.instructions();
  const auto owner = [&](std::size_t index) {
    return cfg.block_of_instruction(index);
  };
  const auto target_block = [&](const Instruction& instr) {
    return owner(*program.label_index(instr.label_target()->text));
  };
  std::vector<CfgEdge> edges;
  const auto add_edge = [&](std::uint32_t src, std::uint32_t dst,
                            EdgeKind kind) {
    const CfgEdge edge{src, dst, kind};
    if (std::find(edges.begin(), edges.end(), edge) == edges.end()) {
      edges.push_back(edge);
    }
  };
  for (const BasicBlock& block : cfg.blocks()) {
    const Instruction& final_instr = instrs[block.last - 1];
    const bool has_next = block.last < instrs.size();
    const std::uint32_t next_block = has_next ? owner(block.last) : 0;
    if (final_instr.is_terminator()) continue;
    if (final_instr.is_jump()) {
      if (final_instr.label_target() != nullptr) {
        add_edge(block.id, target_block(final_instr), EdgeKind::Flow);
      }
      if (!final_instr.is_unconditional_jump() && has_next) {
        add_edge(block.id, next_block, EdgeKind::Flow);
      }
      continue;
    }
    if (is_internal_call(final_instr)) {
      add_edge(block.id, target_block(final_instr), EdgeKind::Call);
      if (has_next) add_edge(block.id, next_block, EdgeKind::Flow);
      continue;
    }
    if (has_next) add_edge(block.id, next_block, EdgeKind::Flow);
  }
  return edges;
}

// A random program of up to 80 instructions over a handful of labels.
// Labels sit right before an instruction, so every target is in range; a
// small label count makes duplicate targets (a conditional jump to its own
// fall-through block) and self-loops frequent.
Program random_program(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t length = 1 + rng.uniform_index(80);
  const std::size_t label_count = 1 + rng.uniform_index(6);
  std::vector<std::size_t> label_at(label_count);
  for (std::size_t& at : label_at) at = rng.uniform_index(length);
  const auto label = [](std::size_t k) {
    std::string name = "L";
    name += std::to_string(k);
    return name;
  };
  const auto any_label = [&] { return label(rng.uniform_index(label_count)); };

  ProgramBuilder b;
  for (std::size_t i = 0; i < length; ++i) {
    for (std::size_t k = 0; k < label_count; ++k) {
      if (label_at[k] == i) b.label(label(k));
    }
    switch (rng.uniform_index(7)) {
      case 0: b.jmp(any_label()); break;
      case 1: b.jcc(Opcode::Jne, any_label()); break;
      case 2: b.jcc(Opcode::Loop, any_label()); break;
      case 3: b.call_label(any_label()); break;
      case 4: b.call_api("ds:GetProcAddress"); break;
      case 5: b.ret(); break;
      default:
        b.emit(Opcode::Inc, Operand::make_reg(Register::Eax));
        break;
    }
  }
  return b.build();
}

TEST(LifterOracle, EdgesMatchFullScanDedupOnRandomPrograms) {
  CHECK_PROPERTY(
      "lift_program edges == full-scan dedup edges (random programs)",
      proptest::integers(1, 1 << 24), [](std::int64_t seed) {
        const Program program =
            random_program(static_cast<std::uint64_t>(seed));
        const LiftedCfg cfg = lift_program(program);
        return cfg.edges() == full_scan_edges(cfg);
      },
      {.iterations = 400});
}

TEST(LifterOracle, EdgesMatchFullScanDedupOnFamilyPrograms) {
  CHECK_PROPERTY(
      "lift_program edges == full-scan dedup edges (family programs)",
      proptest::programs(), [](const Program& program) {
        const LiftedCfg cfg = lift_program(program);
        return cfg.edges() == full_scan_edges(cfg);
      },
      {.iterations = 24});
}

}  // namespace
}  // namespace cfgx

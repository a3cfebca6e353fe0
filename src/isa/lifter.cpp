#include "isa/lifter.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace cfgx {
namespace {

// A call is "internal" when it targets a label inside the program; external
// API calls (symbol operands) stay inside their block.
bool is_internal_call(const Instruction& instr) {
  return instr.is_call() && instr.label_target() != nullptr;
}

bool ends_block(const Instruction& instr) {
  return instr.is_jump() || instr.is_terminator() || is_internal_call(instr);
}

}  // namespace

LiftedCfg::LiftedCfg(const Program& program, std::vector<BasicBlock> blocks,
                     std::vector<CfgEdge> edges)
    : program_(&program), blocks_(std::move(blocks)), edges_(std::move(edges)) {
  instr_to_block_.assign(program.size(), 0);
  for (const BasicBlock& block : blocks_) {
    for (std::size_t i = block.first; i < block.last; ++i) {
      instr_to_block_[i] = block.id;
    }
  }
}

std::span<const Instruction> LiftedCfg::block_instructions(
    std::uint32_t block_id) const {
  const BasicBlock& block = blocks_.at(block_id);
  return {program_->instructions().data() + block.first, block.size()};
}

std::uint32_t LiftedCfg::block_of_instruction(std::size_t index) const {
  if (index >= instr_to_block_.size()) {
    throw std::out_of_range("LiftedCfg::block_of_instruction: index out of range");
  }
  return instr_to_block_[index];
}

std::string LiftedCfg::block_to_string(std::uint32_t block_id) const {
  std::ostringstream out;
  out << "block_" << block_id << ":";
  for (const Instruction& instr : block_instructions(block_id)) {
    out << " " << instr.to_string() << ";";
  }
  return out.str();
}

LiftedCfg lift_program(const Program& program) {
  if (program.empty()) {
    throw std::invalid_argument("lift_program: empty program");
  }
  program.validate();
  const auto& instrs = program.instructions();

  // --- 1. leader analysis ---
  std::set<std::size_t> leaders;
  leaders.insert(0);
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    const Instruction& instr = instrs[i];
    if (const Operand* target = instr.label_target()) {
      leaders.insert(*program.label_index(target->text));
    }
    if (ends_block(instr) && i + 1 < instrs.size()) {
      leaders.insert(i + 1);
    }
  }

  // --- 2. block formation ---
  std::vector<BasicBlock> blocks;
  std::vector<std::size_t> sorted_leaders(leaders.begin(), leaders.end());
  for (std::size_t k = 0; k < sorted_leaders.size(); ++k) {
    BasicBlock block;
    block.id = static_cast<std::uint32_t>(k);
    block.first = sorted_leaders[k];
    block.last =
        k + 1 < sorted_leaders.size() ? sorted_leaders[k + 1] : instrs.size();
    blocks.push_back(block);
  }

  // Map instruction index -> block id for edge targets.
  std::vector<std::uint32_t> owner(instrs.size(), 0);
  for (const BasicBlock& block : blocks) {
    for (std::size_t i = block.first; i < block.last; ++i) owner[i] = block.id;
  }

  // --- 3. edge construction ---
  // Every edge a block adds has src == block.id, so a duplicate can only be
  // among the (at most two) edges appended since the block began: checking
  // that tail keeps construction O(E) with the same output and order as a
  // dedup over every edge built so far.
  std::vector<CfgEdge> edges;
  std::size_t block_edges_begin = 0;
  const auto add_edge = [&](std::uint32_t src, std::uint32_t dst, EdgeKind kind) {
    const CfgEdge edge{src, dst, kind};
    const auto block_edges =
        edges.begin() + static_cast<std::ptrdiff_t>(block_edges_begin);
    if (std::find(block_edges, edges.end(), edge) == edges.end()) {
      edges.push_back(edge);
    }
  };

  for (const BasicBlock& block : blocks) {
    block_edges_begin = edges.size();
    const Instruction& final_instr = instrs[block.last - 1];
    const bool has_next = block.last < instrs.size();
    const std::uint32_t next_block = has_next ? owner[block.last] : 0;

    if (final_instr.is_terminator()) {
      continue;  // ret/hlt/int3: no successors
    }
    if (final_instr.is_jump()) {
      const Operand* target = final_instr.label_target();
      if (target != nullptr) {
        add_edge(block.id, owner[*program.label_index(target->text)],
                 EdgeKind::Flow);
      }
      if (!final_instr.is_unconditional_jump() && has_next) {
        add_edge(block.id, next_block, EdgeKind::Flow);  // not-taken path
      }
      continue;
    }
    if (is_internal_call(final_instr)) {
      const Operand* target = final_instr.label_target();
      add_edge(block.id, owner[*program.label_index(target->text)],
               EdgeKind::Call);
      if (has_next) add_edge(block.id, next_block, EdgeKind::Flow);  // return site
      continue;
    }
    // Plain fall-through into the next leader.
    if (has_next) add_edge(block.id, next_block, EdgeKind::Flow);
  }

  return LiftedCfg(program, std::move(blocks), std::move(edges));
}

}  // namespace cfgx

// Reference for Algorithm 2's victim selection (lines 8-18): the original
// per-victim loop, an O(n) min-scan over the surviving nodes followed by a
// vector::erase. select_victims() (core/interpreter.hpp) replaces it with
// one stable sort per iteration; the selection tests compare the two.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"

namespace cfgx::oracle {

// Removes from `remaining` the node with the lowest scores(v, 0) — the first
// one on ties, compared with `<` from a +inf start — `n_step` times, and
// returns the removed nodes in removal order. `remaining` loses them.
std::vector<std::uint32_t> min_scan_select_victims(
    std::vector<std::uint32_t>& remaining, const Matrix& scores,
    std::size_t n_step);

}  // namespace cfgx::oracle

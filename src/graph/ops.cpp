#include "graph/ops.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cfgx {

MaskedNormalizedAdjacency::MaskedNormalizedAdjacency(const Acfg& graph)
    : MaskedNormalizedAdjacency(graph.edges(), graph.features()) {}

MaskedNormalizedAdjacency::MaskedNormalizedAdjacency(
    const std::vector<Edge>& edges, const Matrix& features,
    const std::vector<double>* edge_weights) {
  const std::size_t n = features.rows();
  if (edge_weights != nullptr && edge_weights->size() != edges.size()) {
    throw std::invalid_argument(
        "MaskedNormalizedAdjacency: one weight per edge required");
  }

  // Dense-equivalent directed weights. The stable sort keeps a repeated
  // (src, dst) pair in list order, so the merge can apply either rule:
  // Call dominates Flow (max) for Edge::weight(), last edge wins for
  // supplied weights — each the value a dense matrix would hold.
  struct Entry {
    std::uint32_t row, col;
    double weight;
  };
  std::vector<Entry> fwd;
  fwd.reserve(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const Edge& e = edges[k];
    if (e.src >= n || e.dst >= n) {
      throw std::invalid_argument(
          "MaskedNormalizedAdjacency: edge endpoint out of range");
    }
    fwd.push_back({e.src, e.dst,
                   edge_weights != nullptr ? (*edge_weights)[k] : e.weight()});
  }
  const auto by_row_col = [](const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  std::stable_sort(fwd.begin(), fwd.end(), by_row_col);
  std::vector<Entry> merged;
  merged.reserve(fwd.size());
  for (const Entry& e : fwd) {
    if (!merged.empty() && merged.back().row == e.row &&
        merged.back().col == e.col) {
      merged.back().weight = edge_weights != nullptr
                                 ? e.weight
                                 : std::max(merged.back().weight, e.weight);
    } else {
      merged.push_back(e);
    }
  }

  std::vector<Entry> rev;  // A^T entries, sorted by (row, col) of A^T
  rev.reserve(merged.size());
  for (const Entry& e : merged) rev.push_back({e.col, e.row, e.weight});
  std::sort(rev.begin(), rev.end(), by_row_col);

  // Per-row merge of A and A^T in ascending column order, diagonal slot
  // always present. s keeps the dense operand order A(i,j) + A(j,i) with a
  // literal 0.0 for a missing side.
  std::vector<std::size_t> fwd_ptr(n + 1, 0), rev_ptr(n + 1, 0);
  for (const Entry& e : merged) ++fwd_ptr[e.row + 1];
  for (const Entry& e : rev) ++rev_ptr[e.row + 1];
  for (std::size_t i = 0; i < n; ++i) {
    fwd_ptr[i + 1] += fwd_ptr[i];
    rev_ptr[i + 1] += rev_ptr[i];
  }
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::uint32_t> col_idx;
  col_idx.reserve(2 * merged.size() + n);
  s_edge_.reserve(2 * merged.size() + n);
  active_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t f = fwd_ptr[i], r = rev_ptr[i];
    bool saw_diag = false;
    const auto push = [&](std::uint32_t j, double value) {
      if (!saw_diag && j >= i) {
        saw_diag = true;
        if (j != i) {  // structural diagonal even when A has no self-edge
          col_idx.push_back(static_cast<std::uint32_t>(i));
          s_edge_.push_back(0.0);
        }
      }
      col_idx.push_back(j);
      s_edge_.push_back(value);
      if (value != 0.0) {
        active_[i] = 1;
        active_[j] = 1;
      }
    };
    while (f < fwd_ptr[i + 1] || r < rev_ptr[i + 1]) {
      const bool has_f = f < fwd_ptr[i + 1];
      const bool has_r = r < rev_ptr[i + 1];
      if (has_f && has_r && merged[f].col == rev[r].col) {
        push(merged[f].col, merged[f].weight + rev[r].weight);
        ++f;
        ++r;
      } else if (has_f && (!has_r || merged[f].col < rev[r].col)) {
        push(merged[f].col, merged[f].weight + 0.0);
        ++f;
      } else {
        push(rev[r].col, 0.0 + rev[r].weight);
        ++r;
      }
    }
    if (!saw_diag) {
      col_idx.push_back(static_cast<std::uint32_t>(i));
      s_edge_.push_back(0.0);
    }
    row_ptr[i + 1] = col_idx.size();
  }

  feature_active_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < features.cols(); ++c) {
      if (features(i, c) != 0.0) {
        feature_active_[i] = 1;
        break;
      }
    }
    if (feature_active_[i]) active_[i] = 1;
  }

  // Degrees and d^{-1/2} over the structural entries in ascending column
  // order — the same partial sums as the dense full-row sum (skipped
  // entries are true zeros, all weights non-negative), with the self-loop
  // joining the diagonal weight in the dense path's single `+ 1.0` add.
  degree_.assign(n, 0.0);
  inv_sqrt_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      double term = s_edge_[p];
      if (col_idx[p] == i && active_[i]) term = s_edge_[p] + 1.0;
      degree += term;
    }
    degree_[i] = degree;
    if (degree > 0.0) inv_sqrt_[i] = 1.0 / std::sqrt(degree);
  }

  std::vector<double> values(col_idx.size(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const std::uint32_t j = col_idx[p];
      double sv = s_edge_[p];
      if (j == i && active_[i]) sv += 1.0;
      values[p] = sv * (inv_sqrt_[i] * inv_sqrt_[j]);
    }
  }

  // mirror_[p] = index of the transposed entry; the structure is symmetric
  // (s is, and the diagonal is complete), so a cursor pass suffices.
  mirror_.assign(col_idx.size(), 0);
  std::vector<std::size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      mirror_[cursor[col_idx[p]]++] = p;
    }
  }

  alive_.assign(n, 1);
  is_dirty_.assign(n, 0);
  a_hat_ = CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

void MaskedNormalizedAdjacency::mark_dirty(std::uint32_t node) {
  if (!is_dirty_[node]) {
    is_dirty_[node] = 1;
    dirty_.push_back(node);
  }
}

void MaskedNormalizedAdjacency::prune(std::uint32_t node) {
  if (node >= alive_.size()) {
    throw std::out_of_range("MaskedNormalizedAdjacency::prune: out of range");
  }
  if (!alive_[node]) return;
  alive_[node] = 0;
  feature_active_[node] = 0;
  mark_dirty(node);
  const auto& row_ptr = a_hat_.row_ptr();
  const auto& col_idx = a_hat_.col_idx();
  for (std::size_t p = row_ptr[node]; p < row_ptr[node + 1]; ++p) {
    if (s_edge_[p] != 0.0) {
      mark_dirty(col_idx[p]);
      s_edge_[p] = 0.0;
      s_edge_[mirror_[p]] = 0.0;
    }
  }
}

void MaskedNormalizedAdjacency::refresh() {
  const auto& row_ptr = a_hat_.row_ptr();
  const auto& col_idx = a_hat_.col_idx();

  // Pass 1: activity, degree, d^{-1/2} for every touched node. All
  // inv_sqrt_ updates land before any value uses them (pass 2).
  for (const std::uint32_t d : dirty_) {
    bool act = feature_active_[d] != 0;
    for (std::size_t p = row_ptr[d]; p < row_ptr[d + 1] && !act; ++p) {
      if (s_edge_[p] != 0.0) act = true;
    }
    active_[d] = act ? 1 : 0;
    double degree = 0.0;
    for (std::size_t p = row_ptr[d]; p < row_ptr[d + 1]; ++p) {
      double term = s_edge_[p];
      // The self-loop joins the diagonal weight in ONE add, matching the
      // dense path's `s(i, i) += 1.0` before its row sum.
      if (col_idx[p] == d && act) term = s_edge_[p] + 1.0;
      degree += term;
    }
    degree_[d] = degree;
    inv_sqrt_[d] = degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
  }

  // Pass 2: renormalize every entry in a touched row plus its mirror.
  // s and c_i*c_j are both symmetric bitwise, so the mirror gets the same
  // value; entries with two dirty endpoints are written twice, idempotently.
  auto& values = a_hat_.values_mut();
  for (const std::uint32_t d : dirty_) {
    const double cd = inv_sqrt_[d];
    for (std::size_t p = row_ptr[d]; p < row_ptr[d + 1]; ++p) {
      const std::uint32_t j = col_idx[p];
      double sv = s_edge_[p];
      if (j == d && active_[d]) sv += 1.0;
      const double v = sv * (cd * inv_sqrt_[j]);
      values[p] = v;
      values[mirror_[p]] = v;
    }
    is_dirty_[d] = 0;
  }
  dirty_.clear();
}

std::size_t count_active_nodes(const Acfg& graph) {
  const std::size_t n = graph.num_nodes();
  std::vector<char> active(n, 0);
  for (const Edge& e : graph.edges()) {
    active[e.src] = 1;
    active[e.dst] = 1;
  }
  const Matrix& features = graph.features();
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) continue;
    for (std::size_t c = 0; c < features.cols(); ++c) {
      if (features(i, c) != 0.0) {
        active[i] = 1;
        break;
      }
    }
  }
  std::size_t count = 0;
  for (char a : active) count += a != 0;
  return count;
}

Acfg masked_subgraph(const Acfg& graph,
                     const std::vector<std::uint32_t>& kept) {
  const std::uint32_t n = graph.num_nodes();
  std::vector<char> keep(n, 0);
  for (std::uint32_t node : kept) {
    if (node >= n) {
      throw std::out_of_range("masked_subgraph: node out of range");
    }
    keep[node] = 1;
  }

  Acfg out(n, graph.feature_count());
  std::vector<Edge> edges;
  edges.reserve(graph.num_edges());
  for (const Edge& e : graph.edges()) {
    if (keep[e.src] && keep[e.dst]) edges.push_back(e);
  }
  out.set_edges(std::move(edges));

  const Matrix& features = graph.features();
  Matrix& out_features = out.features();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    for (std::size_t c = 0; c < features.cols(); ++c) {
      out_features(i, c) = features(i, c);
    }
  }
  out.set_label(graph.label());
  out.set_family(graph.family());
  for (std::uint32_t node : graph.planted_nodes()) {
    if (keep[node]) out.mark_planted(node);
  }
  return out;
}

std::vector<std::uint32_t> top_k_nodes(const std::vector<double>& scores,
                                       std::size_t k) {
  if (k > scores.size()) throw std::invalid_argument("top_k_nodes: k > node count");
  std::vector<std::uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return scores[a] > scores[b];
                   });
  order.resize(k);
  return order;
}

std::size_t nodes_for_fraction(std::uint32_t num_nodes, double fraction) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("nodes_for_fraction: fraction outside [0,1]");
  }
  if (num_nodes == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(num_nodes)));
  return std::clamp<std::size_t>(k, 1, num_nodes);
}

}  // namespace cfgx

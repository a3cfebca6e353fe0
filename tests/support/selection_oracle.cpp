#include "support/selection_oracle.hpp"

#include <limits>

namespace cfgx::oracle {

std::vector<std::uint32_t> min_scan_select_victims(
    std::vector<std::uint32_t>& remaining, const Matrix& scores,
    std::size_t n_step) {
  std::vector<std::uint32_t> victims;
  for (std::size_t k = 0; k < n_step; ++k) {
    std::size_t min_pos = 0;
    double min_score = std::numeric_limits<double>::infinity();
    for (std::size_t pos = 0; pos < remaining.size(); ++pos) {
      const double score = scores(remaining[pos], 0);
      if (score < min_score) {
        min_score = score;
        min_pos = pos;
      }
    }
    victims.push_back(remaining[min_pos]);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(min_pos));
  }
  return victims;
}

}  // namespace cfgx::oracle

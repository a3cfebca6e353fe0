// Near-linear size sweep: per-explanation wall-clock at n in {256, 1024,
// 4096, 7352} (the paper's largest CFG has 7352 basic blocks) in two modes:
//   full     explain the original graph directly;
//   reduced  coarsen first (graph/reduce.hpp), explain the coarse graph,
//            project node scores back to original basic blocks.
//
// Each sweep point reports the per-explanation latency distribution, the
// coarsener's reduction ratio, and fidelity@k (k = top 20%): the fraction
// of graphs whose prediction survives keeping only the top-ranked 20% of
// ORIGINAL basic blocks — measured identically in both modes, so the
// reduced column quantifies what projection costs in explanation quality.
//
// Emits the machine-readable cfgx.bench.scaling.v1 document consumed by
// tools/bench_compare (committed baseline: BENCH_scaling.json); the CI
// perf job regenerates it fresh and gates on the committed trajectory.
//
// Flags:
//   --out=PATH    output path (default BENCH_scaling.json)
//   --graphs=N    graphs measured per sweep point (default 3)
//   --fast        half-size sweep {256, 1024} for smoke runs
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "explain/cfg_explainer.hpp"
#include "explain/reduced.hpp"
#include "dataset/generator.hpp"
#include "graph/ops.hpp"
#include "graph/reduce.hpp"
#include "nn/simd.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cfgx {
namespace {

using Clock = std::chrono::steady_clock;

struct SweepCase {
  std::string mode;          // "full" | "reduced"
  std::size_t requested_nodes = 0;
  double mean_nodes = 0.0;
  double mean_reduced_nodes = 0.0;  // == mean_nodes in full mode
  double mean_reduction_ratio = 1.0;
  double fidelity_at_20 = 0.0;
  DurationStats per_explanation;
};

// The sweep's request mix: one malware-family graph per repetition, grown
// to at least `nodes` basic blocks. Seeds are pure functions of (n, rep)
// so baseline and fresh CI runs measure the exact same graphs.
std::vector<Acfg> sweep_graphs(std::size_t nodes, std::size_t count) {
  std::vector<Acfg> graphs;
  GeneratorConfig config;
  config.target_blocks = nodes;
  for (std::size_t rep = 0; rep < count; ++rep) {
    const Family family = static_cast<Family>(rep % (kFamilyCount - 1));
    Rng rng(0x5ca11u * (nodes + 1) + rep);
    graphs.push_back(generate_acfg(family, rng, config));
  }
  return graphs;
}

// Does the prediction survive keeping only the top 20% of the ranking's
// ORIGINAL node ids? Both modes are scored against the same full-graph
// verdict, so the two columns are directly comparable.
bool prediction_survives_top20(const GnnClassifier& gnn, const Acfg& graph,
                               const NodeRanking& ranking,
                               std::size_t full_class) {
  const std::size_t keep =
      std::max<std::size_t>(1, graph.num_nodes() / 5);
  std::vector<std::uint32_t> kept(ranking.order.begin(),
                                  ranking.order.begin() + keep);
  return gnn.predict(masked_subgraph(graph, kept)).predicted_class ==
         full_class;
}

SweepCase run_point(const GnnClassifier& gnn,
                    const std::shared_ptr<const ExplainerModel>& theta,
                    const std::vector<Acfg>& graphs, std::size_t nodes,
                    bool reduced) {
  SweepCase result;
  result.mode = reduced ? "reduced" : "full";
  result.requested_nodes = nodes;

  std::size_t survived = 0;
  double node_sum = 0.0, coarse_sum = 0.0, ratio_sum = 0.0;
  for (const Acfg& graph : graphs) {
    // A fresh explainer per graph keeps per-call state out of the timing.
    CfgExplainer inner(gnn);
    inner.set_model(theta);

    NodeRanking ranking;
    const auto start = Clock::now();
    if (reduced) {
      const ReducedGraph r = reduce_graph(graph);
      ranking = project_ranking(inner.explain(r.graph), r.projection);
      coarse_sum += static_cast<double>(r.graph.num_nodes());
      ratio_sum += r.reduction_ratio();
    } else {
      ranking = inner.explain(graph);
      coarse_sum += static_cast<double>(graph.num_nodes());
      ratio_sum += 1.0;
    }
    result.per_explanation.add(
        std::chrono::duration<double>(Clock::now() - start).count());

    node_sum += static_cast<double>(graph.num_nodes());
    const std::size_t full_class = gnn.predict(graph).predicted_class;
    if (prediction_survives_top20(gnn, graph, ranking, full_class)) {
      ++survived;
    }
  }
  const double count = static_cast<double>(graphs.size());
  result.mean_nodes = node_sum / count;
  result.mean_reduced_nodes = coarse_sum / count;
  result.mean_reduction_ratio = ratio_sum / count;
  result.fidelity_at_20 = static_cast<double>(survived) / count;
  return result;
}

void write_stats(obs::JsonWriter& json, const DurationStats& stats) {
  json.begin_object();
  json.field("mean_ms", stats.mean() * 1e3);
  json.field("p50_ms", stats.percentile(50.0) * 1e3);
  json.field("p95_ms", stats.percentile(95.0) * 1e3);
  json.field("count", static_cast<std::uint64_t>(stats.count()));
  json.end_object();
}

int run(const CliArgs& args) {
  const bool fast = args.get_flag("fast");
  const std::string out_path = args.get_string("out", "BENCH_scaling.json");
  const std::size_t graphs_per_point =
      static_cast<std::size_t>(args.get_int("graphs", 3));
  std::vector<std::size_t> sizes = {256, 1024, 4096, 7352};
  if (fast) sizes = {256, 1024};

  // Untrained model at the repo's default dimensions: explanation cost is
  // a pure function of graph size and architecture, not of training, so
  // the sweep needs no cached corpus or fitted Theta.
  Rng rng(2022);
  GnnClassifier gnn(GnnConfig{}, rng);
  ExplainerModelConfig theta_config;
  theta_config.embedding_dim = gnn.config().embedding_dim();
  theta_config.num_classes = gnn.config().num_classes;
  Rng theta_rng(7);
  const auto theta =
      std::make_shared<const ExplainerModel>(theta_config, theta_rng);

  std::vector<SweepCase> cases;
  for (std::size_t nodes : sizes) {
    std::fprintf(stderr, "[scaling] generating %zu graphs at n>=%zu...\n",
                 graphs_per_point, nodes);
    const std::vector<Acfg> graphs = sweep_graphs(nodes, graphs_per_point);
    for (const bool reduced : {false, true}) {
      SweepCase c = run_point(gnn, theta, graphs, nodes, reduced);
      std::fprintf(stderr,
                   "[scaling] %7s@n%-5zu mean %8.2f ms  ratio %.3f  "
                   "fidelity@20%% %.2f\n",
                   c.mode.c_str(), nodes, c.per_explanation.mean() * 1e3,
                   c.mean_reduction_ratio, c.fidelity_at_20);
      cases.push_back(std::move(c));
    }
  }

  obs::JsonWriter json;
  json.begin_object();
  json.field("schema", "cfgx.bench.scaling.v1");
  json.field("binary", "scaling_sweep");
  json.field("isa", std::string(simd::isa_name(simd::dispatch())));
  json.key("config").begin_object();
  json.field("graphs_per_point", static_cast<std::uint64_t>(graphs_per_point));
  json.field("top_fraction", 0.2);
  json.field("fast", fast);
  json.end_object();
  json.key("cases").begin_array();
  for (const SweepCase& c : cases) {
    json.begin_object();
    json.field("name", c.mode);
    json.field("n", static_cast<std::uint64_t>(c.requested_nodes));
    json.field("mean_nodes", c.mean_nodes);
    json.field("mean_reduced_nodes", c.mean_reduced_nodes);
    json.field("reduction_ratio", c.mean_reduction_ratio);
    json.field("fidelity_at_20", c.fidelity_at_20);
    json.key("per_explanation");
    write_stats(json, c.per_explanation);
    json.end_object();
  }
  json.end_array();
  // The acceptance headline: coarsening must hold the paper-scale cost
  // within an order of magnitude of the smallest full-graph sweep point.
  double full_smallest = 0.0, reduced_largest = 0.0;
  for (const SweepCase& c : cases) {
    if (c.mode == "full" && c.requested_nodes == sizes.front()) {
      full_smallest = c.per_explanation.mean();
    }
    if (c.mode == "reduced" && c.requested_nodes == sizes.back()) {
      reduced_largest = c.per_explanation.mean();
    }
  }
  json.key("summary").begin_object();
  json.field("full_smallest_mean_ms", full_smallest * 1e3);
  json.field("reduced_largest_mean_ms", reduced_largest * 1e3);
  json.field("reduced_largest_over_full_smallest",
             full_smallest > 0.0 ? reduced_largest / full_smallest : 0.0);
  json.end_object();
  json.end_object();

  std::ofstream out(out_path);
  out << json.str() << "\n";
  if (!out) {
    std::fprintf(stderr, "[scaling] FAILED to write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[scaling] wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace cfgx

int main(int argc, char** argv) {
  const cfgx::CliArgs args(argc, argv);
  return cfgx::run(args);
}

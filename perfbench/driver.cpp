// Benchmark driver: one process runs one benchmark phase and prints one
// JSON object as its last stdout line. perfbench/run.py starts a process
// per phase under a watchdog, so a phase that crashes or hangs costs only
// its own requests.
//
// Every layer is driven from outside through public functions:
//   isa      lift_program, to_acfg
//   gnn      GnnClassifier::predict
//   explain  CfgExplainer::explain, project_ranking
//   graph    reduce_graph
//   serve    ExplanationEngine::submit and the futures it returns
// The models are seeded and untrained: Algorithm 2's cost does not depend
// on the weight values.
//
// Modes:
//   triage  --seed=S --seconds=T [--setups=K] [--isa=scalar|avx2]
//           [--trace-out=PATH --metrics-out=PATH]
//     Closed loop, one caller: program -> lift_program -> to_acfg ->
//     predict -> explain, over 12 seeded programs (one per family) grown to
//     >= 7352 blocks. "digest" hashes the rankings of the warm-up pass, the
//     value perfbench/digests.json records per ISA and seed.
//   serve   --mix=small|mixed --seed=S --rate=R --seconds=T --warmup=W
//           [--part=P] [--trace-out=PATH --metrics-out=PATH]
//     Open loop at rate R (evenly spaced arrivals; the seed picks graphs) against an
//     ExplanationEngine with default ServeConfig (mixed: reduction set).
//
// With --trace-out the measured window runs with obs tracing on; the
// Chrome trace and the registry snapshot taken over the same window are
// written to the given paths.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/explainer_model.hpp"
#include "dataset/corpus.hpp"
#include "dataset/families.hpp"
#include "dataset/generator.hpp"
#include "explain/cfg_explainer.hpp"
#include "explain/reduced.hpp"
#include "gnn/classifier.hpp"
#include "graph/ops.hpp"
#include "graph/reduce.hpp"
#include "isa/features.hpp"
#include "isa/lifter.hpp"
#include "nn/simd.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace cfgx::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPaperScaleBlocks = 7352;
constexpr std::size_t kTriagePrograms = kFamilyCount;  // one per family
constexpr std::size_t kMixedBigGraphs = 4;
constexpr std::size_t kMixedBigEvery = 50;  // one request in 50 is big
// Gap between the serving warm-up and the measured window, so that no
// warm-up request is still in flight when measuring (and tracing) starts.
constexpr double kDrainPauseSeconds = 0.3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// FNV-1a over the predicted class and the ranking order.
std::uint64_t ranking_digest(std::size_t predicted_class,
                             const std::vector<std::uint32_t>& order) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto eat = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  eat(predicted_class);
  eat(order.size());
  for (std::uint32_t v : order) eat(v);
  return h;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// The seeded, untrained models every mode uses.
struct Models {
  std::unique_ptr<GnnClassifier> gnn;
  std::unique_ptr<ExplainerModel> theta;
};

Models make_models() {
  Models models;
  Rng gnn_rng(2022);
  models.gnn = std::make_unique<GnnClassifier>(GnnConfig{}, gnn_rng);
  ExplainerModelConfig theta_config;
  theta_config.embedding_dim = models.gnn->config().embedding_dim();
  theta_config.num_classes = models.gnn->config().num_classes;
  Rng theta_rng(7);
  models.theta = std::make_unique<ExplainerModel>(theta_config, theta_rng);
  return models;
}

std::unique_ptr<CfgExplainer> make_explainer(const Models& models) {
  auto explainer = std::make_unique<CfgExplainer>(*models.gnn);
  explainer->set_model(models.theta->clone());
  return explainer;
}

// A program grown the way generate_acfg grows one (regenerate with the
// benign function count scaled by the block shortfall), with one addition:
// an attempt that overshoots `target_blocks` by more than 5% is regrown
// with proportionally fewer functions, so every program is paper-scale and
// of similar size whatever the seed. After kMaxAttempts the smallest
// attempt at or above the target is kept.
GeneratedSample grow_program(Family family, Rng& rng,
                             std::size_t target_blocks) {
  constexpr int kMaxAttempts = 12;
  const std::size_t ceiling = target_blocks + target_blocks / 20;
  GeneratorConfig attempt;
  std::optional<GeneratedSample> best;
  std::size_t best_blocks = 0;
  for (int tries = 0;; ++tries) {
    GeneratedSample sample = generate_program(family, rng, attempt);
    const std::size_t blocks = lift_program(sample.program).block_count();
    if (blocks >= target_blocks && (!best || blocks < best_blocks)) {
      best = std::move(sample);
      best_blocks = blocks;
    }
    if (best && (best_blocks <= ceiling || tries >= kMaxAttempts)) {
      return std::move(*best);
    }
    // Aim 2% above the target so a near miss does not fall short.
    const std::size_t aim = target_blocks + target_blocks / 50;
    const std::size_t scaled =
        (attempt.max_benign_functions * aim + blocks - 1) / blocks;
    const std::size_t functions =
        blocks < target_blocks
            ? std::max(attempt.max_benign_functions + 1, scaled)
            : std::max<std::size_t>(1, scaled);
    attempt.min_benign_functions = functions;
    attempt.max_benign_functions = functions;
  }
}

// Registry snapshot + Chrome trace of the measured window.
struct TraceCapture {
  std::string trace_path;
  std::string metrics_path;
  bool enabled() const { return !trace_path.empty(); }

  void begin() const {
    obs::MetricsRegistry::global().reset();
    if (enabled()) obs::start_tracing();
  }
  void end() const {
    if (!enabled()) return;
    obs::stop_tracing();
    obs::write_trace_file(trace_path);
    std::ofstream(metrics_path) << obs::MetricsRegistry::global().snapshot().json();
  }
};

void write_doubles(obs::JsonWriter& json, const char* name,
                   const std::vector<double>& values) {
  json.key(name).begin_array();
  for (double v : values) json.value(v);
  json.end_array();
}

// ---------------------------------------------------------------- triage

struct TriageSetup {
  Models models;
  std::unique_ptr<CfgExplainer> explainer;
  std::vector<GeneratedSample> programs;  // programs[i] is kAllFamilies[i]
};

TriageSetup setup_triage(std::uint64_t seed) {
  TriageSetup setup;
  setup.models = make_models();
  setup.explainer = make_explainer(setup.models);
  for (std::size_t i = 0; i < kTriagePrograms; ++i) {
    Rng rng(mix64(seed, i));
    setup.programs.push_back(
        grow_program(kAllFamilies[i], rng, kPaperScaleBlocks));
  }
  return setup;
}

struct TriageRequest {
  std::size_t program = 0;
  double lift_s = 0, to_acfg_s = 0, predict_s = 0, explain_s = 0, total_s = 0;
  std::size_t nodes = 0;
  std::uint64_t digest = 0;
};

TriageRequest run_triage_request(const TriageSetup& setup, std::size_t index) {
  TriageRequest r;
  r.program = index;
  const GeneratedSample& sample = setup.programs[index];
  const Family family = kAllFamilies[index];
  obs::TraceSpan request_span("bench.request", "bench");
  const Clock::time_point t0 = Clock::now();
  std::optional<LiftedCfg> cfg;
  {
    obs::TraceSpan span("bench.lift", "bench");
    cfg.emplace(lift_program(sample.program));
  }
  const Clock::time_point t1 = Clock::now();
  Acfg graph;
  {
    obs::TraceSpan span("bench.to_acfg", "bench");
    graph = to_acfg(*cfg, family_label(family), to_string(family));
  }
  const Clock::time_point t2 = Clock::now();
  Prediction prediction;
  {
    obs::TraceSpan span("bench.predict", "bench");
    prediction = setup.models.gnn->predict(graph);
  }
  const Clock::time_point t3 = Clock::now();
  NodeRanking ranking;
  {
    obs::TraceSpan span("bench.explain", "bench");
    ranking = setup.explainer->explain(graph);
  }
  const Clock::time_point t4 = Clock::now();
  r.lift_s = seconds_between(t0, t1);
  r.to_acfg_s = seconds_between(t1, t2);
  r.predict_s = seconds_between(t2, t3);
  r.explain_s = seconds_between(t3, t4);
  r.total_s = seconds_between(t0, t4);
  r.nodes = graph.num_nodes();
  r.digest = ranking_digest(prediction.predicted_class, ranking.order);
  return r;
}

// Digest of all programs' rankings, in program order.
std::uint64_t combined_digest(const std::vector<std::uint64_t>& per_program) {
  std::vector<std::uint32_t> words;
  for (std::uint64_t d : per_program) {
    words.push_back(static_cast<std::uint32_t>(d));
    words.push_back(static_cast<std::uint32_t>(d >> 32));
  }
  return ranking_digest(per_program.size(), words);
}

int run_triage(const CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const std::size_t setups =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("setups", 3)));
  if (args.has("isa")) simd::set_isa(simd::parse_isa(args.get_string("isa", "")));
  const TraceCapture capture{args.get_string("trace-out", ""),
                             args.get_string("metrics-out", "")};
  obs::set_metrics_enabled(true);

  std::vector<double> setup_s;
  std::unique_ptr<TriageSetup> setup;
  for (std::size_t k = 0; k < setups; ++k) {
    setup.reset();  // set up from nothing each time
    const Clock::time_point t0 = Clock::now();
    setup = std::make_unique<TriageSetup>(setup_triage(seed));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Warm-up pass: each program once, in order. It also yields the
  // reference digests and the static shape facts (instructions, CSR nnz)
  // for computed FLOP / byte counts.
  std::vector<std::uint64_t> digests;
  std::vector<std::size_t> instructions, nnz;
  for (std::size_t i = 0; i < kTriagePrograms; ++i) {
    digests.push_back(run_triage_request(*setup, i).digest);
    const Program& program = setup->programs[i].program;
    instructions.push_back(program.size());
    nnz.push_back(
        MaskedNormalizedAdjacency(to_acfg(lift_program(program))).a_hat().nnz());
  }

  std::vector<TriageRequest> done;
  capture.begin();
  const Clock::time_point start = Clock::now();
  const std::size_t offset = static_cast<std::size_t>(seed % kTriagePrograms);
  for (std::size_t i = 0;; ++i) {
    done.push_back(run_triage_request(*setup, (offset + i) % kTriagePrograms));
    if (seconds_between(start, Clock::now()) >= seconds) break;
  }
  const double wall_s = seconds_between(start, Clock::now());
  capture.end();

  obs::JsonWriter json;
  json.begin_object();
  json.field("mode", "triage");
  json.field("isa", simd::isa_name(simd::dispatch()));
  json.field("digest", hex(combined_digest(digests)));
  json.key("digests").begin_array();
  for (std::uint64_t d : digests) json.value(hex(d));
  json.end_array();
  write_doubles(json, "setup_s", setup_s);
  json.field("wall_s", wall_s);
  json.field("peak_rss_mb", peak_rss_mb());
  json.key("families").begin_array();
  for (Family f : kAllFamilies) json.value(to_string(f));
  json.end_array();
  json.key("instructions").begin_array();
  for (std::size_t v : instructions) json.value(static_cast<std::uint64_t>(v));
  json.end_array();
  json.key("nnz").begin_array();
  for (std::size_t v : nnz) json.value(static_cast<std::uint64_t>(v));
  json.end_array();
  json.key("requests").begin_array();
  for (const TriageRequest& r : done) {
    json.begin_object()
        .field("program", static_cast<std::uint64_t>(r.program))
        .field("nodes", static_cast<std::uint64_t>(r.nodes))
        .field("lift_s", r.lift_s)
        .field("to_acfg_s", r.to_acfg_s)
        .field("predict_s", r.predict_s)
        .field("explain_s", r.explain_s)
        .field("total_s", r.total_s)
        .field("digest", hex(r.digest))
        .end_object();
  }
  json.end_array();
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

// --------------------------------------------------------------- serving

struct Reference {
  std::size_t predicted_class = 0;
  std::vector<std::uint32_t> order;
  // Shape of the graph Algorithm 2 runs on (the coarse one when reduced),
  // for computed FLOP / byte counts.
  std::size_t explained_nodes = 0;
  std::size_t explained_nnz = 0;
};

struct ServeSetup {
  Models models;
  std::vector<Acfg> small;  // corpus graphs
  std::vector<Acfg> big;    // paper-scale graphs (mixed only)
  std::vector<Reference> small_refs, big_refs;
  // Offline reduce / project cost on the big graphs (reference pass).
  std::vector<double> reduce_s, project_s, reduction_ratio;
};

// The offline reference for one graph, computed the way the engine's mode
// defines its answer: full mode explains the graph itself; reduced mode is
// project_ranking(explain(reduce_graph(g).graph), projection).
Reference reference_for(const Acfg& graph, const Models& models,
                        CfgExplainer& explainer, bool reduced,
                        ServeSetup& setup) {
  Reference ref;
  if (!reduced) {
    ref.predicted_class = models.gnn->predict(graph).predicted_class;
    ref.order = explainer.explain(graph).order;
    ref.explained_nodes = graph.num_nodes();
    ref.explained_nnz = MaskedNormalizedAdjacency(graph).a_hat().nnz();
    return ref;
  }
  Clock::time_point t0 = Clock::now();
  ReducedGraph reduction;
  {
    obs::TraceSpan span("bench.reduce", "bench");
    reduction = reduce_graph(graph, ReduceConfig{});
  }
  const double reduce_s = seconds_between(t0, Clock::now());
  ref.predicted_class = models.gnn->predict(reduction.graph).predicted_class;
  ref.explained_nodes = reduction.graph.num_nodes();
  ref.explained_nnz = MaskedNormalizedAdjacency(reduction.graph).a_hat().nnz();
  const NodeRanking coarse = explainer.explain(reduction.graph);
  t0 = Clock::now();
  {
    obs::TraceSpan span("bench.project", "bench");
    ref.order = project_ranking(coarse, reduction.projection).order;
  }
  if (graph.num_nodes() >= kPaperScaleBlocks) {
    setup.reduce_s.push_back(reduce_s);
    setup.project_s.push_back(seconds_between(t0, Clock::now()));
    setup.reduction_ratio.push_back(reduction.reduction_ratio());
  }
  return ref;
}

ServeSetup setup_serving(std::uint64_t seed, bool mixed) {
  ServeSetup setup;
  setup.models = make_models();
  const std::unique_ptr<CfgExplainer> explainer = make_explainer(setup.models);

  CorpusConfig corpus_config;  // the default corpus, seeded
  corpus_config.seed = mix64(seed, 0xC0);
  setup.small = generate_corpus(corpus_config).graphs();
  if (mixed) {
    for (std::size_t i = 0; i < kMixedBigGraphs; ++i) {
      const Family family = kAllFamilies[i];
      Rng rng(mix64(seed, 0xB16 + i));
      const GeneratedSample sample =
          grow_program(family, rng, kPaperScaleBlocks);
      setup.big.push_back(to_acfg(lift_program(sample.program),
                                  family_label(family), to_string(family)));
    }
  }
  for (const Acfg& g : setup.small) {
    setup.small_refs.push_back(
        reference_for(g, setup.models, *explainer, mixed, setup));
  }
  for (const Acfg& g : setup.big) {
    setup.big_refs.push_back(
        reference_for(g, setup.models, *explainer, mixed, setup));
  }
  return setup;
}

// Wraps the engine's explainer so the benchmark's own span surrounds each
// explain() the engine makes, and counts / times factory calls.
class SpannedExplainer : public Explainer {
 public:
  explicit SpannedExplainer(std::unique_ptr<Explainer> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void fit(const Corpus& corpus,
           const std::vector<std::size_t>& train_indices) override {
    inner_->fit(corpus, train_indices);
  }
  NodeRanking explain(const Acfg& graph) override {
    obs::TraceSpan span("bench.explain", "bench");
    return inner_->explain(graph);
  }

 private:
  std::unique_ptr<Explainer> inner_;
};

struct FactoryStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> nanos{0};
};

struct Arrival {
  Clock::time_point due;
  bool big = false;
  std::size_t graph = 0;  // index into small or big
  bool measured = false;
};

// Part `part` of a run continues the graph rotation where part - 1 left off,
// so a run's parts cover the corpus instead of replaying one stretch.
std::vector<Arrival> make_schedule(std::uint64_t seed, std::size_t part,
                                   double rate, double warmup_s,
                                   double seconds, bool mixed,
                                   std::size_t small_count,
                                   Clock::time_point start) {
  Rng rng(mix64(seed, 0x5C4E));
  std::vector<std::size_t> order(small_count);
  for (std::size_t i = 0; i < small_count; ++i) order[i] = i;
  for (std::size_t i = small_count; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  const std::size_t big_slot = static_cast<std::size_t>(rng() % kMixedBigEvery);
  std::vector<Arrival> schedule;
  // Evenly spaced arrivals: the warm-up, a pause in which the generator
  // drains it, then the measured window.
  const auto warmup_count = static_cast<std::size_t>(std::ceil(warmup_s * rate));
  const auto measured_count = static_cast<std::size_t>(std::ceil(seconds * rate));
  const std::size_t total = warmup_count + measured_count;
  std::size_t small_next = part * total, big_next = part;
  for (std::size_t i = 0; i < total; ++i) {
    Arrival a;
    a.measured = i >= warmup_count;
    const double t = static_cast<double>(i) / rate +
                     (a.measured ? kDrainPauseSeconds : 0.0);
    a.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(t));
    // A mixed warm-up opens with a big request, so the measured window does
    // not pay for the process's first paper-scale explanation (20-40% slower
    // than later ones).
    const bool warm_big = mixed && i == 0 && warmup_count > 0;
    if (warm_big || (mixed && i % kMixedBigEvery == big_slot)) {
      a.big = true;
      a.graph = big_next++ % kMixedBigGraphs;
    } else {
      a.graph = order[small_next++ % small_count];
    }
    schedule.push_back(a);
  }
  return schedule;
}

struct Outcome {
  double latency_s = 0.0;  // completion - due
  double lag_s = 0.0;      // submit - due
  serve::ResponseStatus status = serve::ResponseStatus::EngineStopped;
  bool correct = false;
};

int run_serving(const CliArgs& args) {
  const bool mixed = args.get_string("mix", "small") == "mixed";
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double rate = args.get_double("rate", 100.0);
  const double seconds = args.get_double("seconds", 5.0);
  const double warmup_s = args.get_double("warmup", 1.0);
  const auto part = static_cast<std::size_t>(args.get_int("part", 0));
  const TraceCapture capture{args.get_string("trace-out", ""),
                             args.get_string("metrics-out", "")};
  obs::set_metrics_enabled(true);

  // One set-up per process; the harness takes the median over a run's
  // processes.
  const Clock::time_point setup_start = Clock::now();
  const auto setup = std::make_unique<ServeSetup>(setup_serving(seed, mixed));
  const std::vector<double> setup_s{seconds_between(setup_start, Clock::now())};

  serve::ServeConfig config;  // engine defaults: workers, batch, queue
  if (mixed) config.reduction = ReduceConfig{};
  FactoryStats factory_stats;
  ExplainerFactory inner =
      serve::make_cfg_explainer_factory(*setup->models.gnn,
                                        setup->models.theta->clone());
  ExplainerFactory factory = [&inner, &factory_stats]()
      -> std::unique_ptr<Explainer> {
    const Clock::time_point t0 = Clock::now();
    auto wrapped = std::make_unique<SpannedExplainer>(inner());
    factory_stats.calls.fetch_add(1, std::memory_order_relaxed);
    factory_stats.nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    return wrapped;
  };
  serve::ExplanationEngine engine(*setup->models.gnn, factory, config);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const std::vector<Arrival> schedule = make_schedule(
      seed, part, rate, warmup_s, seconds, mixed, setup->small.size(), start);
  std::size_t measured_count = 0;
  for (const Arrival& a : schedule) measured_count += a.measured ? 1 : 0;
  // Announced before any load, so a phase that dies still accounts for
  // every request it would have sent.
  std::cout << "{\"event\":\"scheduled\",\"measured\":" << measured_count
            << ",\"total\":" << schedule.size() << "}" << std::endl;

  std::vector<Outcome> outcomes(schedule.size());
  std::vector<std::size_t> inflight_at_send(schedule.size(), 0);

  // Completion collector: waits on the oldest outstanding future, then
  // stamps every future that is ready, so each response is timed when it
  // completes rather than when an in-order get() reaches it.
  std::mutex pending_mutex;
  std::condition_variable pending_cv;
  std::vector<std::pair<std::size_t, std::future<serve::ExplanationResponse>>>
      incoming;
  bool generator_done = false;
  std::atomic<std::size_t> completed{0};
  std::thread collector([&] {
    std::vector<std::pair<std::size_t, std::future<serve::ExplanationResponse>>>
        pending;
    for (;;) {
      {
        std::unique_lock lock(pending_mutex);
        if (pending.empty()) {
          pending_cv.wait(lock,
                          [&] { return !incoming.empty() || generator_done; });
          if (incoming.empty() && generator_done) return;
        }
        for (auto& entry : incoming) pending.push_back(std::move(entry));
        incoming.clear();
      }
      pending.front().second.wait_for(std::chrono::microseconds(200));
      std::size_t kept = 0;
      for (std::size_t p = 0; p < pending.size(); ++p) {
        auto& [index, future] = pending[p];
        if (future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (kept != p) pending[kept] = std::move(pending[p]);
          ++kept;
          continue;
        }
        const Clock::time_point now = Clock::now();
        const serve::ExplanationResponse response = future.get();
        const Arrival& arrival = schedule[index];
        const Reference& ref = arrival.big ? setup->big_refs[arrival.graph]
                                           : setup->small_refs[arrival.graph];
        Outcome& out = outcomes[index];
        out.latency_s = seconds_between(arrival.due, now);
        out.status = response.status;
        out.correct = response.ok() &&
                      response.prediction.predicted_class == ref.predicted_class &&
                      response.ranking.order == ref.order;
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      pending.resize(kept);
    }
  });

  bool capturing = false;
  Clock::time_point measure_start = start;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& arrival = schedule[i];
    if (arrival.measured && !capturing) {
      while (completed.load(std::memory_order_relaxed) < i) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      capture.begin();
      capturing = true;
      measure_start = arrival.due;
    }
    std::this_thread::sleep_until(arrival.due);
    Acfg payload = arrival.big ? setup->big[arrival.graph]
                               : setup->small[arrival.graph];
    const Clock::time_point sent = Clock::now();
    std::future<serve::ExplanationResponse> future = engine.submit(std::move(payload));
    outcomes[i].lag_s = seconds_between(arrival.due, sent);
    inflight_at_send[i] = i - completed.load(std::memory_order_relaxed);
    {
      std::lock_guard lock(pending_mutex);
      incoming.emplace_back(i, std::move(future));
    }
    pending_cv.notify_one();
  }
  {
    std::lock_guard lock(pending_mutex);
    generator_done = true;
  }
  pending_cv.notify_one();
  collector.join();
  const double wall_s = seconds_between(measure_start, Clock::now());
  if (!capturing) capture.begin();
  capture.end();
  engine.stop();

  obs::JsonWriter json;
  json.begin_object();
  json.field("mode", "serve");
  json.field("mix", mixed ? "mixed" : "small");
  json.field("rate", rate);
  json.field("isa", simd::isa_name(simd::dispatch()));
  write_doubles(json, "setup_s", setup_s);
  json.field("wall_s", wall_s);
  json.field("peak_rss_mb", peak_rss_mb());
  // ServeConfig::explain_workers = 0 sizes the pool like this.
  json.field("explain_workers", static_cast<std::uint64_t>(std::max(
                                    1u, std::thread::hardware_concurrency())));
  json.field("factory_calls", factory_stats.calls.load());
  json.field("factory_s", static_cast<double>(factory_stats.nanos.load()) * 1e-9);
  write_doubles(json, "reduce_s", setup->reduce_s);
  write_doubles(json, "project_s", setup->project_s);
  write_doubles(json, "reduction_ratio", setup->reduction_ratio);
  json.key("requests").begin_array();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!schedule[i].measured) continue;
    const Outcome& o = outcomes[i];
    const Reference& ref = schedule[i].big ? setup->big_refs[schedule[i].graph]
                                           : setup->small_refs[schedule[i].graph];
    json.begin_array()
        .value(o.latency_s)
        .value(o.lag_s)
        .value(serve::to_string(o.status))
        .value(o.correct)
        .value(schedule[i].big)
        .value(static_cast<std::uint64_t>(inflight_at_send[i]))
        .value(static_cast<std::uint64_t>(ref.explained_nodes))
        .value(static_cast<std::uint64_t>(ref.explained_nnz))
        .value(static_cast<std::uint64_t>(schedule[i].graph))
        .end_array();
  }
  json.end_array();
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace cfgx::perfbench

int main(int argc, char** argv) {
  using namespace cfgx::perfbench;
  const cfgx::CliArgs args(argc, argv);
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "triage") return run_triage(args);
    if (mode == "serve") return run_serving(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench_driver <triage|serve> [--flags]\n";
  return 2;
}

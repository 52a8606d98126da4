// The GCN inference workload: the paper's two-layer GCN (Table IV) run with
// Â in CBM form, built the way a user builds it (CbmAdjacency with its
// default plan), against the same model with Â in CSR form.
#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "layers.hpp"
#include "sparse/scale.hpp"
#include "sparse/spmm.hpp"

namespace perfbench {

namespace {

struct GcnWorkload {
  cbm::CommunityParams graph;
  std::uint64_t graph_salt = 0;
  int alpha = 0;
  cbm::index_t width = 0;
};

// The graph is the dataset registry's ogbn-proteins stand-in
// (src/bench_util/datasets.cpp) at dataset scale 0.4, with the registry's
// community parameters. It is drawn by planted_communities from the run seed,
// so its size does not depend on it.
cbm::CommunityParams proteins_graph(bool smoke) {
  cbm::CommunityParams p;
  p.num_nodes = smoke ? 1200 : 5200;
  p.team_min = 200;
  p.team_max = 420;
  p.size_exponent = 1.6;
  p.intra_prob = 0.80;
  p.cross_per_node = 30.0;
  return p;
}

GcnWorkload find_workload(const std::string& name, bool smoke) {
  if (name == "gcn-proteins-t1") return {proteins_graph(smoke), 0x90BA, 8, 32};
  throw std::invalid_argument("unknown GCN workload: " + name);
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

/// One window of the timed loop: 100 back-to-back CBM forwards, then 25 CSR
/// forwards, in rounds of 20 + 5.
struct Window {
  double p50_s = 0.0;      ///< CBM forward, median
  double p90_s = 0.0;      ///< CBM forward, p90 (10 passes beyond it)
  double csr_p50_s = 0.0;  ///< CSR forward, median
  double rate = 0.0;       ///< CBM forwards per busy second
};

/// Everything between the generated graph and the first ready forward.
struct Prepared {
  std::unique_ptr<cbm::CbmAdjacency<real_t>> cbm;
  std::unique_ptr<cbm::CsrAdjacency<real_t>> csr;
  cbm::CbmStats stats;
  double seconds = 0.0;
};

Prepared prepare(const cbm::Graph& g, int alpha, Tracer& tracer) {
  Prepared p;
  const auto t0 = Clock::now();
  const ScopedSpan setup(tracer, "setup");
  cbm::GcnNormalization<real_t> norm;
  {
    const ScopedSpan s(tracer, "setup.normalize");
    norm = cbm::gcn_normalization<real_t>(g);
  }
  {
    const ScopedSpan s(tracer, "setup.compress");
    p.cbm = std::make_unique<cbm::CbmAdjacency<real_t>>(
        cbm::CbmMatrix<real_t>::compress_scaled(
            norm.a_plus_i, std::span<const real_t>(norm.dinv_sqrt),
            cbm::CbmKind::kSymScaled, {.alpha = alpha}, &p.stats));
  }
  {
    const ScopedSpan s(tracer, "setup.csr");
    p.csr = std::make_unique<cbm::CsrAdjacency<real_t>>(
        cbm::scale_both<real_t>(norm.a_plus_i, norm.dinv_sqrt,
                                norm.dinv_sqrt));
  }
  p.seconds = since(t0);
  return p;
}

}  // namespace

RunResult run_gcn_workload(const RunConfig& config, Tracer& tracer) {
  const GcnWorkload w = find_workload(config.workload, config.smoke);
  cbm::set_threads(workload_threads(config.workload));

  const cbm::Graph g =
      planted_communities(w.graph, mix_seed(config.seed, w.graph_salt));
  const cbm::index_t n = g.num_nodes();
  const cbm::Gcn2<real_t> model(w.width, w.width, w.width,
                                mix_seed(config.seed, 0x6C4E));
  Dense x(n, w.width);
  {
    cbm::Rng rng(mix_seed(config.seed, 0xFEA7));
    x.fill_uniform(rng);
  }

  RunResult result;
  std::vector<double> setup_s;
  StructureTotals structure;
  Prepared ready;
  for (int i = 0; i < (config.smoke ? 1 : 3); ++i) {
    ready = Prepared{};  // one set of operands at a time, as a user holds them
    ready = prepare(g, w.alpha, tracer);
    setup_s.push_back(ready.seconds);
    structure.add(ready.stats, ready.cbm->matrix(), ready.csr->matrix(),
                  w.width);
  }
  result.labels = {
      {"plan", plan_label(ready.cbm->schedule())},
      {"alpha", std::to_string(w.alpha)},
      {"nodes", std::to_string(n)},
      {"a_hat_nnz", std::to_string(ready.csr->matrix().nnz())},
      {"width", std::to_string(w.width)},
  };
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));

  if (config.trace) {
    const GcnOperands op{model, *ready.cbm, *ready.csr, x};
    ForwardSamples forwards;
    trace_gcn_layers(op, deadline, config.smoke ? 2 : 5, tracer, result,
                     forwards);
    add_gcn_layer_metrics(tracer, result);
    add_structure_metrics(structure, forwards, result);
    result.add("obs.trace_overhead_frac",
               median(forwards.traced_cbm_s) / median(forwards.cbm_s) - 1.0,
               "ratio");
    Dense reference(n, w.width);
    cbm::csr_spmm(ready.csr->matrix(), x, reference);
    probe_serving(g.adjacency(), x, reference, ready.cbm->matrix(), w.alpha,
                  4, mix_seed(config.seed, 0x5E7E), tracer, result);
    return result;
  }

  cbm::Gcn2<real_t>::Workspace ws(n, w.width, w.width);
  cbm::Gcn2<real_t>::Workspace ws_csr(n, w.width, w.width);
  Dense out(n, w.width);
  Dense out_csr(n, w.width);
  model.forward(*ready.csr, x, ws_csr, out_csr);
  const Dense reference = out_csr;
  for (int i = 0; i < 3; ++i) model.forward(*ready.cbm, x, ws, out);

  // Windows of 100 CBM forwards and 25 CSR forwards, in rounds of 20 + 5: CBM
  // passes follow each other as they do for a user, and both operands see
  // the same drift. Another window starts only if it would end by the
  // deadline, and a run has at least three. On a shared host, slow periods
  // of seconds to minutes come and go and move a whole window by up to half,
  // so each metric is taken from its quietest window: it follows the code,
  // not the neighbours.
  const int rounds = config.smoke ? 1 : 5;
  const int block = config.smoke ? 4 : 20;
  const std::size_t min_windows = config.smoke ? 1 : 3;
  std::vector<Window> windows;
  Clock::duration window_time{};
  do {
    const auto window_start = Clock::now();
    std::vector<double> cbm_s;
    std::vector<double> csr_s;
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < block; ++i) {
        const auto t0 = Clock::now();
        model.forward(*ready.cbm, x, ws, out);
        cbm_s.push_back(since(t0));
        check_output(out, reference, "cbm forward", result);
      }
      for (int i = 0; i < block / 4; ++i) {
        const auto t0 = Clock::now();
        model.forward(*ready.csr, x, ws_csr, out_csr);
        csr_s.push_back(since(t0));
        check_output(out_csr, reference, "csr forward", result);
      }
    }
    windows.push_back({median(cbm_s), quantile(cbm_s, 0.90), median(csr_s),
                       static_cast<double>(cbm_s.size()) /
                           std::accumulate(cbm_s.begin(), cbm_s.end(), 0.0)});
    window_time = Clock::now() - window_start;
  } while (windows.size() < min_windows ||
           Clock::now() + window_time < deadline);

  const auto quietest = [&](double Window::*field) {
    std::vector<double> v;
    for (const Window& win : windows) v.push_back(win.*field);
    return field == &Window::rate ? *std::max_element(v.begin(), v.end())
                                  : *std::min_element(v.begin(), v.end());
  };
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("p50_ms", quietest(&Window::p50_s) * 1e3, "ms");
  result.add("tail_ms", quietest(&Window::p90_s) * 1e3, "ms");
  result.add("csr_p50_ms", quietest(&Window::csr_p50_s) * 1e3, "ms");
  result.add("rate_per_s", quietest(&Window::rate), "1/s");
  result.labels.emplace_back("windows", std::to_string(windows.size()));
  return result;
}

}  // namespace perfbench

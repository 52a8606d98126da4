// The serving workload: cbm::serve::ServeContext with gcn_normalize on,
// driven open-loop by one client thread while the batching worker multiplies
// with a 2-thread OpenMP team. Client and team leave one vCPU of a 4-vCPU
// host free: with all four busy, a neighbour's burst stole 6–18% of the CPU
// time and stalled the team's parallel regions until p50 grew tenfold.
//
// The pool holds 32 graphs of about 1024 nodes: even slots are
// community-clustered (they compress well), odd slots Barabási–Albert (they
// compress like cora/pubmed, i.e. not at all). One request in 50 carries its
// pool graph with a few edges toggled; the edited graph replaces the pool
// entry, so that request misses the cache and compresses on the batching
// worker while later requests queue behind it. Arrivals are Poisson at fixed
// rates, drawn from the seed, and every latency runs from the request's due
// time, so a stall is charged to every request it delays.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <thread>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "layers.hpp"
#include "serve/batch.hpp"
#include "serve/serve.hpp"
#include "sparse/spmm.hpp"

namespace perfbench {

namespace {

using cbm::serve::Response;
using cbm::serve::ServeContext;

constexpr int kPoolSize = 32;
constexpr cbm::index_t kWidth = 32;
constexpr int kEditEvery = 50;   // one request in 50 carries an edited graph
constexpr int kEditToggles = 4;  // edges toggled per edit
constexpr int kCheckEvery = 8;   // responses checked: ~1 in 8, plus edits
constexpr double kReferenceRate = 500.0;  // requests/s, below capacity
constexpr std::size_t kSlices = 5;        // of the reference phase
// p99 limit of the rate ladder. Below capacity the p99 is set by requests
// queued behind a cache-miss compression (~10–30 ms); past capacity the
// backlog grows and the p99 climbs steeply through this limit.
constexpr double kLatencyLimitS = 0.050;
// The rate ladder: 1000 req/s, then 12% more per rung. Capacity on a 4-vCPU
// VM is about 1.5k req/s, so a rung fails long before the 30th (about
// 27k req/s); a run whose every rung passes says so on its labels rather
// than reporting a ceiling as a measurement.
constexpr double kLadderStart = 1000.0;
constexpr double kLadderStep = 1.12;
constexpr int kLadderRungs = 30;

struct PoolEntry {
  std::shared_ptr<const cbm::Graph> graph;
  std::shared_ptr<const Dense> features;
  std::shared_ptr<const Dense> reference;  ///< D^-1/2(A+I)D^-1/2·X in CSR
};

PoolEntry make_entry(cbm::Graph graph, std::shared_ptr<const Dense> features) {
  PoolEntry e;
  e.graph = std::make_shared<const cbm::Graph>(std::move(graph));
  e.features = std::move(features);
  auto reference = std::make_shared<Dense>(e.graph->num_nodes(), kWidth);
  cbm::csr_spmm(cbm::gcn_normalized_adjacency<real_t>(*e.graph), *e.features,
                *reference);
  e.reference = std::move(reference);
  return e;
}

std::vector<PoolEntry> make_pool(std::uint64_t seed, bool smoke) {
  cbm::Rng rng(mix_seed(seed, 0x9001));
  std::vector<PoolEntry> pool;
  for (int i = 0; i < (smoke ? 4 : kPoolSize); ++i) {
    const cbm::index_t n = smoke ? 128 : 1024;
    const std::uint64_t graph_seed =
        mix_seed(seed, 0x1000 + static_cast<std::uint64_t>(i));
    cbm::Graph g;
    if (i % 2 == 0) {
      cbm::CommunityParams p;
      p.num_nodes = n;
      p.team_min = 24;
      p.team_max = 40;
      p.size_exponent = 1.8;
      p.intra_prob = 1.0;
      p.cross_per_node = 2.0;
      g = planted_communities(p, graph_seed);
    } else {
      g = cbm::barabasi_albert(n, 3, graph_seed);
    }
    auto x = std::make_shared<Dense>(n, kWidth);
    x->fill_uniform(rng);
    pool.push_back(make_entry(std::move(g), std::move(x)));
  }
  return pool;
}

/// `g` with kEditToggles random node pairs toggled (edge added or removed).
cbm::Graph toggle_edges(const cbm::Graph& g, cbm::Rng& rng) {
  const cbm::index_t n = g.num_nodes();
  std::vector<std::pair<cbm::index_t, cbm::index_t>> edges;
  for (cbm::index_t u = 0; u < n; ++u) {
    for (const cbm::index_t v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  for (int t = 0; t < kEditToggles; ++t) {
    auto u = static_cast<cbm::index_t>(rng.next_below(n));
    auto v = static_cast<cbm::index_t>(rng.next_below(n - 1));
    if (v >= u) ++v;
    if (u > v) std::swap(u, v);
    const auto it = std::find(edges.begin(), edges.end(), std::pair{u, v});
    if (it != edges.end()) {
      edges.erase(it);
    } else {
      edges.emplace_back(u, v);
    }
  }
  return cbm::Graph::from_edges(n, edges);
}

struct Arrival {
  double due_s = 0.0;  ///< offset from the phase start
  int slot = 0;        ///< pool entry
  bool edit = false;
  bool check = false;
};

/// A fixed arrival schedule plus the edited graphs its edit arrivals carry,
/// generated ahead of the phase so the client only copies and submits.
struct Phase {
  std::vector<Arrival> arrivals;
  std::vector<PoolEntry> edits;  ///< in arrival order
};

Phase plan_phase(double rate, double duration,
                 const std::vector<PoolEntry>& pool, cbm::Rng& rng) {
  Phase phase;
  std::vector<PoolEntry> shadow = pool;
  double t = 0.0;
  std::uint64_t edit_slot = 0;
  for (std::size_t i = 0;; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration) break;
    if (i % kEditEvery == 0) edit_slot = rng.next_below(kEditEvery);
    Arrival a;
    a.due_s = t;
    a.slot = static_cast<int>(rng.next_below(shadow.size()));
    a.edit = i % kEditEvery == edit_slot;
    // Edits alternate between clustered and Barabási–Albert slots, so each
    // phase pays the same mix of expensive and cheap compressions.
    if (a.edit) a.slot = (a.slot & ~1) | static_cast<int>((i / kEditEvery) & 1);
    a.check = a.edit || rng.next_below(kCheckEvery) == 0;
    if (a.edit) {
      PoolEntry& e = shadow[static_cast<std::size_t>(a.slot)];
      e = make_entry(toggle_edges(*e.graph, rng), e.features);
      phase.edits.push_back(e);
    }
    phase.arrivals.push_back(a);
  }
  return phase;
}

struct PhaseOutcome {
  ServeSamples samples;
  std::size_t backlog = 0;  ///< requests unanswered when the last was sent
};

PhaseOutcome run_phase(ServeContext& ctx, std::vector<PoolEntry>& pool,
                       const Phase& phase, std::uint64_t& next_id,
                       Tracer& tracer, RunResult& result) {
  struct Outstanding {
    std::future<Response> future;
    Clock::time_point due;
    Clock::time_point submitted;
    std::shared_ptr<const Dense> reference;  ///< null: not checked
  };
  std::deque<Outstanding> queue;
  PhaseOutcome out;
  ServeSamples& s = out.samples;
  // The worker answers in submission order, so only the front can be the
  // next to complete.
  const auto harvest = [&](bool wait) {
    while (!queue.empty()) {
      Outstanding& o = queue.front();
      if (!wait && o.future.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
        return;
      }
      try {
        const Response r = o.future.get();
        const double late = seconds_between(o.due, o.submitted);
        const double latency = late + r.total_seconds;
        s.latency_s.push_back(latency);
        s.late_s.push_back(late);
        s.queue_s.push_back(r.queue_seconds);
        s.service_s.push_back(r.total_seconds - r.queue_seconds);
        s.batch_size.push_back(r.batch_size);
        if (r.cache_hit) {
          ++s.hits;
        } else {
          s.miss_latency_s.push_back(latency);
        }
        if (o.reference) {
          check_output(r.output, *o.reference, "served response", result);
        } else {
          ++result.attempted;
        }
      } catch (const std::exception& e) {
        ++result.attempted;
        ++result.failed;
        std::fprintf(stderr, "perfbench: served request failed: %s\n",
                     e.what());
      }
      queue.pop_front();
    }
  };

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  std::size_t next_edit = 0;
  for (const Arrival& a : phase.arrivals) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(a.due_s));
    while (Clock::now() < due) {
      harvest(false);
      std::this_thread::sleep_until(
          std::min(due, Clock::now() + std::chrono::microseconds(100)));
    }
    PoolEntry& entry = pool[static_cast<std::size_t>(a.slot)];
    if (a.edit) entry = phase.edits[next_edit++];
    cbm::serve::Request req{next_id++, entry.graph->adjacency(),
                            *entry.features};
    const auto submitted = Clock::now();
    std::future<Response> future;
    {
      const ScopedSpan span(tracer, "serve.submit");
      future = ctx.submit(std::move(req));
    }
    queue.push_back({std::move(future), due, submitted,
                     a.check ? entry.reference : nullptr});
  }
  harvest(false);
  out.backlog = queue.size();
  harvest(true);
  return out;
}

/// Meets the latency limit without a growing backlog.
bool sustained(const PhaseOutcome& o, double rate) {
  return quantile(o.samples.latency_s, 0.99) <= kLatencyLimitS &&
         static_cast<double>(o.backlog) <=
             std::max(16.0, rate * kLatencyLimitS);
}

struct Ready {
  std::unique_ptr<ServeContext> ctx;
  double seconds = 0.0;
};

/// A fresh context with every pool graph compressed and cached.
Ready warm_context(const std::vector<PoolEntry>& pool, std::uint64_t& next_id,
                   Tracer& tracer, RunResult& result) {
  Ready ready;
  std::vector<Response> responses;
  const auto t0 = Clock::now();
  {
    const ScopedSpan span(tracer, "setup");
    cbm::serve::ServeOptions options;
    options.gcn_normalize = true;
    ready.ctx = std::make_unique<ServeContext>(options);
    std::vector<std::future<Response>> futures;
    for (const PoolEntry& e : pool) {
      futures.push_back(
          ready.ctx->submit({next_id++, e.graph->adjacency(), *e.features}));
    }
    for (auto& f : futures) responses.push_back(f.get());
  }
  ready.seconds = seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    check_output(responses[i].output, *pool[i].reference, "warm-up response",
                 result);
  }
  return ready;
}

/// D^-1/2(A+I)D^-1/2 compressed the way a cache miss compresses it.
cbm::CbmMatrix<real_t> compress_entry(const PoolEntry& e, int alpha,
                                      cbm::CbmStats* stats) {
  const auto norm = cbm::gcn_normalization<real_t>(*e.graph);
  return cbm::CbmMatrix<real_t>::compress_scaled(
      norm.a_plus_i, std::span<const real_t>(norm.dinv_sqrt),
      cbm::CbmKind::kSymScaled, {.alpha = alpha}, stats);
}

/// The GCN layers and the compression statistics on the pool's own graphs.
void trace_pool_layers(const std::vector<PoolEntry>& pool, int alpha,
                       int batch, std::uint64_t seed, Tracer& tracer,
                       RunResult& result) {
  const cbm::Gcn2<real_t> model(kWidth, kWidth, kWidth, mix_seed(seed, 0x6C4E));
  StructureTotals structure;
  ForwardSamples forwards;
  std::vector<std::unique_ptr<cbm::CbmAdjacency<real_t>>> compressed;
  for (const PoolEntry& e : pool) {
    cbm::CbmStats stats;
    compressed.push_back(std::make_unique<cbm::CbmAdjacency<real_t>>(
        compress_entry(e, alpha, &stats)));
    const cbm::CsrAdjacency<real_t> csr(
        cbm::gcn_normalized_adjacency<real_t>(*e.graph));
    structure.add(stats, compressed.back()->matrix(), csr.matrix(), kWidth);
    trace_gcn_layers({model, *compressed.back(), csr, *e.features},
                     Clock::now(), 3, tracer, result, forwards);
  }
  add_gcn_layer_metrics(tracer, result);
  add_structure_metrics(structure, forwards, result);

  std::vector<const Csr*> adjacencies;
  std::vector<const cbm::CbmMatrix<real_t>*> cbms;
  std::vector<const Dense*> features;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    adjacencies.push_back(&pool[i].graph->adjacency());
    cbms.push_back(&compressed[i]->matrix());
    features.push_back(pool[i].features.get());
  }
  time_serve_kernels(adjacencies, cbms, features, batch, alpha, 20,
                     mix_seed(seed, 0xBA7C), tracer, result);
}

}  // namespace

RunResult run_serve_workload(const RunConfig& config, Tracer& tracer) {
  cbm::set_threads(workload_threads(config.workload));
  RunResult result;
  std::vector<PoolEntry> pool = make_pool(config.seed, config.smoke);
  cbm::Rng rng(mix_seed(config.seed, 0xA441));
  std::uint64_t next_id = 0;

  // The paper's baseline for one request: Â·X with Â in CSR. One sample is
  // the mean over the whole pool, so every sample sees the same graph mix.
  std::vector<double> csr_s;
  {
    std::vector<Csr> a_hat;
    std::vector<Dense> out;
    for (const PoolEntry& e : pool) {
      a_hat.push_back(cbm::gcn_normalized_adjacency<real_t>(*e.graph));
      out.emplace_back(e.graph->num_nodes(), kWidth);
    }
    for (int rep = 0; rep < (config.smoke ? 3 : 500); ++rep) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < pool.size(); ++i) {
        cbm::csr_spmm(a_hat[i], *pool[i].features, out[i]);
      }
      csr_s.push_back(seconds_between(t0, Clock::now()) /
                      static_cast<double>(pool.size()));
    }
  }

  std::vector<double> setup_s;
  Ready ready;
  for (int i = 0; i < (config.smoke ? 1 : 5); ++i) {
    ready.ctx.reset();  // one context (and worker team) at a time
    ready = warm_context(pool, next_id, tracer, result);
    setup_s.push_back(ready.seconds);
  }
  ServeContext& ctx = *ready.ctx;
  const int alpha = ctx.options().compress.alpha;
  {
    // The plan a single request runs; batched requests share one multiply.
    const PoolEntry& probe = pool.front();
    const cbm::CbmMatrix<real_t> m = compress_entry(probe, alpha, nullptr);
    Dense c(m.rows(), kWidth);
    const auto decision = m.resolve_plan(*probe.features, c, ctx.runtime());
    result.labels = {
        {"plan", plan_label(decision.plan.schedule)},
        {"tune", ctx.runtime().tune_mode},
        {"alpha", std::to_string(alpha)},
        {"max_batch", std::to_string(ctx.options().max_batch)},
        {"loop", "open, 1 client, Poisson arrivals"},
    };
  }

  const double reference_s = config.smoke ? 0.3 : 0.5 * config.seconds;
  const double step_s = config.smoke ? 0.1 : 0.12 * config.seconds;

  if (config.trace) {
    // One planned phase replayed untraced and traced, in alternating pairs,
    // each replay on a freshly warmed context from the same pool: the same
    // arrivals, edits and cache misses, so the ratio of the two medians is
    // what the benchmark's own spans cost. The serve.* metrics pool the
    // traced replays.
    ready.ctx.reset();  // one context (and worker team) at a time
    Tracer off(false);
    const std::vector<PoolEntry> start = pool;
    const Phase phase =
        plan_phase(kReferenceRate, config.smoke ? 0.2 : 0.08 * config.seconds,
                   pool, rng);
    ServeSamples traced;
    std::vector<double> overhead;
    for (int pair = 0; pair < 3; ++pair) {
      double p50[2];
      for (const int t : {0, 1}) {
        pool = start;
        Ready fresh = warm_context(pool, next_id, off, result);
        const PhaseOutcome o = run_phase(*fresh.ctx, pool, phase, next_id,
                                         t ? tracer : off, result);
        p50[t] = median(o.samples.latency_s);
        if (t) traced.append(o.samples);
      }
      overhead.push_back(p50[1] / p50[0] - 1.0);
    }
    add_serve_sample_metrics(traced, result);
    result.add("obs.trace_overhead_frac", median(overhead), "ratio");
    const int batch = std::max(
        1, static_cast<int>(std::lround(mean(traced.batch_size))));
    trace_pool_layers(pool, alpha, batch, config.seed, tracer, result);
    return result;
  }

  // The p99 sits among the requests queued behind cache-miss compressions,
  // so the reference phase is long enough to hold about fifty of them.
  const PhaseOutcome reference =
      run_phase(ctx, pool, plan_phase(kReferenceRate, reference_s, pool, rng),
                next_id, tracer, result);
  // Memory at the reference rate; overloaded rungs below queue far more.
  const double rss_mb = peak_rss_mb();
  // Climb the ladder until a rung misses the limit. The reported rate is
  // where the p99 crosses the limit, interpolated between the last rung that
  // met it and the first that did not, so it does not jump by whole rungs.
  double pass_rate = 0.0;
  double pass_p99 = 0.0;
  double max_rps = 0.0;
  bool saturated = true;
  double rate = kLadderStart;
  for (int rung = 0; rung < kLadderRungs; ++rung, rate *= kLadderStep) {
    const PhaseOutcome step = run_phase(
        ctx, pool, plan_phase(rate, step_s, pool, rng), next_id, tracer,
        result);
    const double p99 = quantile(step.samples.latency_s, 0.99);
    if (!sustained(step, rate)) {
      max_rps = p99 > kLatencyLimitS
                    ? pass_rate + (rate - pass_rate) *
                                      (kLatencyLimitS - pass_p99) /
                                      (p99 - pass_p99)
                    : pass_rate;
      saturated = false;
      break;
    }
    pass_rate = rate;
    pass_p99 = p99;
  }
  if (saturated) {
    max_rps = pass_rate;
    result.labels.emplace_back("ladder", "every rung passed");
  }

  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", rss_mb, "MB");
  // The reference phase is read in five slices of consecutive arrivals, each
  // with ten or more requests beyond its p99, and the latencies come from the
  // quietest slice, as the GCN workload's timings come from its quietest
  // window: a slow period of the shared host moves a slice, not the result.
  const std::vector<double>& latency = reference.samples.latency_s;
  const std::size_t slice = latency.size() / kSlices;
  double p50_s = std::numeric_limits<double>::infinity();
  double p99_s = p50_s;
  for (std::size_t i = 0; i + slice <= latency.size() && slice > 0;
       i += slice) {
    const std::vector<double> part(latency.begin() + i,
                                   latency.begin() + i + slice);
    p50_s = std::min(p50_s, median(part));
    p99_s = std::min(p99_s, quantile(part, 0.99));
  }
  result.add("p50_ms", p50_s * 1e3, "ms");
  result.add("tail_ms", p99_s * 1e3, "ms");
  result.add("csr_p50_ms", median(csr_s) * 1e3, "ms");
  result.add("rate_per_s", max_rps, "1/s");
  return result;
}

}  // namespace perfbench

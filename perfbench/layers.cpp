#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "cbm/spmm_cbm.hpp"
#include "common/rng.hpp"
#include "dense/gemm.hpp"
#include "dense/ops.hpp"
#include "serve/batch.hpp"
#include "serve/fingerprint.hpp"
#include "serve/serve.hpp"
#include "sparse/spmm.hpp"

namespace perfbench {

namespace {

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

double ms_median(const Tracer& tracer, const char* name) {
  return median(tracer.durations(name)) * 1e3;
}

}  // namespace

void check_output(const Dense& actual, const Dense& expected,
                  const char* what, RunResult& result) {
  ++result.attempted;
  const auto cmp =
      cbm::check::compare_allclose(actual, expected, 1e-4, 1e-5, 32);
  if (!cmp.ok) {
    ++result.failed;
    if (result.failed <= 5) {
      std::fprintf(stderr, "perfbench: %s mismatch: %s\n", what,
                   cmp.to_string().c_str());
    }
  }
}

cbm::Graph planted_communities(const cbm::CommunityParams& p,
                               std::uint64_t seed) {
  cbm::Rng rng(seed);
  // Golden-ratio steps from a seeded offset spread the quantiles of any
  // prefix of teams evenly over (0, 1).
  constexpr double kGoldenStep = 0.6180339887498949;
  const double offset = rng.next_double();
  const double expo = 1.0 - p.size_exponent;
  const double lo_pow = std::pow(static_cast<double>(p.team_min), expo);
  const double hi_pow = std::pow(static_cast<double>(p.team_max) + 1.0, expo);
  std::vector<std::pair<cbm::index_t, cbm::index_t>> edges;
  cbm::index_t next = 0;
  for (std::uint64_t team = 0; next < p.num_nodes; ++team) {
    const double u = std::fmod(offset + kGoldenStep * static_cast<double>(team),
                               1.0);
    const auto drawn = static_cast<cbm::index_t>(
        std::pow(lo_pow + u * (hi_pow - lo_pow), 1.0 / expo));
    const cbm::index_t size = std::min(
        std::clamp(drawn, p.team_min, p.team_max), p.num_nodes - next);
    for (cbm::index_t i = 0; i < size; ++i) {
      for (cbm::index_t j = i + 1; j < size; ++j) {
        if (p.intra_prob >= 1.0 || rng.next_bool(p.intra_prob)) {
          edges.emplace_back(next + i, next + j);
        }
      }
    }
    next += size;
  }
  const auto cross = static_cast<std::int64_t>(p.cross_per_node *
                                               p.num_nodes / 2.0);
  for (std::int64_t e = 0; e < cross; ++e) {
    const auto u = static_cast<cbm::index_t>(rng.next_below(p.num_nodes));
    const auto v = static_cast<cbm::index_t>(rng.next_below(p.num_nodes));
    if (u != v) edges.emplace_back(u, v);
  }
  return cbm::Graph::from_edges(p.num_nodes, edges);
}

std::string plan_label(const cbm::MultiplySchedule& plan) {
  return std::string(cbm::multiply_path_name(plan.path)) + "/" +
         cbm::spmm_schedule_name(plan.spmm) + "/" +
         cbm::update_schedule_name(plan.update);
}

void trace_gcn_layers(const GcnOperands& op, Clock::time_point deadline,
                      int min_passes, Tracer& tracer, RunResult& result,
                      ForwardSamples& samples) {
  const cbm::index_t n = op.x.rows();
  const std::array layers{&op.model.layer0(), &op.model.layer1()};
  const cbm::index_t hidden = layers[0]->out_features();
  const cbm::index_t out_dim = layers[1]->out_features();
  cbm::Gcn2<real_t>::Workspace ws(n, hidden, out_dim);
  cbm::Gcn2<real_t>::Workspace ws_csr(n, hidden, out_dim);
  Dense out(n, out_dim);
  Dense out_csr(n, out_dim);
  op.model.forward(op.csr, op.x, ws_csr, out_csr);
  const Dense reference = out_csr;
  op.model.forward(op.cbm, op.x, ws, out);

  const cbm::CbmMatrix<real_t>& m = op.cbm.matrix();
  const cbm::MultiplySchedule& plan = op.cbm.schedule();
  const Csr& a_hat = op.csr.matrix();
  struct Buffers {
    Dense scratch, agg, staged, csr_agg;
  };
  std::vector<Buffers> buffers;
  for (const auto* layer : layers) {
    const cbm::index_t w = layer->out_features();
    buffers.push_back({Dense(n, w), Dense(n, w), Dense(n, w), Dense(n, w)});
  }

  for (int pass = 0; pass < min_passes || Clock::now() < deadline; ++pass) {
    auto t0 = Clock::now();
    op.model.forward(op.cbm, op.x, ws, out);
    samples.cbm_s.push_back(since(t0));
    check_output(out, reference, "cbm forward", result);

    t0 = Clock::now();
    {
      const ScopedSpan forward(tracer, "gnn.forward");
      {
        const ScopedSpan s(tracer, "gnn.layer0");
        layers[0]->forward(op.cbm, op.x, ws.xw, ws.h1);
      }
      cbm::relu_inplace(ws.h1);
      {
        const ScopedSpan s(tracer, "gnn.layer1");
        layers[1]->forward(op.cbm, ws.h1, ws.hw, out);
      }
    }
    samples.traced_cbm_s.push_back(since(t0));
    check_output(out, reference, "traced cbm forward", result);

    t0 = Clock::now();
    op.model.forward(op.csr, op.x, ws_csr, out_csr);
    samples.csr_s.push_back(since(t0));
    check_output(out_csr, reference, "csr forward", result);

    // ws.h1 now holds the post-ReLU layer-0 output, i.e. layer 1's input.
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const cbm::GcnLayer<real_t>& layer = *layers[i];
      const Dense& h = i == 0 ? op.x : ws.h1;
      const cbm::index_t w = layer.out_features();
      Buffers& b = buffers[i];
      {
        const ScopedSpan s(tracer, "dense.gemm",
                           2.0 * n * layer.in_features() * w);
        cbm::gemm(h, layer.weight(), b.scratch);
      }
      {
        const ScopedSpan s(tracer, "cbm.aggregate");
        op.cbm.multiply(b.scratch, b.agg);
      }
      {
        const ScopedSpan s(
            tracer, "sparse.delta_spmm",
            static_cast<double>(cbm::csr_spmm_flops(m.delta_matrix(), w)));
        cbm::csr_spmm(m.delta_matrix(), b.scratch, b.staged, plan.spmm);
      }
      {
        const ScopedSpan s(tracer, "cbm.update");
        cbm::cbm_update_stage(m.tree(), m.kind(), m.diagonal(), b.staged,
                              plan.update);
      }
      {
        const ScopedSpan s(
            tracer, "sparse.csr_spmm",
            static_cast<double>(cbm::csr_spmm_flops(a_hat, w)));
        cbm::csr_spmm(a_hat, b.scratch, b.csr_agg);
      }
      check_output(b.agg, b.csr_agg, "cbm aggregate", result);
      check_output(b.staged, b.csr_agg, "delta spmm + update", result);
    }
  }
}

void add_gcn_layer_metrics(const Tracer& tracer, RunResult& result) {
  result.add("gnn.layer0_ms", ms_median(tracer, "gnn.layer0"), "ms");
  result.add("gnn.layer1_ms", ms_median(tracer, "gnn.layer1"), "ms");
  result.add("dense.gemm_ms", ms_median(tracer, "dense.gemm"), "ms");
  result.add("dense.gemm_gflops", tracer.rate("dense.gemm") / 1e9, "GFLOP/s");
  result.add("sparse.csr_spmm_ms", ms_median(tracer, "sparse.csr_spmm"), "ms");
  result.add("sparse.delta_spmm_ms", ms_median(tracer, "sparse.delta_spmm"),
             "ms");
  result.add("sparse.delta_spmm_gflops",
             tracer.rate("sparse.delta_spmm") / 1e9, "GFLOP/s");
  result.add("cbm.aggregate_ms", ms_median(tracer, "cbm.aggregate"), "ms");
  result.add("cbm.update_ms", ms_median(tracer, "cbm.update"), "ms");
}

void StructureTotals::add(const cbm::CbmStats& stats,
                          const cbm::CbmMatrix<real_t>& m, const Csr& a_hat,
                          cbm::index_t width) {
  compress_s.push_back(stats.build_seconds);
  distance_graph_s.push_back(stats.distance_graph_seconds);
  delta_s.push_back(stats.delta_seconds);
  tree_solve_s.push_back(stats.tree_solve_seconds);
  max_depth.push_back(static_cast<double>(stats.max_depth));
  root_out_degree.push_back(static_cast<double>(stats.root_out_degree));
  source_nnz += static_cast<double>(stats.source_nnz);
  deltas += static_cast<double>(stats.total_deltas);
  csr_bytes += static_cast<double>(a_hat.bytes());
  cbm_bytes += static_cast<double>(m.bytes());
  csr_flops += static_cast<double>(cbm::csr_spmm_flops(a_hat, width));
  cbm_ops += static_cast<double>(m.scalar_ops(width));
}

void add_structure_metrics(const StructureTotals& t,
                           const ForwardSamples& forwards,
                           RunResult& result) {
  result.add("cbm.compress_s", median(t.compress_s), "s");
  result.add("cbm.distance_graph_s", median(t.distance_graph_s), "s");
  result.add("cbm.delta_s", median(t.delta_s), "s");
  result.add("tree.solve_s", median(t.tree_solve_s), "s");
  result.add("cbm.compression_ratio", t.source_nnz / std::max(t.deltas, 1.0),
             "ratio");
  result.add("cbm.bytes_ratio", t.csr_bytes / t.cbm_bytes, "ratio");
  result.add("cbm.ops_ratio", t.csr_flops / t.cbm_ops, "ratio");
  result.add("tree.max_depth", median(t.max_depth), "count");
  result.add("tree.root_out_degree", median(t.root_out_degree), "count");
  const double saving = median(forwards.csr_s) - median(forwards.cbm_s);
  result.add("cbm.break_even_passes",
             saving > 0.0 ? median(t.compress_s) / saving : -1.0, "passes");
}

void ServeSamples::append(const ServeSamples& o) {
  for (auto [to, from] :
       {std::pair{&latency_s, &o.latency_s}, {&queue_s, &o.queue_s},
        {&service_s, &o.service_s}, {&batch_size, &o.batch_size},
        {&miss_latency_s, &o.miss_latency_s}, {&late_s, &o.late_s}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  hits += o.hits;
}

void add_serve_sample_metrics(const ServeSamples& s, RunResult& result) {
  result.add("serve.queue_wait_p50_ms", quantile(s.queue_s, 0.50) * 1e3, "ms");
  result.add("serve.queue_wait_p99_ms", quantile(s.queue_s, 0.99) * 1e3, "ms");
  result.add("serve.service_p50_ms", median(s.service_s) * 1e3, "ms");
  result.add("serve.batch_size_mean", mean(s.batch_size), "count");
  result.add("serve.cache_hit_frac",
             static_cast<double>(s.hits) /
                 static_cast<double>(std::max<std::size_t>(
                     s.latency_s.size(), 1)),
             "ratio");
  result.add("serve.miss_latency_p50_ms", median(s.miss_latency_s) * 1e3,
             "ms");
  result.add("serve.generator_late_p99_ms", quantile(s.late_s, 0.99) * 1e3,
             "ms");
}

void time_serve_kernels(const std::vector<const Csr*>& adjacencies,
                        const std::vector<const cbm::CbmMatrix<real_t>*>& cbms,
                        const std::vector<const Dense*>& features, int batch,
                        int alpha, int reps, std::uint64_t seed,
                        Tracer& tracer, RunResult& result) {
  const auto kind = static_cast<std::uint32_t>(cbm::CbmKind::kSymScaled);
  cbm::Rng rng(seed);
  for (int rep = 0; rep < reps; ++rep) {
    for (const Csr* a : adjacencies) {
      const ScopedSpan s(tracer, "serve.fingerprint");
      (void)cbm::serve::make_graph_key(*a, kind, alpha);
    }
    std::vector<cbm::serve::BatchItem<real_t>> items;
    for (int i = 0; i < batch; ++i) {
      const auto pick = static_cast<std::size_t>(rng.next_below(cbms.size()));
      items.push_back({cbms[pick], features[pick]});
    }
    cbm::serve::PackedBatch<real_t> packed;
    {
      const ScopedSpan s(tracer, "serve.pack");
      packed = cbm::serve::pack_batch(
          std::span<const cbm::serve::BatchItem<real_t>>(items));
    }
    Dense packed_out(packed.cbm.rows(), packed.features.cols());
    packed.cbm.multiply(packed.features, packed_out);
    std::vector<Dense> outputs;
    std::vector<Dense*> out_ptrs;
    for (std::size_t i = 0; i < items.size(); ++i) {
      outputs.emplace_back(packed.row_offsets[i + 1] - packed.row_offsets[i],
                           packed_out.cols());
    }
    for (Dense& o : outputs) out_ptrs.push_back(&o);
    {
      const ScopedSpan s(tracer, "serve.scatter");
      cbm::serve::scatter_batch(
          packed_out, std::span<const cbm::index_t>(packed.row_offsets),
          std::span<Dense* const>(out_ptrs));
    }
  }
  result.add("serve.fingerprint_us",
             median(tracer.durations("serve.fingerprint")) * 1e6, "us");
  result.add("serve.pack_ms", ms_median(tracer, "serve.pack"), "ms");
  result.add("serve.scatter_ms", ms_median(tracer, "serve.scatter"), "ms");
}

void probe_serving(const Csr& adjacency, const Dense& x, const Dense& reference,
                   const cbm::CbmMatrix<real_t>& compressed, int alpha,
                   int requests, std::uint64_t seed, Tracer& tracer,
                   RunResult& result) {
  cbm::serve::ServeOptions options;
  options.gcn_normalize = true;
  options.compress.alpha = alpha;
  ServeSamples s;
  {
    cbm::serve::ServeContext ctx(options);
    for (int i = 0; i < requests; ++i) {
      const auto due = Clock::now();
      cbm::serve::Request req{static_cast<std::uint64_t>(i), adjacency, x};
      const auto submitted = Clock::now();
      cbm::serve::Response resp;
      try {
        const ScopedSpan span(tracer, "serve.request");
        resp = ctx.submit(std::move(req)).get();
      } catch (const std::exception& e) {
        ++result.attempted;
        ++result.failed;
        std::fprintf(stderr, "perfbench: served request failed: %s\n",
                     e.what());
        continue;
      }
      check_output(resp.output, reference, "served response", result);
      const double late = seconds_between(due, submitted);
      const double latency = late + resp.total_seconds;
      s.latency_s.push_back(latency);
      s.late_s.push_back(late);
      s.queue_s.push_back(resp.queue_seconds);
      s.service_s.push_back(resp.total_seconds - resp.queue_seconds);
      s.batch_size.push_back(resp.batch_size);
      if (resp.cache_hit) {
        ++s.hits;
      } else {
        s.miss_latency_s.push_back(latency);
      }
    }
  }
  add_serve_sample_metrics(s, result);
  time_serve_kernels({&adjacency}, {&compressed}, {&x}, 1, alpha, 5, seed,
                     tracer, result);
}

}  // namespace perfbench

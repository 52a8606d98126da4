// Layer-by-layer measurement shared by the workloads: the GCN forward split
// into layers, GEMM vs aggregation, and delta SpMM vs update stage; the
// compression-structure counts; and the serving-layer statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cbm/cbm_matrix.hpp"
#include "check/oracle.hpp"
#include "gnn/gcn.hpp"
#include "graph/generators.hpp"

namespace perfbench {

using cbm::real_t;
using Csr = cbm::CsrMatrix<real_t>;
using Dense = cbm::DenseMatrix<real_t>;

/// Counts one output check into `result`: a failure when `actual` and
/// `expected` disagree beyond float reassociation (the CBM update stage adds
/// parent rows where CSR sums neighbours directly, so the two agree to a few
/// ULP, not bitwise). The first failures are described on stderr.
void check_output(const Dense& actual, const Dense& expected,
                  const char* what, RunResult& result);

/// The edge model of cbm::community_graph (consecutive teams, within-team
/// edges with intra_prob, uniform cross edges), except that the team sizes
/// are taken at evenly spread quantiles of the same power law rather than
/// drawn independently. A graph with a few large teams would otherwise change
/// its edge count by tens of percent from seed to seed; this way every seed
/// gives a graph of nearly the same size, and the seed still picks the order
/// of the sizes and every edge.
cbm::Graph planted_communities(const cbm::CommunityParams& p,
                               std::uint64_t seed);

/// One two-layer GCN with Â in both forms. All references are borrowed.
struct GcnOperands {
  const cbm::Gcn2<real_t>& model;
  const cbm::CbmAdjacency<real_t>& cbm;
  const cbm::CsrAdjacency<real_t>& csr;
  const Dense& x;
};

/// Forward-pass wall times (seconds) taken by trace_gcn_layers.
struct ForwardSamples {
  std::vector<double> cbm_s;         ///< untraced CBM forward
  std::vector<double> traced_cbm_s;  ///< the same forward with layer spans
  std::vector<double> csr_s;         ///< untraced CSR forward
};

/// Runs rounds until `deadline` has passed and at least `min_passes` are
/// done. Each round is: an untraced CBM forward, a CBM forward with
/// spans around each layer (gnn.forward > gnn.layer0 / gnn.layer1), an
/// untraced CSR forward, and the breakdown of both layers into spans
/// dense.gemm, cbm.aggregate (CbmAdjacency::multiply), sparse.delta_spmm
/// (csr_spmm on the delta matrix), cbm.update (cbm_update_stage) and
/// sparse.csr_spmm. Every product is checked against its CSR counterpart;
/// checks count into result.attempted / result.failed. Timings are appended
/// to `samples`.
void trace_gcn_layers(const GcnOperands& op, Clock::time_point deadline,
                      int min_passes, Tracer& tracer, RunResult& result,
                      ForwardSamples& samples);

/// "path/spmm/update" label of the plan a CbmAdjacency runs.
std::string plan_label(const cbm::MultiplySchedule& plan);

/// Appends gnn.*, dense.*, sparse.*, cbm.aggregate_ms and cbm.update_ms
/// from the recorded spans.
void add_gcn_layer_metrics(const Tracer& tracer, RunResult& result);

/// Compression statistics pooled over one or more compressed operands.
struct StructureTotals {
  std::vector<double> compress_s, distance_graph_s, delta_s, tree_solve_s;
  std::vector<double> max_depth, root_out_degree;
  double source_nnz = 0, deltas = 0, csr_bytes = 0, cbm_bytes = 0;
  double csr_flops = 0, cbm_ops = 0;

  /// `a_hat` is the CSR form of the same operator; `width` the dense
  /// operand width the op counts are taken at.
  void add(const cbm::CbmStats& stats, const cbm::CbmMatrix<real_t>& m,
           const Csr& a_hat, cbm::index_t width);
};

/// Appends cbm.compress_s, cbm.distance_graph_s, cbm.delta_s, tree.solve_s,
/// cbm.compression_ratio, cbm.bytes_ratio, cbm.ops_ratio, tree.max_depth,
/// tree.root_out_degree and cbm.break_even_passes (compress time over the
/// per-forward saving of CBM vs CSR; −1 when CBM saves nothing).
void add_structure_metrics(const StructureTotals& totals,
                           const ForwardSamples& forwards, RunResult& result);

/// Per-request observations of the serving layer.
struct ServeSamples {
  std::vector<double> latency_s;  ///< due time → response ready
  std::vector<double> queue_s;    ///< Response::queue_seconds
  std::vector<double> service_s;  ///< total_seconds − queue_seconds
  std::vector<double> batch_size;
  std::vector<double> miss_latency_s;
  std::vector<double> late_s;     ///< due time → submit()
  std::int64_t hits = 0;

  void append(const ServeSamples& other);
};

/// Appends serve.queue_wait_p50_ms, serve.queue_wait_p99_ms,
/// serve.service_p50_ms, serve.batch_size_mean, serve.cache_hit_frac,
/// serve.miss_latency_p50_ms and serve.generator_late_p99_ms.
void add_serve_sample_metrics(const ServeSamples& s, RunResult& result);

/// Times make_graph_key, pack_batch and scatter_batch on the workload's own
/// graphs: `batch` items per packed batch drawn from `graphs` (seeded), with
/// spans serve.fingerprint / serve.pack / serve.scatter. Appends
/// serve.fingerprint_us, serve.pack_ms and serve.scatter_ms.
void time_serve_kernels(const std::vector<const Csr*>& adjacencies,
                        const std::vector<const cbm::CbmMatrix<real_t>*>& cbms,
                        const std::vector<const Dense*>& features, int batch,
                        int alpha, int reps, std::uint64_t seed,
                        Tracer& tracer, RunResult& result);

/// Closed-loop serving probe for workloads whose timed path never touches
/// cbm::serve: `requests` sequential infer() calls of one graph through a
/// fresh ServeContext (the first compresses, the rest hit the cache), each
/// output checked against `reference`. Appends the same serve.* metrics the
/// open-loop workload reports.
void probe_serving(const Csr& adjacency, const Dense& x, const Dense& reference,
                   const cbm::CbmMatrix<real_t>& compressed, int alpha,
                   int requests, std::uint64_t seed, Tracer& tracer,
                   RunResult& result);

}  // namespace perfbench

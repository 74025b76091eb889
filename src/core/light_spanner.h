// Light spanner for general graphs (§5, Theorem 2).
//
// Produces a (2k−1)(1+O(ε))-spanner with O(k·n^{1+1/k}) edges and lightness
// O(k·n^{1/k}) in Õ(n^{1/2 + 1/(4k+2)} + D) rounds:
//   - the MST is always included,
//   - edges with w(e) ≤ L/n (L = 2·w(MST)) go through Baswana–Sen [BS07],
//   - the remaining edges are split into O(log_{1+ε} n) weight buckets; per
//     bucket the graph is partitioned into clusters of weak diameter ε·w_i
//     along the Euler tour, and the Elkin–Neiman spanner [EN17b] is
//     simulated on the cluster graph:
//       Case 1 (few clusters): every propagation round is realized on the
//       physical network by a pipelined keyed max-aggregation to rt plus a
//       pipelined broadcast — both run message-level on the CONGEST kernel
//       here, and the kernel result is asserted equal to the simulated
//       round (a per-run proof-to-code check);
//       Case 2 (many clusters): clusters live in short communication
//       intervals of the tour; converge/broadcast costs inside intervals
//       are charged at their measured interval lengths.
#pragma once

#include <cstdint>
#include <vector>

#include "api/run_context.h"
#include "congest/stats.h"
#include "graph/graph.h"

namespace lightnet {

struct LightSpannerParams {
  int k = 2;
  double epsilon = 0.25;
  // §5.1 "Success probability": rerun a bucket whose spanner exceeds the
  // expected size bound; stretch is deterministic, so retries only bound
  // size/lightness.
  int max_bucket_retries = 5;
};

struct BucketDiagnostics {
  int index = 0;
  size_t bucket_edges = 0;
  int num_clusters = 0;
  bool case1 = false;
  size_t chosen_edges = 0;
  int retries = 0;
  std::int64_t max_interval_hops = 0;  // case 2 only
};

struct LightSpannerResult {
  std::vector<EdgeId> spanner;  // includes the MST
  congest::RoundLedger ledger;
  std::vector<BucketDiagnostics> buckets;
  size_t low_bucket_edges = 0;  // |H'| from Baswana-Sen
  size_t mst_edge_count = 0;
};

// Randomness from ctx.seed, every kernel execution under ctx.sched.
LightSpannerResult build_light_spanner(const WeightedGraph& g,
                                       const LightSpannerParams& params,
                                       const api::RunContext& ctx);

}  // namespace lightnet

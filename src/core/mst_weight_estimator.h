// MST-weight estimation from nets — the Theorem 7 reduction (§8).
//
// The paper's lower bound works by showing that net cardinalities across
// O(log n) scales yield Ψ = Σ_i n_i·α·2^{i+1} with
//     w(MST) ≤ Ψ ≤ O(α·log n)·w(MST),
// so a fast net algorithm would contradict the Ω̃(√n) hardness of
// approximating w(MST) [SHK+12]. This module implements the reduction
// forward: it runs the §6 net construction at every scale and produces the
// estimate, which the lower-bound bench compares against the exact weight —
// an executable witness of the reduction's correctness.
#pragma once

#include <vector>

#include "api/run_context.h"
#include "congest/stats.h"
#include "graph/graph.h"

namespace lightnet {

struct MstEstimateScale {
  double scale = 0.0;   // the 2^i separation parameter
  size_t net_size = 0;
};

struct MstEstimateResult {
  double psi = 0.0;         // the estimator Ψ
  double exact = 0.0;       // w(MST) (verification only)
  double ratio = 0.0;       // Ψ / w(MST); Theorem 7: in [1, O(α log n)]
  double alpha = 0.0;       // the net covering/separation factor used
  std::vector<MstEstimateScale> scales;
  congest::RoundLedger ledger;
};

MstEstimateResult estimate_mst_weight(const WeightedGraph& g, double delta,
                                      const api::RunContext& ctx);

}  // namespace lightnet

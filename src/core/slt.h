// Shallow-Light Trees (§4, Theorem 1) and the inverse tradeoff (§4.4).
//
// build_slt(g, rt, ε) returns a spanning tree with
//   - root stretch:  d_T(rt, v) ≤ (1+ε)(1+25ε) · d_G(rt, v)   (Lemma 4 +
//     the final (1+ε)-SPT pass), and
//   - lightness:     w(T) ≤ (1 + 4/ε) · w(MST)                 (Corollary 3),
// i.e. the paper's pre-rescaling guarantee; callers pick ε for the side of
// the tradeoff they want. The construction is the paper's: Euler tour of
// the MST, two-phase break-point selection (interval scans for BP1, a
// root-local pass over BP' for BP2), H = MST ∪ T_rt-paths to break points
// via the ABP subtree marking of §4.2, then an approximate SPT of H.
//
// build_slt_light(g, rt, γ) is the [BFN16] reduction (Lemma 5): lightness
// 1+γ with root stretch O(1/γ), obtained by rerunning build_slt on weights
// w'(e) = w(e) for MST edges and w(e)/δ otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "api/run_context.h"
#include "congest/stats.h"
#include "graph/graph.h"

namespace lightnet {

struct SltDiagnostics {
  size_t bp_prime_count = 0;  // |BP'| anchors
  size_t bp1_count = 0;
  size_t bp2_count = 0;
  size_t abp_count = 0;       // vertices adding their T_rt parent edge
  Weight h_weight = 0.0;      // w(H) before the final SPT pass
  Weight mst_weight = 0.0;
};

struct SltResult {
  std::vector<EdgeId> tree_edges;  // n-1 edges of the SLT
  RootedTree tree;
  congest::RoundLedger ledger;
  SltDiagnostics diag;
};

// The construction is deterministic; the RunContext contributes the
// scheduler mode for every kernel phase.
SltResult build_slt(const WeightedGraph& g, VertexId rt, double epsilon,
                    const api::RunContext& ctx = {});

// Lightness 1+γ, root stretch O(1/γ), for γ ∈ (0, 1).
SltResult build_slt_light(const WeightedGraph& g, VertexId rt, double gamma,
                          const api::RunContext& ctx = {});

}  // namespace lightnet

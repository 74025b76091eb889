// Distributed net construction (§6, Theorem 3).
//
// Computes a ((1+δ)·Δ, Δ/(1+δ))-net: in each iteration every active vertex
// samples a rank (a uniformly random permutation), LE lists are computed
// with respect to the (1+δ)-approximation H of G, a vertex joins the net
// iff it is first in the permutation among its Δ-neighborhood (readable off
// its LE list), and an approximate SPT rooted at the fresh net points
// deactivates everything within (1+δ)·Δ. W.h.p. O(log n) iterations
// suffice (the paper's active-pair halving argument); the iteration count
// is returned so tests and benches can check it.
//
// Cross-scale reuse (the doubling pipeline): a caller that already holds a
// coarser net may pass it as `seeds` — the seeds join the net up front and
// their (1+δ)·Δ balls are deactivated before the first iteration, so the
// LE-list iterations only process the leftover fringe. Covering is
// unaffected (the algorithm still runs until everything is deactivated);
// separation among seeds is the caller's contract (the doubling pipeline
// filters the previous net by the new scale's separation first). The
// shared RoundedSubstrate (H + Network at this δ) can likewise be hoisted
// out of a scale loop.
#pragma once

#include <span>
#include <vector>

#include "api/run_context.h"
#include "congest/stats.h"
#include "graph/graph.h"
#include "routines/approx_spt.h"
#include "routines/bounded_multisource.h"

namespace lightnet {

struct NetParams {
  Weight radius = 1.0;     // Δ
  double delta = 0.5;      // δ: approximation slack (0 = exact distances)
  int max_iterations = 0;  // 0 = 8·log2(n) + 16 safety cap
};

struct NetResult {
  std::vector<VertexId> net;
  int iterations = 0;
  size_t max_le_list_size = 0;  // [KKM+12] O(log n) bound, measured
  size_t seed_points = 0;           // seeds adopted before iteration 0
  size_t active_after_seeding = 0;  // fringe left for the iterations
  congest::RoundLedger ledger;
};

// Randomness from ctx.seed, every kernel execution under ctx.sched.
NetResult build_net(const WeightedGraph& g, const NetParams& params,
                    const api::RunContext& ctx);

// Seeded / substrate-reusing entry point. `seeds` pre-join the net (empty
// = cold start); `substrate` must be the (1+params.delta)-rounding of `g`
// (nullptr = build locally, still hoisted out of the iteration loop).
NetResult build_net(const WeightedGraph& g, const NetParams& params,
                    const api::RunContext& ctx,
                    std::span<const VertexId> seeds,
                    const RoundedSubstrate* substrate);

// Thins a finer net down to `separation` for use as the next scale's seeds:
// a point is kept iff no already-kept point sits within `separation` of it
// (greedy sweep in net order). `table` is any bounded exploration of
// `prev_net` whose radius is at least `separation` — the sweep only reads
// pairs at distance ≤ separation, so a full 2Δ exploration and the
// concurrent pipeline's short seed-filter chain yield identical seed sets
// (bounded tables are slices of one canonical fixed point). Pairs absent
// from the table are beyond the table's radius ≥ separation, so the table
// is a complete witness. `kept_scratch` is an n-sized scratch vector.
std::vector<VertexId> thin_net_seeds(
    std::span<const VertexId> prev_net,
    const std::vector<std::vector<BoundedSourceEntry>>& table,
    Weight separation, std::vector<char>& kept_scratch);

}  // namespace lightnet

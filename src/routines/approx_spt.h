// (1+ε)-approximate shortest path trees — the [BKKL17] substitute.
//
// Every consumer in the paper (SLT §4, nets §6) relies only on Eq. (1):
//     d_G(rt, v) ≤ d_T(rt, v) ≤ (1+ε) · d_G(rt, v),
// with every vertex knowing its distance label. We realize it by running
// the distributed Bellman-Ford kernel on a *rounded* copy of the graph
// (each edge weight rounded up to the next power of (1+ε)), which satisfies
// Eq. (1) by construction; ε = 0 degenerates to the exact SPT. Rounds are
// measured, not assumed — EXPERIMENTS.md reports them next to the paper's
// Õ((√n + D)/poly ε) claim for [BKKL17].
//
// RoundedSubstrate: rounding the weights and indexing the communication
// Network are pure functions of (graph, ε). Multi-phase algorithms (the
// doubling pipeline runs O(log W) scales, the net algorithm O(log n)
// iterations) build the substrate once and thread it through every kernel
// execution instead of re-rounding and re-indexing per phase.
#pragma once

#include <span>

#include "congest/bellman_ford.h"
#include "graph/graph.h"
#include "graph/shortest_paths.h"

namespace lightnet {

// The weight-rounding used throughout: each edge weight rounded up to the
// next power of (1+epsilon). Exposed for LE lists (§6 computes LE lists
// w.r.t. a (1+δ)-approximation H of G — we use the same H).
WeightedGraph round_weights_up(const WeightedGraph& g, double epsilon);

// A (1+ε)-rounded copy of a graph plus the congest::Network over it —
// everything a kernel execution on the rounded metric needs, built once and
// reused across phases. Immovable: `network` points into `rounded`.
struct RoundedSubstrate {
  double epsilon;
  WeightedGraph rounded;
  congest::Network network;

  RoundedSubstrate(const WeightedGraph& g, double eps)
      : epsilon(eps), rounded(round_weights_up(g, eps)), network(rounded) {}
  RoundedSubstrate(const RoundedSubstrate&) = delete;
  RoundedSubstrate& operator=(const RoundedSubstrate&) = delete;
};

struct ApproxSptResult {
  RootedTree tree;            // parent weights are *original* edge weights
  std::vector<Weight> dist;   // the (1+ε) labels (rounded-graph distances)
  congest::CostStats cost;
};

// `sched` pins the kernel scheduler mode (see congest/scheduler.h); trees,
// labels, and stats are identical in every mode.
ApproxSptResult build_approx_spt(const WeightedGraph& g, VertexId root,
                                 double epsilon,
                                 congest::SchedulerOptions sched = {});

// Multi-source variant (forest rooted at `sources`); used by the net
// algorithm to deactivate vertices near fresh net points (§6).
struct ApproxSptForestResult {
  std::vector<Weight> dist;
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<VertexId> owner;  // nearest source under the rounded metric
  congest::CostStats cost;
};

ApproxSptForestResult build_approx_spt_forest(
    const WeightedGraph& g, std::span<const VertexId> sources, double epsilon,
    congest::SchedulerOptions sched = {});

// Substrate-reusing variant: identical forest (no per-call rounding or
// Network construction). `distance_bound` prunes the exploration ball —
// distances ≤ the bound are exact, farther vertices stay at infinity;
// consumers that only test "dist ≤ r" pass r and skip the rest of the
// graph's flood.
ApproxSptForestResult build_approx_spt_forest(
    const RoundedSubstrate& substrate, std::span<const VertexId> sources,
    congest::SchedulerOptions sched = {},
    Weight distance_bound = kInfiniteDistance);

}  // namespace lightnet

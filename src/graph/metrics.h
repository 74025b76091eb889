// Quality metrics for spanners / SLTs / nets — the columns of Table 1.
//
// All metrics are computed with exact sequential shortest paths so that
// guarantee checks in tests and benches are trustworthy certificates, not
// approximations of approximations.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace lightnet {

// w(H) / w(MST(G)). The spanner is given as edge ids into g.
double lightness(const WeightedGraph& g, std::span<const EdgeId> spanner);

// max over edges {u,v} of G of d_H(u,v) / w(u,v).
// By the triangle inequality this upper-bounds the all-pairs stretch, and is
// the certificate the paper's stretch proofs establish (§5.1 "it suffices to
// show for every edge"). 0 for an edgeless G. Cost: one search in H from the
// lower endpoint of each G-edge missing from H, stopped once its last such
// neighbour settles; edges of H have ratio at most 1, so the result is
// max(1, largest ratio found). Throws std::logic_error if H cuts an edge's
// endpoints apart.
double max_edge_stretch(const WeightedGraph& g,
                        std::span<const EdgeId> spanner);

// Exact all-pairs stretch max over u<v of d_H(u,v)/d_G(u,v); O(n * Dijkstra)
// twice — verification scale only.
double max_pairwise_stretch(const WeightedGraph& g,
                            std::span<const EdgeId> spanner);

// max over v != rt of d_T(rt,v) / d_G(rt,v) for a tree given as edge ids.
double root_stretch(const WeightedGraph& g, std::span<const EdgeId> tree,
                    VertexId rt);

// Average (rather than max) root stretch; used in SLT tradeoff tables.
double average_root_stretch(const WeightedGraph& g,
                            std::span<const EdgeId> tree, VertexId rt);

// Checks a net: every vertex within `alpha` of some net point (covering) and
// all net points pairwise farther than `beta` (separation). Distances in G.
// Cost: one multi-source search for the covering, plus one search per net
// point that stops at the nearest other net point.
struct NetCheck {
  bool covering = false;
  bool separated = false;
  double worst_cover_distance = 0.0;  // max over v of d(v, N)
  double min_pair_distance = 0.0;     // min over net pairs
};
NetCheck check_net(const WeightedGraph& g, std::span<const VertexId> net,
                   double alpha, double beta);

// Doubling dimension estimate: log2 of the max, over sampled balls B(v, 2r),
// of the size of a minimal r-net of the ball (greedy). Used to sanity-check
// generator families, not in any algorithm.
double estimate_doubling_dimension(const WeightedGraph& g, int sample_count,
                                   std::uint64_t seed);

}  // namespace lightnet

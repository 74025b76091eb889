#include "core/baswana_sen.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "support/assert.h"
#include "support/rng.h"

namespace lightnet {

namespace {

// Lightest allowed edge from v into each distinct current cluster among its
// neighbors. Unclustered neighbors (center == kNoVertex) are skipped.
std::unordered_map<VertexId, EdgeId> lightest_edge_per_cluster(
    const WeightedGraph& g, std::span<const char> edge_allowed,
    const std::vector<VertexId>& center, VertexId v) {
  std::unordered_map<VertexId, EdgeId> best;
  for (const Incidence& inc : g.incident(v)) {
    if (!edge_allowed[static_cast<size_t>(inc.edge)]) continue;
    const VertexId c = center[static_cast<size_t>(inc.neighbor)];
    if (c == kNoVertex) continue;
    auto [it, inserted] = best.try_emplace(c, inc.edge);
    if (!inserted && g.edge(inc.edge).w < g.edge(it->second).w)
      it->second = inc.edge;
  }
  return best;
}

}  // namespace

BaswanaSenResult baswana_sen_spanner(const WeightedGraph& g,
                                     std::span<const char> edge_allowed,
                                     int k, std::uint64_t seed) {
  LN_REQUIRE(k >= 1, "k must be at least 1");
  LN_REQUIRE(edge_allowed.size() == static_cast<size_t>(g.num_edges()),
             "one flag per edge required");
  const int n = g.num_vertices();
  Rng rng(seed ^ 0x4253303753706eULL);
  const double sample_p = std::pow(static_cast<double>(std::max(n, 2)),
                                   -1.0 / static_cast<double>(k));

  std::vector<VertexId> center(static_cast<size_t>(n));
  for (VertexId v = 0; v < n; ++v) center[static_cast<size_t>(v)] = v;
  std::vector<EdgeId> spanner;

  for (int phase = 1; phase < k; ++phase) {
    // Sample current cluster centers.
    std::vector<char> sampled(static_cast<size_t>(n), 0);
    for (VertexId v = 0; v < n; ++v)
      if (center[static_cast<size_t>(v)] == v)
        sampled[static_cast<size_t>(v)] = rng.next_bernoulli(sample_p) ? 1 : 0;

    std::vector<VertexId> new_center(static_cast<size_t>(n), kNoVertex);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId c = center[static_cast<size_t>(v)];
      if (c == kNoVertex) continue;  // dropped out in an earlier phase
      if (sampled[static_cast<size_t>(c)]) {
        new_center[static_cast<size_t>(v)] = c;  // cluster survives
        continue;
      }
      const auto best = lightest_edge_per_cluster(g, edge_allowed, center, v);
      // Lightest edge into any *sampled* neighboring cluster.
      EdgeId join_edge = kNoEdge;
      VertexId join_cluster = kNoVertex;
      for (const auto& [cluster, edge] : best) {
        if (!sampled[static_cast<size_t>(cluster)]) continue;
        if (join_edge == kNoEdge || g.edge(edge).w < g.edge(join_edge).w ||
            (g.edge(edge).w == g.edge(join_edge).w && edge < join_edge)) {
          join_edge = edge;
          join_cluster = cluster;
        }
      }
      if (join_edge == kNoEdge) {
        // No sampled cluster adjacent: keep the lightest edge into every
        // neighboring cluster and leave the clustering.
        for (const auto& [cluster, edge] : best) spanner.push_back(edge);
        new_center[static_cast<size_t>(v)] = kNoVertex;
      } else {
        // Join the sampled cluster; also keep lighter edges into clusters
        // that beat the joining edge (the stretch argument needs them).
        spanner.push_back(join_edge);
        new_center[static_cast<size_t>(v)] = join_cluster;
        for (const auto& [cluster, edge] : best) {
          if (cluster == join_cluster) continue;
          if (g.edge(edge).w < g.edge(join_edge).w) spanner.push_back(edge);
        }
      }
    }
    center = std::move(new_center);
  }

  // Final phase: every clustered vertex connects to each adjacent cluster.
  for (VertexId v = 0; v < n; ++v) {
    if (center[static_cast<size_t>(v)] == kNoVertex) continue;
    for (const auto& [cluster, edge] :
         lightest_edge_per_cluster(g, edge_allowed, center, v)) {
      if (cluster == center[static_cast<size_t>(v)]) continue;
      spanner.push_back(edge);
    }
  }

  BaswanaSenResult result;
  result.spanner = dedupe_edge_ids(std::move(spanner));
  // Cost per the O(k)-round distributed implementation cited in §5.
  result.cost.rounds = static_cast<std::uint64_t>(3 * k + 2);
  result.cost.messages =
      static_cast<std::uint64_t>(g.num_edges()) * 2 *
      static_cast<std::uint64_t>(k);
  result.cost.words = result.cost.messages * 2;
  result.cost.max_edge_load = 1;
  return result;
}

BaswanaSenResult baswana_sen_spanner(const WeightedGraph& g,
                                     std::span<const char> edge_allowed,
                                     int k, const api::RunContext& ctx) {
  return baswana_sen_spanner(g, edge_allowed, k, ctx.seed);
}

}  // namespace lightnet

#include "graph/metrics.h"

#include <algorithm>
#include <cmath>

#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "support/assert.h"
#include "support/rng.h"

namespace lightnet {

double lightness(const WeightedGraph& g, std::span<const EdgeId> spanner) {
  Weight w = 0.0;
  for (EdgeId id : spanner) w += g.edge(id).w;
  const Weight base = mst_weight(g);
  LN_ASSERT(base > 0.0);
  return w / base;
}

double max_edge_stretch(const WeightedGraph& g,
                        std::span<const EdgeId> spanner) {
  const WeightedGraph h = g.edge_subgraph(spanner);
  if (g.num_edges() == 0) return 0.0;
  std::vector<char> in_h(static_cast<size_t>(g.num_edges()), 0);
  for (EdgeId id : spanner) in_h[static_cast<size_t>(id)] = 1;
  // Only edges missing from H need a search: one from the lower endpoint,
  // ending when its last missing neighbour settles.
  std::vector<char> target(static_cast<size_t>(g.num_vertices()), 0);
  std::vector<Incidence> missing;
  DijkstraWorkspace ws;
  double worst = 0.0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    missing.clear();
    for (const Incidence& inc : g.incident(u)) {
      if (inc.neighbor <= u || in_h[static_cast<size_t>(inc.edge)]) continue;
      missing.push_back(inc);
      target[static_cast<size_t>(inc.neighbor)] = 1;
    }
    if (missing.empty()) continue;
    const VertexId source[] = {u};
    ws.search(h, source, kInfiniteDistance, target, missing.size());
    for (const Incidence& inc : missing) {
      target[static_cast<size_t>(inc.neighbor)] = 0;
      const Weight dh = ws.result().dist[static_cast<size_t>(inc.neighbor)];
      LN_ASSERT_MSG(dh != kInfiniteDistance,
                    "spanner disconnects an edge's endpoints");
      worst = std::max(worst, dh / g.edge(inc.edge).w);
    }
  }
  // The skipped H-edges have ratio at most 1 (the edge itself is a path).
  // G's lightest edge has ratio exactly 1 if it is in H, and at least 1 if
  // not, since every path in H has an edge no lighter than it. So the
  // maximum over all of G's edges is max(1, worst), bit for bit.
  return std::max(1.0, worst);
}

double max_pairwise_stretch(const WeightedGraph& g,
                            std::span<const EdgeId> spanner) {
  const WeightedGraph h = g.edge_subgraph(spanner);
  double worst = 0.0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const ShortestPathTree tg = dijkstra(g, u);
    const ShortestPathTree th = dijkstra(h, u);
    for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
      const Weight dg = tg.dist[static_cast<size_t>(v)];
      const Weight dh = th.dist[static_cast<size_t>(v)];
      if (dg == kInfiniteDistance) continue;
      LN_ASSERT(dh != kInfiniteDistance);
      if (dg > 0.0) worst = std::max(worst, dh / dg);
    }
  }
  return worst;
}

double root_stretch(const WeightedGraph& g, std::span<const EdgeId> tree,
                    VertexId rt) {
  const WeightedGraph h = g.edge_subgraph(tree);
  const ShortestPathTree in_tree = dijkstra(h, rt);
  const ShortestPathTree in_g = dijkstra(g, rt);
  double worst = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == rt) continue;
    const Weight dg = in_g.dist[static_cast<size_t>(v)];
    const Weight dt = in_tree.dist[static_cast<size_t>(v)];
    LN_ASSERT(dg != kInfiniteDistance && dt != kInfiniteDistance);
    if (dg > 0.0) worst = std::max(worst, dt / dg);
  }
  return worst;
}

double average_root_stretch(const WeightedGraph& g,
                            std::span<const EdgeId> tree, VertexId rt) {
  const WeightedGraph h = g.edge_subgraph(tree);
  const ShortestPathTree in_tree = dijkstra(h, rt);
  const ShortestPathTree in_g = dijkstra(g, rt);
  double sum = 0.0;
  int count = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == rt) continue;
    const Weight dg = in_g.dist[static_cast<size_t>(v)];
    if (dg <= 0.0) continue;
    sum += in_tree.dist[static_cast<size_t>(v)] / dg;
    ++count;
  }
  return count > 0 ? sum / count : 1.0;
}

NetCheck check_net(const WeightedGraph& g, std::span<const VertexId> net,
                   double alpha, double beta) {
  NetCheck result;
  if (net.empty()) {
    result.covering = g.num_vertices() == 0;
    result.separated = true;
    return result;
  }
  const MultiSourceResult ms = multi_source_dijkstra(g, net);
  result.worst_cover_distance = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    result.worst_cover_distance =
        std::max(result.worst_cover_distance, ms.dist[static_cast<size_t>(v)]);
  result.covering = result.worst_cover_distance <= alpha + 1e-9;

  // Vertices settle in distance order, so the first other net point a
  // search from s settles is the one nearest to s.
  std::vector<char> in_net(static_cast<size_t>(g.num_vertices()), 0);
  for (VertexId s : net) in_net[static_cast<size_t>(s)] = 1;
  result.min_pair_distance = kInfiniteDistance;
  DijkstraWorkspace ws;
  for (VertexId s : net) {
    in_net[static_cast<size_t>(s)] = 0;
    const VertexId source[] = {s};
    const VertexId nearest = ws.search(g, source, kInfiniteDistance, in_net, 1);
    in_net[static_cast<size_t>(s)] = 1;
    if (nearest != kNoVertex)
      result.min_pair_distance =
          std::min(result.min_pair_distance,
                   ws.result().dist[static_cast<size_t>(nearest)]);
  }
  result.separated =
      net.size() <= 1 || result.min_pair_distance > beta - 1e-9;
  return result;
}

double estimate_doubling_dimension(const WeightedGraph& g, int sample_count,
                                   std::uint64_t seed) {
  Rng rng(seed);
  int worst = 1;
  DijkstraWorkspace ws;
  std::vector<int> covered(static_cast<size_t>(g.num_vertices()), 0);
  for (int s = 0; s < sample_count; ++s) {
    const int stamp = s + 1;
    const VertexId center = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    const ShortestPathTree t = dijkstra(g, center);
    Weight max_d = 0.0;
    for (Weight d : t.dist)
      if (d != kInfiniteDistance) max_d = std::max(max_d, d);
    if (max_d <= 0.0) continue;
    const double r = rng.next_uniform(max_d / 16.0, max_d / 2.0);
    // Greedy r-net of B(center, 2r), ball vertices in id order: a vertex
    // joins unless an earlier net point is within r of it. Each net point
    // runs one search bounded at r, which settles exactly the vertices
    // within r of it, and marks them covered.
    int net_size = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const size_t vi = static_cast<size_t>(v);
      if (!(t.dist[vi] <= 2.0 * r) || covered[vi] == stamp) continue;
      ++net_size;
      const VertexId source[] = {v};
      ws.search(g, source, r);
      for (VertexId u : ws.reached()) covered[static_cast<size_t>(u)] = stamp;
    }
    worst = std::max(worst, net_size);
  }
  return std::log2(static_cast<double>(worst));
}

}  // namespace lightnet

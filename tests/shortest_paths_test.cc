#include "graph/shortest_paths.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

WeightedGraph diamond() {
  // 0 -1- 1 -1- 3, and 0 -3- 2 -0.5- 3: shortest 0->3 is 2 via vertex 1.
  return WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 3, 1.0}, {0, 2, 3.0}, {2, 3, 0.5}});
}

TEST(Dijkstra, KnownDistances) {
  const ShortestPathTree t = dijkstra(diamond(), 0);
  EXPECT_DOUBLE_EQ(t.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(t.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(t.dist[3], 2.0);
  EXPECT_DOUBLE_EQ(t.dist[2], 2.5);  // via 3, not the direct 3.0 edge
}

TEST(Dijkstra, PathReconstruction) {
  const ShortestPathTree t = dijkstra(diamond(), 0);
  EXPECT_EQ(t.path_to(3), (std::vector<VertexId>{0, 1, 3}));
  const auto edges = t.path_edges_to(3);
  ASSERT_EQ(edges.size(), 2u);
  Weight total = 0.0;
  const WeightedGraph g = diamond();
  for (EdgeId e : edges) total += g.edge(e).w;
  EXPECT_DOUBLE_EQ(total, t.dist[3]);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const WeightedGraph g =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  const ShortestPathTree t = dijkstra(g, 0);
  EXPECT_EQ(t.dist[2], kInfiniteDistance);
  EXPECT_TRUE(t.path_to(2).empty());
}

TEST(DijkstraBounded, RespectsBound) {
  const WeightedGraph g = path_graph(10, WeightLaw::kUnit, 1.0, 1);
  const ShortestPathTree t = dijkstra_bounded(g, 0, 3.5);
  EXPECT_DOUBLE_EQ(t.dist[3], 3.0);
  EXPECT_EQ(t.dist[4], kInfiniteDistance);
}

TEST(MultiSourceDijkstra, OwnerIsNearestSource) {
  const WeightedGraph g = path_graph(9, WeightLaw::kUnit, 1.0, 1);
  const VertexId sources[] = {0, 8};
  const MultiSourceResult r = multi_source_dijkstra(g, sources);
  EXPECT_EQ(r.owner[1], 0);
  EXPECT_EQ(r.owner[7], 8);
  EXPECT_DOUBLE_EQ(r.dist[4], 4.0);
}

TEST(MultiSourceDijkstra, BoundedVariant) {
  const WeightedGraph g = path_graph(9, WeightLaw::kUnit, 1.0, 1);
  const VertexId sources[] = {4};
  const MultiSourceResult r = multi_source_dijkstra_bounded(g, sources, 2.0);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
  EXPECT_EQ(r.dist[1], kInfiniteDistance);
}

TEST(Dijkstra, AgreesWithAllPairsOnZoo) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const auto all = all_pairs_distances(g);
    // Symmetry and triangle inequality spot checks.
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(u)][static_cast<size_t>(u)],
                       0.0)
          << name;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_NEAR(all[static_cast<size_t>(u)][static_cast<size_t>(v)],
                    all[static_cast<size_t>(v)][static_cast<size_t>(u)],
                    1e-9)
            << name;
      }
    }
    // Every edge is an upper bound on the distance of its endpoints.
    for (const Edge& e : g.edges()) {
      EXPECT_LE(all[static_cast<size_t>(e.u)][static_cast<size_t>(e.v)],
                e.w + 1e-9)
          << name;
    }
  }
}

TEST(DijkstraWorkspace, ReusedWorkspaceMatchesFreshSearches) {
  // One workspace across every source of every zoo graph (so it also
  // resizes between graphs), with a bounded search in between to leave
  // tentative entries behind.
  DijkstraWorkspace ws;
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      const VertexId source[] = {s};
      ws.search(g, source);
      const ShortestPathTree fresh = dijkstra(g, s);
      EXPECT_EQ(ws.result().dist, fresh.dist) << name << " from " << s;
      EXPECT_EQ(ws.result().parent, fresh.parent) << name << " from " << s;
      EXPECT_EQ(ws.result().parent_edge, fresh.parent_edge)
          << name << " from " << s;

      const Weight bound = fresh.dist[static_cast<size_t>(
          (s + 1) % g.num_vertices())];
      ws.search(g, source, bound);
      const ShortestPathTree bounded = dijkstra_bounded(g, s, bound);
      EXPECT_EQ(ws.result().dist, bounded.dist) << name << " from " << s;
      EXPECT_EQ(ws.result().parent, bounded.parent) << name << " from " << s;
    }
    const VertexId sources[] = {0, static_cast<VertexId>(g.num_vertices() - 1)};
    ws.search(g, sources);
    const MultiSourceResult fresh = multi_source_dijkstra(g, sources);
    EXPECT_EQ(ws.result().dist, fresh.dist) << name;
    EXPECT_EQ(ws.result().owner, fresh.owner) << name;
    EXPECT_EQ(ws.result().stale_entries, fresh.stale_entries) << name;
  }
}

TEST(DijkstraWorkspace, EarlyStopAgreesOnEverySettledTarget) {
  DijkstraWorkspace ws;
  std::uint64_t seed = 1;
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const size_t n = static_cast<size_t>(g.num_vertices());
    Rng rng(seed++);
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      std::vector<char> target(n, 0);
      std::vector<VertexId> targets;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (v == s || !rng.next_bernoulli(0.15)) continue;
        target[static_cast<size_t>(v)] = 1;
        targets.push_back(v);
      }
      if (targets.empty()) continue;
      const ShortestPathTree full = dijkstra(g, s);
      const VertexId source[] = {s};

      // Stop at the last target: every target has settled.
      const VertexId last = ws.search(g, source, kInfiniteDistance, target,
                                      targets.size());
      ASSERT_NE(last, kNoVertex) << name;
      EXPECT_TRUE(target[static_cast<size_t>(last)]) << name;
      for (VertexId t : targets) {
        const size_t i = static_cast<size_t>(t);
        EXPECT_EQ(ws.result().dist[i], full.dist[i]) << name << " " << t;
        EXPECT_EQ(ws.result().parent[i], full.parent[i]) << name << " " << t;
        EXPECT_EQ(ws.result().parent_edge[i], full.parent_edge[i])
            << name << " " << t;
      }

      // Stop at the first target: the nearest one.
      const VertexId nearest =
          ws.search(g, source, kInfiniteDistance, target, 1);
      ASSERT_NE(nearest, kNoVertex) << name;
      const size_t i = static_cast<size_t>(nearest);
      Weight closest = kInfiniteDistance;
      for (VertexId t : targets)
        closest = std::min(closest, full.dist[static_cast<size_t>(t)]);
      EXPECT_EQ(ws.result().dist[i], closest) << name;
      EXPECT_EQ(ws.result().parent[i], full.parent[i]) << name;
      EXPECT_EQ(ws.result().parent_edge[i], full.parent_edge[i]) << name;
    }
  }
}

TEST(DijkstraWorkspace, UnreachableTargetsRunTheSearchOut) {
  const WeightedGraph g =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  std::vector<char> target(4, 0);
  target[1] = 1;
  target[3] = 1;
  DijkstraWorkspace ws;
  const VertexId source[] = {0};
  EXPECT_EQ(ws.search(g, source, kInfiniteDistance, target, 2), kNoVertex);
  EXPECT_EQ(ws.result().dist[1], 1.0);
  EXPECT_EQ(ws.result().dist[3], kInfiniteDistance);
}

TEST(BfsHops, MatchesUnweightedDistances) {
  const WeightedGraph g = grid(4, 4, /*perturb=*/true, 1);
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[0], 0);
  EXPECT_EQ(hops[15], 6);  // corner to corner of a 4x4 grid
}

TEST(ShortestPathTreeFn, BuildsValidRootedTree) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const RootedTree t = shortest_path_tree(g, 0);
    const auto tree_dist = t.distances_from_root();
    const ShortestPathTree ref = dijkstra(g, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_NEAR(tree_dist[static_cast<size_t>(v)],
                  ref.dist[static_cast<size_t>(v)], 1e-9)
          << name;
    }
  }
}

}  // namespace
}  // namespace lightnet

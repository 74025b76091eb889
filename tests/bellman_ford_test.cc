#include "congest/bellman_ford.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "tests/test_util.h"

namespace lightnet::congest {
namespace {

TEST(BellmanFord, MatchesDijkstraOnZoo) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const VertexId sources[] = {0};
    const BellmanFordResult bf = distributed_bellman_ford(g, sources);
    const ShortestPathTree ref = dijkstra(g, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_NEAR(bf.dist[static_cast<size_t>(v)],
                  ref.dist[static_cast<size_t>(v)], 1e-9)
          << name << " vertex " << v;
    EXPECT_EQ(bf.cost.max_edge_load, 1u) << name;
  }
}

TEST(BellmanFord, MultiSourceMatchesDijkstra) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const std::vector<VertexId> sources{0, g.num_vertices() / 2,
                                        g.num_vertices() - 1};
    const BellmanFordResult bf = distributed_bellman_ford(g, sources);
    const MultiSourceResult ref = multi_source_dijkstra(g, sources);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_NEAR(bf.dist[static_cast<size_t>(v)],
                  ref.dist[static_cast<size_t>(v)], 1e-9)
          << name;
  }
}

TEST(BellmanFord, ParentPointersFormShortestPaths) {
  const WeightedGraph g = erdos_renyi(32, 0.2, WeightLaw::kUniform, 9.0, 3);
  const VertexId sources[] = {0};
  const BellmanFordResult bf = distributed_bellman_ford(g, sources);
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    // Walk parents back to the source summing weights.
    Weight sum = 0.0;
    VertexId cur = v;
    int guard = 0;
    while (cur != 0) {
      ASSERT_NE(bf.parent_edge[static_cast<size_t>(cur)], kNoEdge);
      sum += g.edge(bf.parent_edge[static_cast<size_t>(cur)]).w;
      cur = bf.parent[static_cast<size_t>(cur)];
      ASSERT_LT(++guard, g.num_vertices());
    }
    EXPECT_NEAR(sum, bf.dist[static_cast<size_t>(v)], 1e-9);
  }
}

TEST(BellmanFord, DistanceBoundPrunes) {
  const WeightedGraph g = path_graph(12, WeightLaw::kUnit, 1.0, 1);
  const VertexId sources[] = {0};
  BellmanFordOptions options;
  options.distance_bound = 4.5;
  const BellmanFordResult bf = distributed_bellman_ford(g, sources, options);
  EXPECT_DOUBLE_EQ(bf.dist[4], 4.0);
  EXPECT_EQ(bf.dist[5], kInfiniteDistance);
}

TEST(BellmanFord, OwnerIdentifiesNearestSource) {
  const WeightedGraph g = path_graph(9, WeightLaw::kUnit, 1.0, 1);
  const std::vector<VertexId> sources{0, 8};
  const BellmanFordResult bf = distributed_bellman_ford(g, sources);
  EXPECT_EQ(bf.owner[2], 0);
  EXPECT_EQ(bf.owner[6], 8);
}

TEST(BellmanFord, RoundsTrackWeightedHopDepth) {
  // A path's BF takes ~n rounds; a star takes O(1).
  const WeightedGraph path = path_graph(30, WeightLaw::kUnit, 1.0, 1);
  const WeightedGraph star = star_graph(30, WeightLaw::kUnit, 1.0, 1);
  const VertexId sources[] = {0};
  const BellmanFordResult bf_path = distributed_bellman_ford(path, sources);
  const BellmanFordResult bf_star = distributed_bellman_ford(star, sources);
  EXPECT_GE(bf_path.cost.rounds, 29u);
  EXPECT_LE(bf_star.cost.rounds, 4u);
}

TEST(BellmanFord, NoSourcesMeansNoWork) {
  const WeightedGraph g = path_graph(5, WeightLaw::kUnit, 1.0, 1);
  const BellmanFordResult bf =
      distributed_bellman_ford(g, std::vector<VertexId>{});
  for (Weight d : bf.dist) EXPECT_EQ(d, kInfiniteDistance);
  EXPECT_EQ(bf.cost.messages, 0u);
}

}  // namespace
}  // namespace lightnet::congest

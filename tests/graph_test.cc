#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

WeightedGraph triangle() {
  return WeightedGraph::from_edges(3, {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 4.0}});
}

TEST(WeightedGraph, BasicCounts) {
  const WeightedGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.total_weight(), 7.0);
  EXPECT_DOUBLE_EQ(g.min_edge_weight(), 1.0);
  EXPECT_DOUBLE_EQ(g.max_edge_weight(), 4.0);
}

TEST(WeightedGraph, AdjacencyIsComplete) {
  const WeightedGraph g = triangle();
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(2), 2);
  bool saw1 = false, saw2 = false;
  for (const Incidence& inc : g.incident(0)) {
    if (inc.neighbor == 1) saw1 = true;
    if (inc.neighbor == 2) saw2 = true;
  }
  EXPECT_TRUE(saw1 && saw2);
}

TEST(WeightedGraph, FindEdge) {
  const WeightedGraph g = triangle();
  EXPECT_NE(g.find_edge(0, 2), kNoEdge);
  EXPECT_EQ(g.edge(g.find_edge(0, 2)).w, 4.0);
  const WeightedGraph g2 =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_EQ(g2.find_edge(0, 3), kNoEdge);
}

TEST(WeightedGraph, OtherEndpoint) {
  const WeightedGraph g = triangle();
  const EdgeId e = g.find_edge(1, 2);
  EXPECT_EQ(g.other_endpoint(e, 1), 2);
  EXPECT_EQ(g.other_endpoint(e, 2), 1);
}

TEST(WeightedGraph, RejectsSelfLoops) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 0, 1.0}}),
               std::invalid_argument);
}

TEST(WeightedGraph, RejectsParallelEdges) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, 1.0}, {1, 0, 2.0}}),
               std::invalid_argument);
  // The same orientation twice.
  EXPECT_THROW(WeightedGraph::from_edges(3, {{2, 0, 1.0}, {2, 0, 3.0}}),
               std::invalid_argument);
  // A duplicate pair far apart in the edge list, the rest a simple path.
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 100; ++v) edges.push_back({v, v + 1, 1.0});
  edges.push_back({43, 42, 5.0});
  EXPECT_NO_THROW(WeightedGraph::from_edges(100, {edges.begin(),
                                                  edges.end() - 1}));
  EXPECT_THROW(WeightedGraph::from_edges(100, edges), std::invalid_argument);
}

TEST(WeightedGraph, RejectsBadWeights) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, -1.0}}),
               std::invalid_argument);
}

TEST(WeightedGraph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 2, 1.0}}),
               std::invalid_argument);
}

TEST(WeightedGraph, Connectivity) {
  EXPECT_TRUE(triangle().is_connected());
  const WeightedGraph g =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_FALSE(g.is_connected());
}

TEST(WeightedGraph, HopDiameterIgnoresWeights) {
  const WeightedGraph path =
      WeightedGraph::from_edges(4, {{0, 1, 9.0}, {1, 2, 9.0}, {2, 3, 9.0}});
  EXPECT_EQ(path.hop_diameter(), 3);
  EXPECT_EQ(triangle().hop_diameter(), 1);
}

// The oracle: one BFS from every vertex, the largest distance any of them
// reaches. O(n * m).
int all_pairs_hop_diameter(const WeightedGraph& g) {
  int diameter = 0;
  std::vector<int> dist(static_cast<size_t>(g.num_vertices()));
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::deque<VertexId> queue{s};
    dist[static_cast<size_t>(s)] = 0;
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      diameter = std::max(diameter, dist[static_cast<size_t>(v)]);
      for (const Incidence& inc : g.incident(v)) {
        if (dist[static_cast<size_t>(inc.neighbor)] < 0) {
          dist[static_cast<size_t>(inc.neighbor)] =
              dist[static_cast<size_t>(v)] + 1;
          queue.push_back(inc.neighbor);
        }
      }
    }
  }
  return diameter;
}

TEST(WeightedGraph, HopDiameterMatchesAllPairsOnZoos) {
  for (const auto& zoo : {testing::small_graph_zoo(),
                          testing::medium_graph_zoo()}) {
    for (const testing::NamedGraph& ng : zoo)
      EXPECT_EQ(ng.graph.hop_diameter(), all_pairs_hop_diameter(ng.graph))
          << ng.name;
  }
}

TEST(WeightedGraph, HopDiameterMatchesAllPairsOnScenarioFamilies) {
  for (const std::string& family : api::scenario_families()) {
    for (int n : {64, 256, 1024}) {
      // The oracle costs n^3 on a clique: about a second per clique at
      // n=1024, for a diameter of 1 that HopDiameterCornerShapes checks.
      if (family == "clique" && n > 256) continue;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        api::ScenarioSpec spec;
        spec.family = family;
        spec.n = n;
        spec.seed = seed;
        const WeightedGraph g = api::materialize(spec);
        EXPECT_EQ(g.hop_diameter(), all_pairs_hop_diameter(g))
            << family << " n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(WeightedGraph, HopDiameterCornerShapes) {
  EXPECT_EQ(WeightedGraph::from_edges(0, {}).hop_diameter(), 0);
  EXPECT_EQ(WeightedGraph::from_edges(1, {}).hop_diameter(), 0);
  EXPECT_EQ(WeightedGraph::from_edges(2, {{0, 1, 3.0}}).hop_diameter(), 1);
  for (int n : {3, 17, 100}) {
    EXPECT_EQ(path_graph(n, WeightLaw::kUniform, 9.0, 1).hop_diameter(),
              n - 1);
    EXPECT_EQ(star_graph(n, WeightLaw::kUniform, 9.0, 1).hop_diameter(), 2);
    EXPECT_EQ(complete_euclidean(n, 1).graph.hop_diameter(), 1);
  }
  // A path relabelled out of order: the diameter does not follow the ids.
  std::vector<Edge> shuffled;
  const VertexId order[] = {4, 0, 6, 2, 5, 1, 3};
  for (size_t i = 0; i + 1 < std::size(order); ++i)
    shuffled.push_back({order[i], order[i + 1], 1.0});
  EXPECT_EQ(WeightedGraph::from_edges(7, shuffled).hop_diameter(), 6);
}

TEST(WeightedGraph, HopDiameterRejectsDisconnected) {
  const WeightedGraph g =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_THROW(g.hop_diameter(), std::invalid_argument);
  EXPECT_THROW(WeightedGraph::from_edges(2, {}).hop_diameter(),
               std::invalid_argument);
}

TEST(WeightedGraph, EdgeSubgraph) {
  const WeightedGraph g = triangle();
  const EdgeId keep[] = {0, 1};
  const WeightedGraph sub = g.edge_subgraph(keep);
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_DOUBLE_EQ(sub.total_weight(), 3.0);
}

TEST(RootedTree, FromEdgeSetBuildsParents) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}, {0, 2, 9.0}});
  const std::vector<EdgeId> tree_edges{0, 1, 2};
  const RootedTree t = RootedTree::from_edge_set(g, 0, tree_edges);
  EXPECT_EQ(t.root, 0);
  EXPECT_EQ(t.parent[1], 0);
  EXPECT_EQ(t.parent[2], 1);
  EXPECT_EQ(t.parent[3], 1);
  EXPECT_DOUBLE_EQ(t.total_weight(), 6.0);
}

TEST(RootedTree, FromEdgeSetRejectsNonSpanning) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}});
  EXPECT_THROW(RootedTree::from_edge_set(g, 0, std::vector<EdgeId>{0, 1}),
               std::invalid_argument);
}

TEST(RootedTree, DistancesFromRoot) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}});
  const RootedTree t =
      RootedTree::from_edge_set(g, 0, std::vector<EdgeId>{0, 1, 2});
  const auto dist = t.distances_from_root();
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 3.0);
  EXPECT_DOUBLE_EQ(dist[3], 4.0);
}

TEST(RootedTree, PreorderVisitsChildrenInIdOrder) {
  const WeightedGraph g = WeightedGraph::from_edges(
      5, {{0, 3, 1.0}, {0, 1, 1.0}, {1, 2, 1.0}, {1, 4, 1.0}});
  const RootedTree t =
      RootedTree::from_edge_set(g, 0, std::vector<EdgeId>{0, 1, 2, 3});
  const auto order = t.preorder();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // child 1 before child 3
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 4);
  EXPECT_EQ(order[4], 3);
}

TEST(RootedTree, FromParentsRejectsCycles) {
  // 1 <-> 2 cycle detached from root 0.
  EXPECT_THROW(
      RootedTree::from_parents(0, {kNoVertex, 2, 1}, {kNoEdge, 0, 1},
                               {0.0, 1.0, 1.0}),
      std::invalid_argument);
}

TEST(RootedTree, EdgeIdsRoundTrip) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}});
  const RootedTree t =
      RootedTree::from_edge_set(g, 2, std::vector<EdgeId>{0, 1, 2});
  auto ids = t.edge_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<EdgeId>{0, 1, 2}));
}

TEST(DedupeEdgeIds, RemovesDuplicatesAndSorts) {
  EXPECT_EQ(dedupe_edge_ids({3, 1, 3, 2, 1}), (std::vector<EdgeId>{1, 2, 3}));
  EXPECT_TRUE(dedupe_edge_ids({}).empty());
}

TEST(WeightedGraph, ZooGraphsAreConnected) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    EXPECT_TRUE(g.is_connected()) << name;
    EXPECT_GE(g.num_edges(), g.num_vertices() - 1) << name;
  }
}

}  // namespace
}  // namespace lightnet

// Edge cases for the CONGEST kernel and its primitives: tiny topologies,
// boundary parameters, and cost-model sanity that the main suites don't
// reach.
#include <gtest/gtest.h>

#include <limits>

#include "congest/bellman_ford.h"
#include "congest/bfs.h"
#include "congest/message.h"
#include "congest/tree_ops.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet::congest {
namespace {

TEST(KernelEdgeCases, TwoVertexGraphAllPrimitives) {
  const WeightedGraph g = path_graph(2, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  EXPECT_EQ(bfs.height, 1);

  std::vector<std::vector<TreeItem>> items(2);
  items[1].push_back({7, 8, 9});
  const GatherResult gathered = gather_to_root(g, bfs, items, false);
  ASSERT_EQ(gathered.items.size(), 1u);
  EXPECT_EQ(gathered.items[0].key, 7u);
  EXPECT_EQ(gathered.items[0].b, 9u);

  const BroadcastResult bc = broadcast_from_root(g, bfs, gathered.items);
  EXPECT_GE(bc.cost.messages, 1u);

  const VertexId sources[] = {1};
  const BellmanFordResult bf = distributed_bellman_ford(g, sources);
  EXPECT_DOUBLE_EQ(bf.dist[0], 1.0);
  EXPECT_EQ(bf.owner[0], 1);
}

TEST(KernelEdgeCases, CompleteGraphBfsIsOneRoundDeep) {
  const WeightedGraph g = complete_euclidean(10, 3).graph;
  const BfsTreeResult bfs = build_bfs_tree(g, 4);
  EXPECT_EQ(bfs.height, 1);
  for (VertexId v = 0; v < 10; ++v)
    if (v != 4) EXPECT_EQ(bfs.parent[static_cast<size_t>(v)], 4);
}

TEST(KernelEdgeCases, GatherFromRootOnlyIsLocal) {
  const WeightedGraph g = grid(3, 3, /*perturb=*/false, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  std::vector<std::vector<TreeItem>> items(9);
  items[0].push_back({1, 2, 3});  // root's own item needs no messages
  const GatherResult r = gather_to_root(g, bfs, items, false);
  EXPECT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.cost.messages, 0u);
}

TEST(KernelEdgeCases, AggregateWithEqualValuesIsDeterministic) {
  const WeightedGraph g = path_graph(6, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  std::vector<std::vector<TreeItem>> contributions(6);
  // Every vertex contributes the same value with its id as aux: the max is
  // tied; two identical runs must pick the same winner.
  for (VertexId v = 0; v < 6; ++v)
    contributions[static_cast<size_t>(v)].push_back(
        {0, Message::encode_weight(1.5), static_cast<std::uint64_t>(v)});
  const KeyedAggregateResult a =
      keyed_max_aggregate(g, bfs, 1, contributions);
  const KeyedAggregateResult b =
      keyed_max_aggregate(g, bfs, 1, contributions);
  EXPECT_EQ(a.best[0].b, b.best[0].b);
  EXPECT_DOUBLE_EQ(Message::decode_weight(a.best[0].a), 1.5);
}

TEST(KernelEdgeCases, BellmanFordTightDistanceBoundKeepsBoundary) {
  const WeightedGraph g = path_graph(5, WeightLaw::kUnit, 1.0, 1);
  const VertexId sources[] = {0};
  BellmanFordOptions options;
  options.distance_bound = 2.0;  // exactly reaches vertex 2
  const BellmanFordResult bf = distributed_bellman_ford(g, sources, options);
  EXPECT_DOUBLE_EQ(bf.dist[2], 2.0);
  EXPECT_EQ(bf.dist[3], kInfiniteDistance);
}

TEST(KernelEdgeCases, BroadcastOnStarCostsItemsPlusConstant) {
  const WeightedGraph g = star_graph(20, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  std::vector<TreeItem> items;
  for (std::uint64_t j = 0; j < 15; ++j) items.push_back({j, 0, 0});
  const BroadcastResult r = broadcast_from_root(g, bfs, items);
  EXPECT_LE(r.cost.rounds, 15u + 3u);
  EXPECT_EQ(r.cost.messages, 15u * 19u);  // one per item per leaf
}

TEST(KernelEdgeCases, AggregateManyKeysFewContributors) {
  const WeightedGraph g = path_graph(4, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  const int num_keys = 25;
  std::vector<std::vector<TreeItem>> contributions(4);
  contributions[3].push_back({24, Message::encode_weight(1.0), 42});
  const KeyedAggregateResult r =
      keyed_max_aggregate(g, bfs, num_keys, contributions);
  EXPECT_DOUBLE_EQ(Message::decode_weight(r.best[24].a), 1.0);
  EXPECT_EQ(r.best[24].b, 42u);
  for (int key = 0; key < 24; ++key)
    EXPECT_EQ(Message::decode_weight(r.best[static_cast<size_t>(key)].a),
              -std::numeric_limits<Weight>::infinity());
}

}  // namespace
}  // namespace lightnet::congest

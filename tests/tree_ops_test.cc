#include "congest/tree_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "congest/message.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lightnet::congest {
namespace {

TEST(GatherToRoot, CollectsEveryItem) {
  const WeightedGraph g = grid(4, 4, /*perturb=*/false, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  std::vector<std::vector<TreeItem>> items(16);
  size_t total = 0;
  for (VertexId v = 0; v < 16; ++v) {
    for (int j = 0; j <= v % 3; ++j) {
      items[static_cast<size_t>(v)].push_back(
          {static_cast<std::uint64_t>(v) * 10 + static_cast<std::uint64_t>(j),
           static_cast<std::uint64_t>(v), static_cast<std::uint64_t>(j)});
      ++total;
    }
  }
  const GatherResult r = gather_to_root(g, bfs, items, false);
  EXPECT_EQ(r.items.size(), total);
  std::vector<std::uint64_t> keys;
  for (const TreeItem& item : r.items) keys.push_back(item.key);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(r.cost.max_edge_load, 1u);
}

TEST(GatherToRoot, PipeliningBound) {
  // M items over a path of depth d must take ~M + d rounds, not M*d.
  const WeightedGraph g = path_graph(20, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  std::vector<std::vector<TreeItem>> items(20);
  for (VertexId v = 15; v < 20; ++v)
    for (int j = 0; j < 6; ++j)
      items[static_cast<size_t>(v)].push_back(
          {static_cast<std::uint64_t>(v * 100 + j), 0, 0});
  const GatherResult r = gather_to_root(g, bfs, items, false);
  EXPECT_EQ(r.items.size(), 30u);
  EXPECT_LE(r.cost.rounds, 30u + 19u + 3u);
}

TEST(GatherToRoot, DedupeKeepsOnePerKey) {
  const WeightedGraph g = star_graph(8, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  std::vector<std::vector<TreeItem>> items(8);
  for (VertexId v = 1; v < 8; ++v)
    items[static_cast<size_t>(v)].push_back(
        {42, static_cast<std::uint64_t>(v), 0});
  const GatherResult r = gather_to_root(g, bfs, items, true);
  EXPECT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0].key, 42u);
}

TEST(BroadcastFromRoot, ReachesEveryVertex) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const BfsTreeResult bfs = build_bfs_tree(g, 0);
    std::vector<TreeItem> items;
    for (int j = 0; j < 13; ++j)
      items.push_back({static_cast<std::uint64_t>(j), 0, 0});
    // broadcast_from_root asserts full delivery internally.
    const BroadcastResult r = broadcast_from_root(g, bfs, items);
    EXPECT_GE(r.cost.rounds, 13u) << name;
    EXPECT_LE(r.cost.rounds,
              13u + 2 * static_cast<std::uint64_t>(bfs.height) + 3u)
        << name;
    EXPECT_EQ(r.cost.max_edge_load, 1u) << name;
  }
}

TEST(BroadcastFromRoot, EmptyBroadcastIsFree) {
  const WeightedGraph g = path_graph(5, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  const BroadcastResult r = broadcast_from_root(g, bfs, {});
  EXPECT_EQ(r.cost.messages, 0u);
}

TEST(KeyedMaxAggregate, MatchesSequentialMax) {
  Rng rng(77);
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const BfsTreeResult bfs = build_bfs_tree(g, 0);
    const int num_keys = 6;
    std::vector<std::vector<TreeItem>> contributions(
        static_cast<size_t>(g.num_vertices()));
    std::map<int, std::pair<double, std::uint64_t>> expected;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (int j = 0; j < 2; ++j) {
        const int key = static_cast<int>(rng.next_below(num_keys));
        const double value = rng.next_uniform(-5.0, 5.0);
        const std::uint64_t aux = rng.next_below(1000);
        contributions[static_cast<size_t>(v)].push_back(
            {static_cast<std::uint64_t>(key), Message::encode_weight(value),
             aux});
        auto it = expected.find(key);
        if (it == expected.end() || value > it->second.first)
          expected[key] = {value, aux};
      }
    }
    const KeyedAggregateResult r =
        keyed_max_aggregate(g, bfs, num_keys, contributions);
    ASSERT_EQ(r.best.size(), static_cast<size_t>(num_keys)) << name;
    for (int key = 0; key < num_keys; ++key) {
      const double got = Message::decode_weight(
          r.best[static_cast<size_t>(key)].a);
      auto it = expected.find(key);
      if (it == expected.end()) {
        EXPECT_EQ(got, -std::numeric_limits<Weight>::infinity()) << name;
      } else {
        EXPECT_DOUBLE_EQ(got, it->second.first) << name << " key " << key;
        EXPECT_EQ(r.best[static_cast<size_t>(key)].b, it->second.second)
            << name << " key " << key;
      }
    }
    EXPECT_EQ(r.cost.max_edge_load, 1u) << name;
  }
}

TEST(KeyedMaxAggregate, PipelinesAcrossKeys) {
  const WeightedGraph g = path_graph(16, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  const int num_keys = 40;
  std::vector<std::vector<TreeItem>> contributions(16);
  for (VertexId v = 0; v < 16; ++v)
    for (int key = 0; key < num_keys; ++key)
      contributions[static_cast<size_t>(v)].push_back(
          {static_cast<std::uint64_t>(key),
           Message::encode_weight(static_cast<double>(v)), 0});
  const KeyedAggregateResult r =
      keyed_max_aggregate(g, bfs, num_keys, contributions);
  // Keys pipeline: ~num_keys + depth rounds.
  EXPECT_LE(r.cost.rounds, static_cast<std::uint64_t>(num_keys) + 15u + 3u);
  for (int key = 0; key < num_keys; ++key)
    EXPECT_DOUBLE_EQ(Message::decode_weight(
                         r.best[static_cast<size_t>(key)].a),
                     15.0);
}

// Zoo graphs plus three spanning several frontier words and shards.
std::vector<testing::NamedGraph> sweep_graphs() {
  auto graphs = testing::small_graph_zoo();
  graphs.push_back({"grid16x16", grid(16, 16, /*perturb=*/true, 31)});
  graphs.push_back(
      {"er300", erdos_renyi(300, 0.03, WeightLaw::kUniform, 10.0, 32)});
  graphs.push_back({"geo256", random_geometric(256, 0.12, 33).graph});
  return graphs;
}

bool same_items(const std::vector<TreeItem>& a,
                const std::vector<TreeItem>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TreeItem& x, const TreeItem& y) {
                      return x.key == y.key && x.a == y.a && x.b == y.b;
                    });
}

// One program object serves every lane: at threads 2, 4 and 8 the three
// primitives return what threads=1 returns, in the same order, at the same
// model cost.
TEST(TreeOps, ThreadCountsMatchSerial) {
  for (const auto& [name, g] : sweep_graphs()) {
    const BfsTreeResult bfs = build_bfs_tree(g, 0);
    const int n = g.num_vertices();
    Rng rng(static_cast<std::uint64_t>(n));
    const int num_keys = 9;
    std::vector<std::vector<TreeItem>> items(static_cast<size_t>(n));
    std::vector<std::vector<TreeItem>> contributions(static_cast<size_t>(n));
    for (VertexId v = 0; v < n; ++v) {
      for (int j = 0; j < 1 + v % 3; ++j)
        items[static_cast<size_t>(v)].push_back(
            {rng.next_below(2 * static_cast<std::uint64_t>(n)),
             static_cast<std::uint64_t>(v), static_cast<std::uint64_t>(j)});
      contributions[static_cast<size_t>(v)].push_back(
          {rng.next_below(num_keys),
           Message::encode_weight(rng.next_uniform(-5.0, 5.0)),
           static_cast<std::uint64_t>(v)});
    }
    std::vector<TreeItem> broadcast;
    for (int j = 0; j < 7; ++j)
      broadcast.push_back({static_cast<std::uint64_t>(j), 1, 2});

    SchedulerOptions serial;
    const GatherResult gather = gather_to_root(g, bfs, items, false, serial);
    const GatherResult dedupe = gather_to_root(g, bfs, items, true, serial);
    const BroadcastResult bcast =
        broadcast_from_root(g, bfs, broadcast, serial);
    const KeyedAggregateResult agg =
        keyed_max_aggregate(g, bfs, num_keys, contributions, serial);
    for (int threads : {2, 4, 8}) {
      SchedulerOptions options;
      options.threads = threads;
      const std::string where = name + " threads=" + std::to_string(threads);
      const GatherResult par_gather =
          gather_to_root(g, bfs, items, false, options);
      EXPECT_TRUE(same_items(par_gather.items, gather.items)) << where;
      testing::expect_same_model_cost(gather.cost, par_gather.cost,
                                      where + " gather");
      const GatherResult par_dedupe =
          gather_to_root(g, bfs, items, true, options);
      EXPECT_TRUE(same_items(par_dedupe.items, dedupe.items)) << where;
      testing::expect_same_model_cost(dedupe.cost, par_dedupe.cost,
                                      where + " dedupe");
      testing::expect_same_model_cost(
          bcast.cost, broadcast_from_root(g, bfs, broadcast, options).cost,
          where + " broadcast");
      const KeyedAggregateResult par_agg =
          keyed_max_aggregate(g, bfs, num_keys, contributions, options);
      EXPECT_TRUE(same_items(par_agg.best, agg.best)) << where;
      testing::expect_same_model_cost(agg.cost, par_agg.cost,
                                      where + " aggregate");
    }
  }
}

TEST(KeyedMaxAggregate, ZeroKeysIsTrivial) {
  const WeightedGraph g = path_graph(4, WeightLaw::kUnit, 1.0, 1);
  const BfsTreeResult bfs = build_bfs_tree(g, 0);
  std::vector<std::vector<TreeItem>> contributions(4);
  const KeyedAggregateResult r =
      keyed_max_aggregate(g, bfs, 0, contributions);
  EXPECT_TRUE(r.best.empty());
}

}  // namespace
}  // namespace lightnet::congest

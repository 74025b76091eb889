#include "routines/le_lists.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "graph/generators.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

std::vector<std::uint64_t> random_ranks(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> rank(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v)
    rank[static_cast<size_t>(v)] =
        (rng.next() << 20) | static_cast<std::uint64_t>(v);
  return rank;
}

std::vector<VertexId> all_vertices(int n) {
  std::vector<VertexId> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

void expect_lists_equal(const LeListsResult& got, const LeListsResult& want,
                        const std::string& context) {
  ASSERT_EQ(got.lists.size(), want.lists.size()) << context;
  for (size_t v = 0; v < got.lists.size(); ++v) {
    ASSERT_EQ(got.lists[v].size(), want.lists[v].size())
        << context << " vertex " << v;
    for (size_t j = 0; j < got.lists[v].size(); ++j) {
      EXPECT_EQ(got.lists[v][j].source, want.lists[v][j].source)
          << context << " vertex " << v << " entry " << j;
      EXPECT_NEAR(got.lists[v][j].dist, want.lists[v][j].dist, 1e-9)
          << context << " vertex " << v << " entry " << j;
    }
  }
}

class LeListsSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeListsSeedTest, DistributedMatchesReferenceOnZoo) {
  const std::uint64_t seed = GetParam();
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const auto rank = random_ranks(g.num_vertices(), seed);
    const auto active = all_vertices(g.num_vertices());
    const LeListsResult distributed =
        compute_le_lists(g, active, rank, 0.0);
    const LeListsResult reference =
        reference_le_lists(g, active, rank, 0.0);
    expect_lists_equal(distributed, reference, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeListsSeedTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(LeLists, SubsetActiveSet) {
  const WeightedGraph g = grid(5, 5, /*perturb=*/true, 3);
  const auto rank = random_ranks(25, 9);
  const std::vector<VertexId> active{0, 6, 12, 18, 24};
  const LeListsResult distributed = compute_le_lists(g, active, rank, 0.0);
  const LeListsResult reference = reference_le_lists(g, active, rank, 0.0);
  expect_lists_equal(distributed, reference, "subset");
  // Lists only contain active sources.
  for (const auto& list : distributed.lists)
    for (const LeListEntry& e : list)
      EXPECT_TRUE(std::find(active.begin(), active.end(), e.source) !=
                  active.end());
}

TEST(LeLists, ParetoFrontStructure) {
  const WeightedGraph g = erdos_renyi(30, 0.2, WeightLaw::kUniform, 9.0, 4);
  const auto rank = random_ranks(30, 10);
  const auto active = all_vertices(30);
  const LeListsResult r = compute_le_lists(g, active, rank, 0.0);
  for (const auto& list : r.lists) {
    for (size_t j = 0; j + 1 < list.size(); ++j) {
      EXPECT_LE(list[j].dist, list[j + 1].dist + 1e-12);
      EXPECT_GT(list[j].rank, list[j + 1].rank)
          << "ranks must strictly decrease along the list";
    }
    // First entry is the vertex itself (distance 0) or the nearest earlier
    // vertex; last entry is the global rank minimum.
    ASSERT_FALSE(list.empty());
    EXPECT_DOUBLE_EQ(list.front().dist, 0.0);
  }
}

TEST(LeLists, ListSizesAreLogarithmic) {
  // [KKM+12]: list size O(log n) w.h.p. Check a generous multiple.
  const WeightedGraph g = erdos_renyi(128, 0.06, WeightLaw::kUniform, 9.0, 5);
  const auto rank = random_ranks(128, 11);
  const auto active = all_vertices(128);
  const LeListsResult r = compute_le_lists(g, active, rank, 0.0);
  EXPECT_LE(r.max_list_size, 6u * 7u);  // 6·log2(128)
}

TEST(LeLists, DeltaModeUsesApproximateMetric) {
  const WeightedGraph g =
      erdos_renyi(24, 0.25, WeightLaw::kHeavyTail, 50.0, 6);
  const auto rank = random_ranks(24, 12);
  const auto active = all_vertices(24);
  const double delta = 0.5;
  const LeListsResult distributed =
      compute_le_lists(g, active, rank, delta);
  const LeListsResult reference =
      reference_le_lists(g, active, rank, delta);
  expect_lists_equal(distributed, reference, "delta-mode");
}

TEST(LeLists, StrictCongestThroughout) {
  const WeightedGraph g = grid(6, 6, /*perturb=*/true, 7);
  const auto rank = random_ranks(36, 13);
  const auto active = all_vertices(36);
  const LeListsResult r = compute_le_lists(g, active, rank, 0.0);
  EXPECT_EQ(r.cost.max_edge_load, 1u);
  EXPECT_GT(r.cost.rounds, 0u);
}

// One program object serves every lane: at threads 2, 4 and 8 the lists
// (entries compared exactly) and the model cost equal threads=1.
TEST(LeLists, ThreadCountsMatchSerial) {
  auto graphs = testing::small_graph_zoo();
  graphs.push_back({"grid16x16", grid(16, 16, /*perturb=*/true, 41)});
  graphs.push_back(
      {"er300", erdos_renyi(300, 0.03, WeightLaw::kUniform, 10.0, 42)});
  for (const auto& [name, g] : graphs) {
    const int n = g.num_vertices();
    const auto rank = random_ranks(n, 15);
    std::vector<VertexId> active;
    for (VertexId v = 0; v < n; v += 2) active.push_back(v);
    const LeListsResult serial = compute_le_lists(g, active, rank, 0.1);
    for (int threads : {2, 4, 8}) {
      congest::SchedulerOptions options;
      options.threads = threads;
      const LeListsResult par =
          compute_le_lists(g, active, rank, 0.1, options);
      const std::string where = name + " threads=" + std::to_string(threads);
      testing::expect_same_model_cost(serial.cost, par.cost, where);
      EXPECT_EQ(par.max_list_size, serial.max_list_size) << where;
      ASSERT_EQ(par.lists.size(), serial.lists.size()) << where;
      for (size_t v = 0; v < par.lists.size(); ++v) {
        const auto& a = par.lists[v];
        const auto& b = serial.lists[v];
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end(),
                               [](const LeListEntry& x, const LeListEntry& y) {
                                 return x.source == y.source &&
                                        x.dist == y.dist && x.rank == y.rank;
                               }))
            << where << " vertex " << v;
      }
    }
  }
}

TEST(LeLists, GlobalMinimumRankReachesEveryone) {
  const WeightedGraph g = path_graph(20, WeightLaw::kUnit, 1.0, 1);
  auto rank = random_ranks(20, 14);
  rank[7] = 0;  // vertex 7 is first in the permutation
  const auto active = all_vertices(20);
  const LeListsResult r = compute_le_lists(g, active, rank, 0.0);
  for (VertexId v = 0; v < 20; ++v) {
    const auto& list = r.lists[static_cast<size_t>(v)];
    ASSERT_FALSE(list.empty());
    EXPECT_EQ(list.back().source, 7) << "vertex " << v;
  }
}

}  // namespace
}  // namespace lightnet

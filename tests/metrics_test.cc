#include "graph/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "baseline/sequential_net.h"
#include "graph/generators.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "support/assert.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

// The oracles: the verifiers as full searches, one complete Dijkstra in H
// from every vertex with a higher-id neighbour, and one in G from every net
// point. The library's output-sensitive versions must match them bit for bit.
double full_search_edge_stretch(const WeightedGraph& g,
                                std::span<const EdgeId> spanner) {
  const WeightedGraph h = g.edge_subgraph(spanner);
  double worst = 0.0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    bool has_forward_edge = false;
    for (const Incidence& inc : g.incident(u))
      if (inc.neighbor > u) has_forward_edge = true;
    if (!has_forward_edge) continue;
    const ShortestPathTree t = dijkstra(h, u);
    for (const Incidence& inc : g.incident(u)) {
      if (inc.neighbor <= u) continue;
      const Weight dh = t.dist[static_cast<size_t>(inc.neighbor)];
      LN_ASSERT_MSG(dh != kInfiniteDistance,
                    "spanner disconnects an edge's endpoints");
      worst = std::max(worst, dh / g.edge(inc.edge).w);
    }
  }
  return worst;
}

NetCheck full_search_check_net(const WeightedGraph& g,
                               std::span<const VertexId> net, double alpha,
                               double beta) {
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
  result.min_pair_distance = kInfiniteDistance;
  for (VertexId s : net) {
    const ShortestPathTree t = dijkstra(g, s);
    for (VertexId o : net) {
      if (o == s) continue;
      result.min_pair_distance =
          std::min(result.min_pair_distance, t.dist[static_cast<size_t>(o)]);
    }
  }
  result.separated =
      net.size() <= 1 || result.min_pair_distance > beta - 1e-9;
  return result;
}

// The greedy r-net of each sampled ball B(center, 2r), with one complete
// Dijkstra from every net point for every ball vertex it is tested against.
double full_search_doubling_dimension(const WeightedGraph& g,
                                      int sample_count, std::uint64_t seed) {
  Rng rng(seed);
  int worst = 1;
  for (int s = 0; s < sample_count; ++s) {
    const VertexId center = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    const ShortestPathTree t = dijkstra(g, center);
    Weight max_d = 0.0;
    for (Weight d : t.dist)
      if (d != kInfiniteDistance) max_d = std::max(max_d, d);
    if (max_d <= 0.0) continue;
    const double r = rng.next_uniform(max_d / 16.0, max_d / 2.0);
    std::vector<VertexId> ball;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (t.dist[static_cast<size_t>(v)] <= 2.0 * r) ball.push_back(v);
    std::vector<VertexId> net;
    for (VertexId v : ball) {
      bool covered = false;
      for (VertexId c : net) {
        const ShortestPathTree tc = dijkstra(g, c);
        if (tc.dist[static_cast<size_t>(v)] <= r) {
          covered = true;
          break;
        }
      }
      if (!covered) net.push_back(v);
    }
    worst = std::max(worst, static_cast<int>(net.size()));
  }
  return std::log2(static_cast<double>(worst));
}

// EXPECT_EQ on doubles: the values must be identical, not merely close.
void expect_stretch_matches_oracle(const WeightedGraph& g,
                                   std::span<const EdgeId> spanner,
                                   const std::string& context) {
  double expected = 0.0;
  try {
    expected = full_search_edge_stretch(g, spanner);
  } catch (const std::logic_error&) {
    EXPECT_THROW(max_edge_stretch(g, spanner), std::logic_error) << context;
    return;
  }
  EXPECT_EQ(max_edge_stretch(g, spanner), expected) << context;
}

void expect_net_check_matches_oracle(const WeightedGraph& g,
                                     std::span<const VertexId> net,
                                     double alpha, double beta,
                                     const std::string& context) {
  const NetCheck expected = full_search_check_net(g, net, alpha, beta);
  const NetCheck got = check_net(g, net, alpha, beta);
  EXPECT_EQ(got.covering, expected.covering) << context;
  EXPECT_EQ(got.separated, expected.separated) << context;
  EXPECT_EQ(got.worst_cover_distance, expected.worst_cover_distance)
      << context;
  EXPECT_EQ(got.min_pair_distance, expected.min_pair_distance) << context;
}

// The small zoo plus unit-weight graphs, where equal distances tie.
std::vector<testing::NamedGraph> oracle_graphs() {
  std::vector<testing::NamedGraph> graphs = testing::small_graph_zoo();
  graphs.push_back({"grid6x6_unit", grid(6, 6, /*perturb=*/false, 21)});
  graphs.push_back({"path12_unit", path_graph(12, WeightLaw::kUnit, 1.0, 22)});
  graphs.push_back(
      {"er24_unit", erdos_renyi(24, 0.3, WeightLaw::kUnit, 1.0, 23)});
  return graphs;
}

// MST, MST plus a seeded random third of the other edges, all edges, and
// all edges but the lightest (which cuts a bridge apart on trees).
std::vector<std::pair<std::string, std::vector<EdgeId>>> oracle_spanners(
    const WeightedGraph& g, std::uint64_t seed) {
  std::vector<std::pair<std::string, std::vector<EdgeId>>> spanners;
  const std::vector<EdgeId> mst = kruskal_mst(g);
  spanners.emplace_back("mst", mst);
  std::vector<char> in_mst(static_cast<size_t>(g.num_edges()), 0);
  for (EdgeId id : mst) in_mst[static_cast<size_t>(id)] = 1;
  std::vector<EdgeId> mst_plus = mst;
  Rng rng(seed);
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (!in_mst[static_cast<size_t>(id)] && rng.next_bernoulli(1.0 / 3.0))
      mst_plus.push_back(id);
  spanners.emplace_back("mst_plus_random", mst_plus);
  std::vector<EdgeId> all(static_cast<size_t>(g.num_edges()));
  std::iota(all.begin(), all.end(), 0);
  spanners.emplace_back("all", all);
  const auto lightest = std::min_element(
      all.begin(), all.end(),
      [&g](EdgeId a, EdgeId b) { return g.edge(a).w < g.edge(b).w; });
  std::vector<EdgeId> without_lightest = all;
  without_lightest.erase(without_lightest.begin() + (lightest - all.begin()));
  spanners.emplace_back("all_but_lightest", without_lightest);
  return spanners;
}

TEST(Metrics, EdgeStretchMatchesFullSearchOracleOnZoo) {
  std::uint64_t seed = 1;
  for (const auto& [name, g] : oracle_graphs())
    for (const auto& [label, spanner] : oracle_spanners(g, seed++))
      expect_stretch_matches_oracle(g, spanner, name + "/" + label);
}

TEST(Metrics, EdgeStretchMatchesFullSearchOracleOnRegistrySpanners) {
  for (const auto& [name, g] : testing::medium_graph_zoo()) {
    for (const api::Construction* c : api::all_constructions()) {
      if (c->kind() != api::ArtifactKind::kSpanner) continue;
      const api::Artifact a = c->run(g, api::ConstructionParams{}, {});
      expect_stretch_matches_oracle(g, a.edges,
                                    name + "/" + std::string(c->name()));
    }
  }
}

TEST(Metrics, EdgeStretchWhenTheLightestEdgeIsMissing) {
  // Without the weight-1 edge {0,1} its detour 0-2-1 costs 2.5 + 2.
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 2.5}});
  const std::vector<EdgeId> spanner{1, 2};
  EXPECT_EQ(max_edge_stretch(g, spanner), 4.5);
  EXPECT_EQ(full_search_edge_stretch(g, spanner), 4.5);
}

TEST(Metrics, EdgeStretchOfAnEdgelessGraphIsZero) {
  const WeightedGraph g = WeightedGraph::from_edges(5, {});
  EXPECT_EQ(max_edge_stretch(g, {}), 0.0);
  EXPECT_EQ(full_search_edge_stretch(g, {}), 0.0);
  EXPECT_EQ(max_edge_stretch(WeightedGraph::from_edges(0, {}), {}), 0.0);
}

TEST(Metrics, EdgeStretchThrowsWhenTheSpannerCutsAnEdge) {
  const WeightedGraph g = path_graph(6, WeightLaw::kUniform, 10.0, 3);
  const std::vector<EdgeId> spanner{0, 1, 3, 4};  // edge 2 is a bridge
  EXPECT_THROW(max_edge_stretch(g, spanner), std::logic_error);
}

TEST(Metrics, LightnessOfMstIsOne) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const auto mst = kruskal_mst(g);
    EXPECT_NEAR(lightness(g, mst), 1.0, 1e-9) << name;
  }
}

TEST(Metrics, LightnessOfWholeGraph) {
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 3.0}});
  std::vector<EdgeId> all{0, 1, 2};
  EXPECT_NEAR(lightness(g, all), 5.0 / 2.0, 1e-9);
}

TEST(Metrics, EdgeStretchOfFullGraphIsOne) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    std::vector<EdgeId> all(static_cast<size_t>(g.num_edges()));
    std::iota(all.begin(), all.end(), 0);
    EXPECT_LE(max_edge_stretch(g, all), 1.0 + 1e-9) << name;
  }
}

TEST(Metrics, EdgeStretchDetectsDetours) {
  // Dropping the direct heavy edge forces the 2-hop detour: stretch 2/1.5.
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.5}});
  const std::vector<EdgeId> spanner{0, 1};
  EXPECT_NEAR(max_edge_stretch(g, spanner), 2.0 / 1.5, 1e-9);
}

TEST(Metrics, PairwiseStretchDominatesEdgeStretchConsistency) {
  const WeightedGraph g = erdos_renyi(18, 0.3, WeightLaw::kUniform, 9.0, 3);
  const auto mst = kruskal_mst(g);
  const double edge_stretch = max_edge_stretch(g, mst);
  const double pair_stretch = max_pairwise_stretch(g, mst);
  // By the triangle inequality the max is attained on an edge.
  EXPECT_NEAR(edge_stretch, pair_stretch, 1e-9);
}

TEST(Metrics, RootStretchOfSptIsOne) {
  const WeightedGraph g = erdos_renyi(25, 0.25, WeightLaw::kUniform, 9.0, 4);
  const RootedTree spt = shortest_path_tree(g, 0);
  EXPECT_NEAR(root_stretch(g, spt.edge_ids(), 0), 1.0, 1e-9);
  EXPECT_NEAR(average_root_stretch(g, spt.edge_ids(), 0), 1.0, 1e-9);
}

TEST(Metrics, RootStretchOfMstCanBeLarge) {
  // Ring: MST drops one edge; the opposite vertex suffers ~n/1 stretch...
  const WeightedGraph g = ring_with_chords(20, 0, 1.0, 1);
  const auto mst = kruskal_mst(g);
  EXPECT_GT(root_stretch(g, mst, 0), 5.0);
}

TEST(Metrics, CheckNetAcceptsValidNet) {
  const WeightedGraph g = path_graph(9, WeightLaw::kUnit, 1.0, 1);
  const std::vector<VertexId> net{0, 4, 8};
  const NetCheck check = check_net(g, net, 2.0, 3.0);
  EXPECT_TRUE(check.covering);
  EXPECT_TRUE(check.separated);
  EXPECT_NEAR(check.worst_cover_distance, 2.0, 1e-9);
  EXPECT_NEAR(check.min_pair_distance, 4.0, 1e-9);
}

TEST(Metrics, CheckNetRejectsBadCovering) {
  const WeightedGraph g = path_graph(9, WeightLaw::kUnit, 1.0, 1);
  const std::vector<VertexId> net{0};
  const NetCheck check = check_net(g, net, 2.0, 1.0);
  EXPECT_FALSE(check.covering);
}

TEST(Metrics, CheckNetRejectsBadSeparation) {
  const WeightedGraph g = path_graph(9, WeightLaw::kUnit, 1.0, 1);
  const std::vector<VertexId> net{0, 1, 4, 8};
  const NetCheck check = check_net(g, net, 4.0, 2.0);
  EXPECT_FALSE(check.separated);
}

TEST(Metrics, CheckNetMatchesFullSearchOracleOnZoo) {
  std::uint64_t seed = 1;
  for (const auto& [name, g] : oracle_graphs()) {
    const double unit = mst_weight(g) / (g.num_vertices() - 1);
    for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
      const double beta = scale * unit;
      expect_net_check_matches_oracle(g, greedy_net(g, beta), beta, beta,
                                      name + "/greedy");
    }
    // A seeded random subset with its first point repeated at the end.
    Rng rng(seed++);
    std::vector<VertexId> net;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (rng.next_bernoulli(0.2)) net.push_back(v);
    if (net.empty()) net.push_back(0);
    net.push_back(net.front());
    expect_net_check_matches_oracle(g, net, 2.0 * unit, unit,
                                    name + "/random");
    const std::vector<VertexId> one_point{g.num_vertices() / 2};
    expect_net_check_matches_oracle(g, one_point, unit, unit,
                                    name + "/one_point");
  }
}

TEST(Metrics, CheckNetMatchesFullSearchOracleOnRegistryNets) {
  for (const auto& [name, g] : testing::medium_graph_zoo()) {
    for (const api::Construction* c : api::all_constructions()) {
      if (c->kind() != api::ArtifactKind::kNet) continue;
      const api::Artifact a = c->run(g, api::ConstructionParams{}, {});
      const double radius = api::net_radius_for(g, api::ConstructionParams{});
      expect_net_check_matches_oracle(g, a.vertices, radius, radius,
                                      name + "/" + std::string(c->name()));
    }
  }
}

TEST(Metrics, CheckNetOnePointNetHasNoPair) {
  const WeightedGraph g = path_graph(9, WeightLaw::kUnit, 1.0, 1);
  const std::vector<VertexId> net{4};
  const NetCheck check = check_net(g, net, 4.0, 2.0);
  EXPECT_EQ(check.min_pair_distance, kInfiniteDistance);
  EXPECT_TRUE(check.separated);
  EXPECT_TRUE(check.covering);
}

TEST(Metrics, CheckNetDuplicateEntriesAreNotPairs) {
  const WeightedGraph g = path_graph(9, WeightLaw::kUnit, 1.0, 1);
  const std::vector<VertexId> twice{4, 4};
  EXPECT_EQ(check_net(g, twice, 4.0, 2.0).min_pair_distance,
            kInfiniteDistance);
  const std::vector<VertexId> net{0, 0, 4, 8, 4};
  const NetCheck check = check_net(g, net, 4.0, 2.0);
  EXPECT_EQ(check.min_pair_distance, 4.0);
  EXPECT_TRUE(check.separated);
  expect_net_check_matches_oracle(g, net, 4.0, 2.0, "path9/duplicates");
}

TEST(Metrics, DoublingDimensionOrdersFamilies) {
  // A geometric graph should read as lower-dimensional than a dense random
  // graph of the same size.
  const WeightedGraph geo = random_geometric(64, 0.3, 5).graph;
  const WeightedGraph er = erdos_renyi(64, 0.3, WeightLaw::kUniform, 2.0, 5);
  const double d_geo = estimate_doubling_dimension(geo, 3, 1);
  const double d_er = estimate_doubling_dimension(er, 3, 1);
  EXPECT_LE(d_geo, d_er + 2.0);
}

TEST(Metrics, DoublingDimensionMatchesFullSearchOracle) {
  std::vector<testing::NamedGraph> graphs = testing::small_graph_zoo();
  for (testing::NamedGraph& ng : testing::medium_graph_zoo())
    graphs.push_back(std::move(ng));
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const std::string tag = "_s" + std::to_string(seed);
    graphs.push_back({"er256" + tag, erdos_renyi(256, 8.0 / 256,
                                                 WeightLaw::kUniform, 100.0,
                                                 seed)});
    graphs.push_back(
        {"geo256" + tag,
         random_geometric(256, std::sqrt(10.0 / 256), seed).graph});
    graphs.push_back({"ring256" + tag, ring_with_chords(256, 128, 25.0, seed)});
    graphs.push_back({"grid16x16" + tag, grid(16, 16, true, seed)});
    graphs.push_back(
        {"tree256" + tag, random_tree(256, WeightLaw::kUniform, 100.0, seed)});
    graphs.push_back(
        {"path256" + tag, path_graph(256, WeightLaw::kHeavyTail, 100.0, seed)});
    graphs.push_back(
        {"lb16x16" + tag, lower_bound_family(16, 16, 100.0, seed)});
  }
  std::uint64_t seed = 0;
  for (const testing::NamedGraph& ng : graphs) {
    ++seed;
    EXPECT_EQ(estimate_doubling_dimension(ng.graph, 4, seed),
              full_search_doubling_dimension(ng.graph, 4, seed))
        << ng.name << " seed " << seed;
  }
}

}  // namespace
}  // namespace lightnet

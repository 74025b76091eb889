#include "routines/bounded_multisource.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "routines/approx_spt.h"
#include "tests/exploration_oracle.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

using testing::SourceTables;
using testing::explore_cold;

TEST(BoundedMultiSource, TablesMatchBoundedDijkstra) {
  // Bitwise against the sequential oracle: bounded Dijkstra distances plus
  // the canonical smallest-(parent, edge) tie-break.
  const RoundedSubstrate substrate(grid(6, 6, /*perturb=*/true, 3), 0.0);
  const std::vector<VertexId> sources{0, 17, 35};
  const Weight radius = 3.0;
  const WaveExploreResult r = explore_cold(substrate, sources, radius);
  testing::expect_matches_oracle(r.state.table[0], substrate.rounded, sources,
                                 radius, "grid6x6");
  // Three sources' records fit one batched message per link.
  EXPECT_EQ(r.cost.max_edge_load, 1u);
}

TEST(BoundedMultiSource, PathExtractionRealizesDistance) {
  const WeightedGraph g = erdos_renyi(40, 0.15, WeightLaw::kUniform, 9.0, 4);
  const RoundedSubstrate substrate(g, 0.0);
  const std::vector<VertexId> sources{0, 20};
  const Weight radius = 12.0;
  const SourceTables table =
      explore_cold(substrate, sources, radius).state.table[0];
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const BoundedSourceEntry& e : table[static_cast<size_t>(v)]) {
      const std::vector<EdgeId> path = testing::path_edges(table, v, e.source);
      if (v == e.source) continue;
      ASSERT_FALSE(path.empty());
      Weight sum = 0.0;
      for (EdgeId id : path) sum += g.edge(id).w;
      EXPECT_NEAR(sum, e.dist, 1e-9);
    }
  }
}

TEST(BoundedMultiSource, EpsilonRoundingStaysWithinFactor) {
  const WeightedGraph g = grid(5, 5, /*perturb=*/true, 5);
  const std::vector<VertexId> sources{0};
  const double eps = 0.125;
  const SourceTables table =
      explore_cold(RoundedSubstrate(g, eps), sources, 8.0).state.table[0];
  const ShortestPathTree ref = dijkstra(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const BoundedSourceEntry& e : table[static_cast<size_t>(v)]) {
      EXPECT_GE(e.dist, ref.dist[static_cast<size_t>(v)] - 1e-9);
      EXPECT_LE(e.dist,
                (1.0 + eps) * ref.dist[static_cast<size_t>(v)] + 1e-9);
    }
  }
}

TEST(BoundedMultiSource, PackingCertificateOnGeometric) {
  // Doubling metric + spaced sources: each vertex sees O(1) sources.
  const GeometricGraph geo = random_geometric(80, 0.25, 6);
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < 80; v += 16) sources.push_back(v);
  const SourceTables table =
      explore_cold(RoundedSubstrate(geo.graph, 0.0), sources, 0.3)
          .state.table[0];
  size_t most = 0;
  for (const auto& t : table) most = std::max(most, t.size());
  EXPECT_LE(most, sources.size());
  EXPECT_GE(most, 1u);
}

TEST(BoundedMultiSource, EmptySourcesYieldEmptyTables) {
  const WeightedGraph g = path_graph(5, WeightLaw::kUnit, 1.0, 1);
  const WaveExploreResult r = explore_cold(RoundedSubstrate(g, 0.0),
                                           std::vector<VertexId>{}, 2.0);
  for (const auto& table : r.state.table[0]) EXPECT_TRUE(table.empty());
}

}  // namespace
}  // namespace lightnet

// The batched exploration kernel (multi-word per-link announcements,
// sender-side radius filtering) against the sequential oracle of
// tests/exploration_oracle.h: cold runs, extracted paths, and the memoized
// path union the doubling pipeline walks. Warm starts are covered by the
// wave tests (wave_explore_test, exploration_oracle_test).
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "routines/approx_spt.h"
#include "routines/bounded_multisource.h"
#include "tests/exploration_oracle.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

using testing::SourceTables;
using testing::expect_matches_oracle;
using testing::explore_cold;
using testing::path_edges;

std::vector<WeightedGraph> encoding_zoo(std::uint64_t seed) {
  std::vector<WeightedGraph> zoo;
  zoo.push_back(erdos_renyi(48, 0.15, WeightLaw::kUniform, 20.0, seed));
  zoo.push_back(grid(7, 7, /*perturb=*/true, seed + 1));
  zoo.push_back(random_geometric(48, 0.3, seed + 2).graph);
  return zoo;
}

TEST(BoundedBatched, TablesMatchOracleOnZoo) {
  for (std::uint64_t seed : {3u, 11u}) {
    for (const WeightedGraph& g : encoding_zoo(seed)) {
      const RoundedSubstrate substrate(g, 0.1);
      std::vector<VertexId> sources;
      for (VertexId v = 0; v < g.num_vertices(); v += 7) sources.push_back(v);
      const Weight radius = 6.0;
      const WaveExploreResult r = explore_cold(substrate, sources, radius);
      expect_matches_oracle(r.state.table[0], substrate.rounded, sources,
                            radius, "cold");
      // The batched ledger reports its honest bandwidth multiple.
      EXPECT_GE(r.cost.max_edge_load, 1u);
    }
  }
}

TEST(BoundedBatched, ExtractedPathsMatchOracle) {
  const WeightedGraph g = erdos_renyi(40, 0.18, WeightLaw::kUniform, 15.0, 5);
  const RoundedSubstrate substrate(g, 0.0);
  const std::vector<VertexId> sources{0, 13, 26, 39};
  const Weight radius = 7.5;
  const SourceTables table =
      explore_cold(substrate, sources, radius).state.table[0];
  const SourceTables oracle =
      testing::oracle_explore(substrate.rounded, sources, radius);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const BoundedSourceEntry& e : table[static_cast<size_t>(v)]) {
      const std::vector<EdgeId> path = path_edges(table, v, e.source);
      EXPECT_EQ(path, path_edges(oracle, v, e.source))
          << "vertex " << v << " source " << e.source;
      Weight sum = 0.0;
      for (EdgeId id : path) sum += g.edge(id).w;
      if (v != e.source) EXPECT_NEAR(sum, e.dist, testing::kTol);
    }
  }
}

// One epoch shared by every target walks each shared prefix once; the
// union equals that of the unmemoized single paths.
TEST(BoundedBatched, MemoizedPathUnionMatchesSinglePaths) {
  const WeightedGraph g = grid(6, 6, /*perturb=*/true, 8);
  const std::vector<VertexId> sources{0};
  const SourceTables table =
      explore_cold(RoundedSubstrate(g, 0.0), sources, 9.0).state.table[0];
  std::vector<std::uint32_t> stamp(static_cast<size_t>(g.num_vertices()), 0);
  std::vector<EdgeId> collected;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (find_source_entry(table, v, 0) != nullptr)
      EXPECT_TRUE(collect_path_edges(table, v, 0, stamp, 1, collected));
  std::vector<EdgeId> reference;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::vector<EdgeId> path = path_edges(table, v, 0);
    reference.insert(reference.end(), path.begin(), path.end());
  }
  EXPECT_EQ(dedupe_edge_ids(std::move(collected)),
            dedupe_edge_ids(std::move(reference)));
}

}  // namespace
}  // namespace lightnet

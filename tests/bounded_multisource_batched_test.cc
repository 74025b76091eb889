// Batched vs. legacy encodings of the bounded multi-source exploration
// (PR 5): the batched fast path (multi-word frontier broadcasts, sender-side
// radius pruning, cross-scale warm starts) must be observationally identical
// to the strictly-CONGEST legacy pipelining — same distance tables, same
// canonical parents, same extracted path weights, and the same spanner edge
// set when driven from the doubling pipeline.
#include <gtest/gtest.h>

#include <vector>

#include "core/doubling_spanner.h"
#include "graph/generators.h"
#include "routines/approx_spt.h"
#include "routines/bounded_multisource.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

congest::SchedulerOptions legacy_mode() {
  congest::SchedulerOptions sched;
  sched.legacy_unbatched = true;
  return sched;
}

std::vector<WeightedGraph> encoding_zoo(std::uint64_t seed) {
  std::vector<WeightedGraph> zoo;
  zoo.push_back(erdos_renyi(48, 0.15, WeightLaw::kUniform, 20.0, seed));
  zoo.push_back(grid(7, 7, /*perturb=*/true, seed + 1));
  zoo.push_back(random_geometric(48, 0.3, seed + 2).graph);
  return zoo;
}

void expect_identical_tables(const BoundedMultiSourceResult& a,
                             const BoundedMultiSourceResult& b) {
  ASSERT_EQ(a.table.size(), b.table.size());
  for (size_t v = 0; v < a.table.size(); ++v) {
    ASSERT_EQ(a.table[v].size(), b.table[v].size()) << "vertex " << v;
    // Runs append records and sort once when they end; every table an
    // entry point returns must be strictly ascending by source again.
    for (size_t j = 1; j < a.table[v].size(); ++j) {
      EXPECT_LT(a.table[v][j - 1].source, a.table[v][j].source)
          << "vertex " << v;
      EXPECT_LT(b.table[v][j - 1].source, b.table[v][j].source)
          << "vertex " << v;
    }
    for (size_t j = 0; j < a.table[v].size(); ++j) {
      const BoundedSourceEntry& ea = a.table[v][j];
      const BoundedSourceEntry& eb = b.table[v][j];
      EXPECT_EQ(ea.source, eb.source) << "vertex " << v;
      EXPECT_EQ(ea.dist, eb.dist) << "vertex " << v;  // bitwise, not NEAR
      EXPECT_EQ(ea.parent, eb.parent) << "vertex " << v;
      EXPECT_EQ(ea.parent_edge, eb.parent_edge) << "vertex " << v;
    }
  }
  EXPECT_EQ(a.max_sources_per_vertex, b.max_sources_per_vertex);
}

TEST(BoundedBatched, BatchedMatchesLegacyTablesOnZoo) {
  for (std::uint64_t seed : {3u, 11u}) {
    for (const WeightedGraph& g : encoding_zoo(seed)) {
      std::vector<VertexId> sources;
      for (VertexId v = 0; v < g.num_vertices(); v += 7) sources.push_back(v);
      const Weight radius = 6.0;
      const BoundedMultiSourceResult batched =
          bounded_multi_source_paths(g, sources, radius, 0.1);
      const BoundedMultiSourceResult legacy =
          bounded_multi_source_paths(g, sources, radius, 0.1, legacy_mode());
      expect_identical_tables(batched, legacy);
      // The batched encoding coalesces announcements; it must never send
      // more messages than the one-source-per-round pipelining.
      EXPECT_LE(batched.cost.messages, legacy.cost.messages);
      EXPECT_LE(batched.cost.rounds, legacy.cost.rounds);
      // Legacy is strictly CONGEST-legal; batched reports its honest
      // bandwidth multiple.
      EXPECT_EQ(legacy.cost.max_edge_load, 1u);
      EXPECT_GE(batched.cost.max_edge_load, 1u);
    }
  }
}

TEST(BoundedBatched, ExtractedPathsAgreeAcrossEncodings) {
  const WeightedGraph g = erdos_renyi(40, 0.18, WeightLaw::kUniform, 15.0, 5);
  const std::vector<VertexId> sources{0, 13, 26, 39};
  const Weight radius = 7.5;
  const BoundedMultiSourceResult batched =
      bounded_multi_source_paths(g, sources, radius, 0.0);
  const BoundedMultiSourceResult legacy =
      bounded_multi_source_paths(g, sources, radius, 0.0, legacy_mode());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const BoundedSourceEntry& e : batched.table[static_cast<size_t>(v)]) {
      const std::vector<EdgeId> pb = extract_path(batched, nullptr, v, e.source);
      const std::vector<EdgeId> pl = extract_path(legacy, nullptr, v, e.source);
      EXPECT_EQ(pb, pl) << "vertex " << v << " source " << e.source;
      Weight sum = 0.0;
      for (EdgeId id : pb) sum += g.edge(id).w;
      if (v != e.source) EXPECT_NEAR(sum, e.dist, testing::kTol);
    }
  }
}

TEST(BoundedBatched, IncrementalWarmStartMatchesColdRun) {
  for (std::uint64_t seed : {2u, 9u}) {
    for (const WeightedGraph& g : encoding_zoo(seed)) {
      const RoundedSubstrate substrate(g, 0.1);
      std::vector<VertexId> sources;
      for (VertexId v = 0; v < g.num_vertices(); v += 5) sources.push_back(v);
      const Weight r1 = 3.0, r2 = 6.5;
      const BoundedMultiSourceResult cold =
          bounded_multi_source_paths(substrate, sources, r2);
      BoundedMultiSourceResult warm_base =
          bounded_multi_source_paths(substrate, sources, r1);
      const BoundedMultiSourceResult warm =
          bounded_multi_source_paths_incremental(substrate, sources, r2, r1,
                                                 std::move(warm_base));
      expect_identical_tables(cold, warm);
      EXPECT_GT(warm.records_inherited, 0u);
      // The interior of the r1 balls stays silent.
      EXPECT_LE(warm.shell_announcements, warm.records_inherited);
    }
  }
}

TEST(BoundedBatched, IncrementalPrunesRetiredSources) {
  const WeightedGraph g = grid(6, 6, /*perturb=*/true, 4);
  const RoundedSubstrate substrate(g, 0.1);
  const std::vector<VertexId> all{0, 7, 14, 21, 28, 35};
  const std::vector<VertexId> kept{7, 21, 35};
  BoundedMultiSourceResult prev =
      bounded_multi_source_paths(substrate, all, 4.0);
  const BoundedMultiSourceResult warm = bounded_multi_source_paths_incremental(
      substrate, kept, 6.0, 4.0, std::move(prev));
  const BoundedMultiSourceResult cold =
      bounded_multi_source_paths(substrate, kept, 6.0);
  expect_identical_tables(cold, warm);
}

TEST(BoundedBatched, CollectPathEdgesUnionMatchesExtractPath) {
  const WeightedGraph g = grid(6, 6, /*perturb=*/true, 8);
  const std::vector<VertexId> sources{0};
  const BoundedMultiSourceResult r =
      bounded_multi_source_paths(g, sources, 9.0, 0.0);
  std::vector<std::uint32_t> stamp(static_cast<size_t>(g.num_vertices()), 0);
  std::vector<EdgeId> collected;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (find_source_entry(r, v, 0) != nullptr)
      EXPECT_TRUE(collect_path_edges(r, nullptr, v, 0, stamp, 1, collected));
  std::vector<EdgeId> reference;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::vector<EdgeId> path = extract_path(r, nullptr, v, 0);
    reference.insert(reference.end(), path.begin(), path.end());
  }
  EXPECT_EQ(dedupe_edge_ids(std::move(collected)),
            dedupe_edge_ids(std::move(reference)));
}

TEST(BoundedBatched, DoublingSpannerIdenticalAcrossEncodings) {
  for (std::uint64_t seed : {1u, 6u}) {
    for (const WeightedGraph& g : encoding_zoo(seed)) {
      DoublingSpannerParams params;
      params.epsilon = 0.25;
      api::RunContext batched_ctx = api::RunContext{}.with_seed(seed);
      api::RunContext legacy_ctx = api::RunContext{}.with_seed(seed);
      legacy_ctx.sched.legacy_unbatched = true;
      const DoublingSpannerResult batched =
          build_doubling_spanner(g, params, batched_ctx);
      const DoublingSpannerResult legacy =
          build_doubling_spanner(g, params, legacy_ctx);
      EXPECT_EQ(batched.spanner, legacy.spanner);
      ASSERT_EQ(batched.scales.size(), legacy.scales.size());
      for (size_t i = 0; i < batched.scales.size(); ++i) {
        EXPECT_EQ(batched.scales[i].net_size, legacy.scales[i].net_size);
        EXPECT_EQ(batched.scales[i].pairs_connected,
                  legacy.scales[i].pairs_connected);
      }
      EXPECT_LE(batched.ledger.total().messages,
                legacy.ledger.total().messages);
    }
  }
}

}  // namespace
}  // namespace lightnet

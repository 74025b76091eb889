// The exploration kernel against its sequential oracle
// (tests/exploration_oracle.h): cold runs over the test zoos and the n=256
// scenario families at three rounding slacks, then the order-independence
// cases — inboxes permuted by a reorder-only fault plan, and four worker
// threads — for cold runs and for chained waves with warm starts: two
// two-scale waves, and two one-scale waves shaped like the doubling
// pipeline's seed-filter chain. The canonical fixed point makes every one
// of them reproduce the oracle's tables bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/scenario.h"
#include "graph/shortest_paths.h"
#include "routines/approx_spt.h"
#include "routines/bounded_multisource.h"
#include "tests/exploration_oracle.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

using testing::NamedGraph;
using testing::SourceTables;
using testing::expect_matches_oracle;
using testing::expect_wave_matches_oracle;
using testing::explore_cold;
using testing::oracle_explore;

// The er/geo/ring/grid scenario families at n=256.
std::vector<NamedGraph> scenario_zoo() {
  std::vector<NamedGraph> zoo;
  for (const char* family : {"er", "geo", "ring", "grid"}) {
    api::ScenarioSpec spec;
    spec.family = family;
    spec.n = 256;
    zoo.push_back({std::string(family) + "256", api::materialize(spec)});
  }
  return zoo;
}

// Small and medium test zoos plus the scenario families.
std::vector<NamedGraph> oracle_zoo() {
  std::vector<NamedGraph> zoo = testing::small_graph_zoo();
  for (NamedGraph& g : testing::medium_graph_zoo()) zoo.push_back(std::move(g));
  for (NamedGraph& g : scenario_zoo()) zoo.push_back(std::move(g));
  return zoo;
}

std::vector<VertexId> every_kth(int n, int k, int offset = 0) {
  std::vector<VertexId> out;
  for (VertexId v = offset; v < n; v += k) out.push_back(v);
  return out;
}

// Two mean edge weights: on most instances the balls overlap without
// covering the graph.
Weight probe_radius(const WeightedGraph& h) {
  Weight sum = 0.0;
  for (const Edge& e : h.edges()) sum += e.w;
  return 2.0 * sum / static_cast<double>(h.num_edges());
}

struct Mode {
  std::string name;
  congest::SchedulerOptions sched;
};

// Modes that change the order in which offers reach a vertex: a seeded
// permutation of every inbox, and four workers staging in parallel.
std::vector<Mode> reordering_modes() {
  congest::SchedulerOptions reorder;
  reorder.fault.seed = 5;
  reorder.fault.reorder = true;
  congest::SchedulerOptions threads;
  threads.threads = 4;
  return {{"reorder", reorder}, {"threads=4", threads}};
}

TEST(ExplorationOracle, OracleRealizesBoundedDijkstraDistances) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const RoundedSubstrate substrate(g, 0.1);
    const WeightedGraph& h = substrate.rounded;
    const std::vector<VertexId> sources = every_kth(h.num_vertices(), 4);
    const Weight radius = probe_radius(h);
    const SourceTables oracle = oracle_explore(h, sources, radius);
    for (VertexId s : sources) {
      const ShortestPathTree ref = dijkstra_bounded(h, s, radius);
      for (VertexId v = 0; v < h.num_vertices(); ++v) {
        const BoundedSourceEntry* e = find_source_entry(oracle, v, s);
        if (ref.dist[static_cast<size_t>(v)] == kInfiniteDistance) {
          EXPECT_EQ(e, nullptr) << name << " s=" << s << " v=" << v;
          continue;
        }
        ASSERT_NE(e, nullptr) << name << " s=" << s << " v=" << v;
        EXPECT_EQ(e->dist, ref.dist[static_cast<size_t>(v)]) << name;
        // The parent chain is tight: summed from the source it gives the
        // distance exactly.
        Weight sum = 0.0;
        for (EdgeId id : testing::path_edges(oracle, v, s))
          sum += h.edge(id).w;
        EXPECT_EQ(sum, e->dist) << name << " s=" << s << " v=" << v;
      }
    }
  }
}

TEST(ExplorationOracle, ColdKernelMatchesOracleOnZoo) {
  for (const auto& [name, g] : oracle_zoo()) {
    for (const double eps : {0.0, 0.1, 0.125}) {
      const RoundedSubstrate substrate(g, eps);
      const WeightedGraph& h = substrate.rounded;
      const std::vector<VertexId> sources = every_kth(h.num_vertices(), 5);
      const Weight radius = probe_radius(h);
      expect_matches_oracle(
          explore_cold(substrate, sources, radius).state.table[0], h, sources,
          radius, name + " eps=" + std::to_string(eps));
    }
  }
}

TEST(ExplorationOracle, ReorderedAndThreadedKernelMatchesOracle) {
  for (const auto& [name, g] : scenario_zoo()) {
    const RoundedSubstrate substrate(g, 0.1);
    const WeightedGraph& h = substrate.rounded;
    const std::vector<VertexId> sources = every_kth(h.num_vertices(), 4);
    const Weight radius = probe_radius(h);
    for (const Mode& mode : reordering_modes())
      expect_matches_oracle(
          explore_cold(substrate, sources, radius, mode.sched).state.table[0],
          h, sources, radius, name + "/" + mode.name + "/cold");
  }
}

TEST(ExplorationOracle, ReorderedAndThreadedWavesMatchOracle) {
  for (const auto& [name, g] : scenario_zoo()) {
    const RoundedSubstrate substrate(g, 0.1);
    const WeightedGraph& h = substrate.rounded;
    const int n = h.num_vertices();
    const Weight r = probe_radius(h);
    // In every chain, wave B keeps some of wave A's sources (warm), retires
    // the rest and adds new ones (cold).
    const std::vector<std::vector<VertexId>> nets_a = {every_kth(n, 2),
                                                       every_kth(n, 4)};
    const std::vector<std::vector<VertexId>> nets_b = {every_kth(n, 8),
                                                       every_kth(n, 12, 3)};
    // The seed-chain shape: one scale per wave. The second net keeps every
    // other source of the first and adds as many new ones.
    std::vector<VertexId> chain_b;
    for (VertexId v = 0; v < n; ++v)
      if (v % 8 == 0 || v % 8 == 2) chain_b.push_back(v);
    struct Chain {
      std::string name;
      std::vector<WaveScale> a, b;
    };
    const std::vector<Chain> chains = {
        {"two-scale", {{nets_a[0], 0.5 * r}, {nets_a[1], r}},
         {{nets_b[0], 1.25 * r}, {nets_b[1], 1.5 * r}}},
        {"one-scale", {{nets_a[1], r}}, {{chain_b, 1.5 * r}}}};
    for (const Chain& chain : chains) {
      for (const Mode& mode : reordering_modes()) {
        const std::string context = name + "/" + chain.name + "/" + mode.name;
        WaveExploreResult a = bounded_multi_source_paths_wave(
            substrate, chain.a, WaveExploreState{}, mode.sched);
        expect_wave_matches_oracle(a.state, h, chain.a, context + "/wave A");
        const WaveExploreResult b = bounded_multi_source_paths_wave(
            substrate, chain.b, std::move(a.state), mode.sched);
        expect_wave_matches_oracle(b.state, h, chain.b, context + "/wave B");
        EXPECT_GT(b.records_inherited, 0u) << context;
        EXPECT_GT(b.pruned_records, 0u) << context;
      }
    }
  }
}

}  // namespace
}  // namespace lightnet

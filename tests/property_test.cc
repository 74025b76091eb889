// Randomized property sweeps and failure injection across the whole stack.
//
// Each suite re-states one of the paper's invariants and hammers it over
// random instances and seeds beyond the fixed zoo used by the unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "api/registry.h"
#include "api/report.h"
#include "core/doubling_spanner.h"
#include "core/light_spanner.h"
#include "core/nets.h"
#include "core/slt.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "mst/euler_tour.h"
#include "routines/le_lists.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

WeightedGraph random_instance(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  const int n = 16 + static_cast<int>(rng.next_below(48));
  switch (rng.next_below(4)) {
    case 0:
      return erdos_renyi(n, 0.15, WeightLaw::kHeavyTail, 200.0, seed);
    case 1:
      return ring_with_chords(n, n / 3, rng.next_uniform(2.0, 40.0), seed);
    case 2:
      return random_geometric(n, 0.45, seed).graph;
    default:
      return erdos_renyi(n, 0.2, WeightLaw::kExponentialScales, 64.0, seed);
  }
}

class PropertySeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySeed, SpannerGuaranteesHoldOnRandomInstances) {
  const std::uint64_t seed = GetParam();
  const WeightedGraph g = random_instance(seed);
  for (int k : {2, 3}) {
    LightSpannerParams params;
    params.k = k;
    params.epsilon = 0.25;
    const api::RunContext ctx = api::RunContext{}.with_seed(seed);
    const LightSpannerResult r = build_light_spanner(g, params, ctx);
    EXPECT_LE(max_edge_stretch(g, r.spanner),
              (2.0 * k - 1.0) * (1.0 + 6.0 * params.epsilon) + 1e-6)
        << "seed " << seed << " k " << k;
    EXPECT_LE(lightness(g, r.spanner),
              20.0 * k * std::pow(static_cast<double>(g.num_vertices()),
                                  1.0 / k))
        << "seed " << seed << " k " << k;
  }
}

TEST_P(PropertySeed, DoublingSpannerGuaranteesHoldOnRandomInstances) {
  const std::uint64_t seed = GetParam();
  const WeightedGraph g = random_instance(seed ^ 0xD0B1);
  for (const double eps : {0.05, 0.1}) {
    DoublingSpannerParams params;
    params.epsilon = eps;
    const api::RunContext ctx = api::RunContext{}.with_seed(seed);
    const DoublingSpannerResult r = build_doubling_spanner(g, params, ctx);
    EXPECT_TRUE(g.edge_subgraph(r.spanner).is_connected())
        << "seed " << seed << " eps " << eps;
    // §7.2 (the registry's bound_stretch): 1 + 30ε for ε < 1/8.
    EXPECT_LE(max_edge_stretch(g, r.spanner), 1.0 + 30.0 * eps + 1e-6)
        << "seed " << seed << " eps " << eps;
  }
}

TEST_P(PropertySeed, SltGuaranteesHoldOnRandomInstances) {
  const std::uint64_t seed = GetParam();
  const WeightedGraph g = random_instance(seed ^ 0xABCDEF);
  const double eps = 0.1 + 0.2 * (seed % 4);
  const SltResult r = build_slt(g, 0, std::min(1.0, eps));
  const double e = std::min(1.0, eps);
  EXPECT_LE(root_stretch(g, r.tree_edges, 0),
            (1.0 + e) * (1.0 + 25.0 * e) + 1e-6)
      << "seed " << seed;
  EXPECT_LE(lightness(g, r.tree_edges), 1.0 + 4.0 / e + 1e-6)
      << "seed " << seed;
}

TEST_P(PropertySeed, NetGuaranteesHoldOnRandomInstances) {
  const std::uint64_t seed = GetParam();
  const WeightedGraph g = random_instance(seed ^ 0x123456);
  NetParams params;
  params.radius = 0.3 * g.max_edge_weight();
  params.delta = 0.25 * (seed % 3);
  const api::RunContext ctx = api::RunContext{}.with_seed(seed);
  const NetResult r = build_net(g, params, ctx);
  const NetCheck check =
      check_net(g, r.net, (1.0 + params.delta) * params.radius,
                params.radius / (1.0 + params.delta));
  EXPECT_TRUE(check.covering) << "seed " << seed;
  EXPECT_TRUE(check.separated) << "seed " << seed;
}

TEST_P(PropertySeed, EulerTourInvariantsHoldOnRandomInstances) {
  const std::uint64_t seed = GetParam();
  const WeightedGraph g = random_instance(seed ^ 0x777);
  const congest::BfsTreeResult bfs = congest::build_bfs_tree(g, 0);
  const DistributedMstResult mst = build_distributed_mst(g, 0);
  const EulerTourResult tour = build_euler_tour(g, mst, bfs);
  EXPECT_NEAR(tour.total_length, 2.0 * mst_weight(g), 1e-6);
  const ReferenceTour ref = reference_euler_tour(mst.tree);
  EXPECT_EQ(tour.sequence, ref.sequence) << "seed " << seed;
}

TEST_P(PropertySeed, LeListsMatchReferenceOnRandomInstances) {
  const std::uint64_t seed = GetParam();
  const WeightedGraph g = random_instance(seed ^ 0x999);
  Rng rng(seed);
  std::vector<std::uint64_t> rank(
      static_cast<size_t>(g.num_vertices()));
  std::vector<VertexId> active;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    rank[static_cast<size_t>(v)] =
        (rng.next() << 20) | static_cast<std::uint64_t>(v);
    if (rng.next_bernoulli(0.7)) active.push_back(v);
  }
  if (active.empty()) active.push_back(0);
  const LeListsResult got = compute_le_lists(g, active, rank, 0.0);
  const LeListsResult want = reference_le_lists(g, active, rank, 0.0);
  ASSERT_EQ(got.lists.size(), want.lists.size());
  for (size_t v = 0; v < got.lists.size(); ++v) {
    ASSERT_EQ(got.lists[v].size(), want.lists[v].size())
        << "seed " << seed << " vertex " << v;
    for (size_t j = 0; j < got.lists[v].size(); ++j) {
      EXPECT_EQ(got.lists[v][j].source, want.lists[v][j].source);
      EXPECT_NEAR(got.lists[v][j].dist, want.lists[v][j].dist, 1e-9);
    }
  }
}

// The Table 1 rows the cases above leave out, run through the registry:
// each exact metric against the bound_* its own artifact emits. A missing
// metric or bound reads NaN, which fails every comparison.
TEST_P(PropertySeed, RegistryRowsMeetTheirEmittedBounds) {
  const std::uint64_t seed = GetParam();
  const WeightedGraph g = random_instance(seed ^ 0x7AB1E1);
  const api::RunContext ctx = api::RunContext{}.with_seed(seed);
  constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();
  constexpr double kSlack = 1e-9;  // relative, for FP rounding only
  const auto run = [&](const char* name, const api::ConstructionParams& p) {
    const api::Construction* c = api::find_construction(name);
    api::Artifact a = c->run(g, p, ctx);
    api::QualityReport q = api::evaluate_artifact(g, c->kind(), a);
    return std::pair{std::move(a), std::move(q)};
  };
  const auto bound = [&](const api::Artifact& a, const char* key) {
    return api::diagnostic_or(a.diagnostics, key, kMissing);
  };
  for (const int k : {2, 3}) {
    api::ConstructionParams p;
    p.k = k;
    const auto [a, q] = run("baswana_sen", p);
    EXPECT_LE(q.value_or("stretch", kMissing),
              bound(a, "bound_stretch") * (1.0 + kSlack))
        << "baswana_sen k " << k << ", seed " << seed;
  }
  // elkin_neiman ignores weights, so its bound is on hops: every graph
  // edge's endpoints are joined in the artifact within bound_hop_stretch
  // hops (BFS from every vertex; an unreached endpoint reads -1 and fails).
  for (const int k : {2, 3}) {
    api::ConstructionParams p;
    p.k = k;
    const api::Artifact a =
        api::find_construction("elkin_neiman")->run(g, p, ctx);
    const WeightedGraph h = g.edge_subgraph(a.edges);
    int max_hops = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const std::vector<int> hops = bfs_hops(h, u);
      for (const Incidence& inc : g.incident(u)) {
        const int d = hops[static_cast<size_t>(inc.neighbor)];
        max_hops = std::max(max_hops, d < 0 ? g.num_vertices() : d);
      }
    }
    EXPECT_LE(max_hops, bound(a, "bound_hop_stretch"))
        << "elkin_neiman k " << k << ", seed " << seed;
  }
  for (const double gamma : {0.1, 0.3}) {
    api::ConstructionParams p;
    p.gamma = gamma;
    const auto [a, q] = run("slt_light", p);
    EXPECT_LE(q.value_or("root_stretch", kMissing),
              bound(a, "bound_root_stretch") * (1.0 + kSlack))
        << "slt_light gamma " << gamma << ", seed " << seed;
    EXPECT_LE(q.value_or("lightness", kMissing),
              bound(a, "bound_lightness") * (1.0 + kSlack))
        << "slt_light gamma " << gamma << ", seed " << seed;
  }
  for (const double delta : {0.25, 0.5}) {
    api::ConstructionParams p;
    p.delta = delta;
    const auto [a, q] = run("mst_weight_estimate", p);
    const double ratio = q.value_or("ratio", kMissing);
    EXPECT_GE(ratio, bound(a, "bound_ratio_lower") * (1.0 - kSlack))
        << "mst_weight_estimate delta " << delta << ", seed " << seed;
    EXPECT_LE(ratio, bound(a, "bound_ratio_upper") * (1.0 + kSlack))
        << "mst_weight_estimate delta " << delta << ", seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeed,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Failure injection: every public entry point must reject broken
// inputs loudly instead of producing garbage.

TEST(FailureInjection, DisconnectedGraphsAreRejected) {
  const WeightedGraph g =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_THROW(build_slt(g, 0, 0.5), std::invalid_argument);
  LightSpannerParams params;
  EXPECT_ANY_THROW(build_light_spanner(g, params, {}));
  EXPECT_THROW(mst_weight(g), std::invalid_argument);
}

TEST(FailureInjection, EmptyAndSingletonGraphs) {
  const WeightedGraph lone = path_graph(1, WeightLaw::kUnit, 1.0, 1);
  LightSpannerParams params;
  const LightSpannerResult r = build_light_spanner(lone, params, {});
  EXPECT_TRUE(r.spanner.empty());
  NetParams np;
  np.radius = 1.0;
  const NetResult net = build_net(lone, np, {});
  EXPECT_EQ(net.net.size(), 1u);
}

TEST(FailureInjection, TwoVertexGraph) {
  const WeightedGraph g = path_graph(2, WeightLaw::kUnit, 1.0, 1);
  const SltResult slt = build_slt(g, 0, 0.5);
  EXPECT_EQ(slt.tree_edges.size(), 1u);
  LightSpannerParams params;
  params.k = 2;
  const LightSpannerResult sp = build_light_spanner(g, params, {});
  EXPECT_EQ(sp.spanner.size(), 1u);
}

// ---- Congestion certificates: every kernel-using construction must be
// strict-CONGEST legal end to end.

TEST(CongestionCertificate, AllConstructionsReportUnitEdgeLoad) {
  const WeightedGraph g =
      erdos_renyi(48, 0.15, WeightLaw::kHeavyTail, 100.0, 5);
  LightSpannerParams params;
  params.k = 2;
  const LightSpannerResult sp = build_light_spanner(g, params, {});
  EXPECT_LE(sp.ledger.total().max_edge_load, 1u);
  const SltResult slt = build_slt(g, 0, 0.25);
  EXPECT_LE(slt.ledger.total().max_edge_load, 1u);
  NetParams np;
  np.radius = 5.0;
  np.delta = 0.5;
  const NetResult net = build_net(g, np, {});
  EXPECT_LE(net.ledger.total().max_edge_load, 1u);
}

// ---- Monotonicity/shape properties across a parameter sweep.

TEST(ShapeProperty, SpannerRoundsGrowSublinearly) {
  std::uint64_t rounds_small = 0, rounds_large = 0;
  for (int n : {128, 512}) {
    const WeightedGraph g =
        erdos_renyi(n, 8.0 / n, WeightLaw::kHeavyTail, 300.0, 11);
    LightSpannerParams params;
    params.k = 2;
    const LightSpannerResult r = build_light_spanner(g, params, {});
    (n == 128 ? rounds_small : rounds_large) = r.ledger.total().rounds;
  }
  // ×4 vertices must cost far less than ×4 rounds (Theorem 2's headline).
  EXPECT_LT(static_cast<double>(rounds_large),
            3.0 * static_cast<double>(rounds_small));
}

TEST(ShapeProperty, NetIterationsStayLogarithmicAcrossSeeds) {
  const WeightedGraph g =
      erdos_renyi(96, 0.1, WeightLaw::kUniform, 20.0, 13);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    NetParams params;
    params.radius = 3.0;
    params.delta = 0.5;
    const api::RunContext ctx = api::RunContext{}.with_seed(seed);
    const NetResult r = build_net(g, params, ctx);
    EXPECT_LE(r.iterations, 3 * static_cast<int>(std::log2(96.0)) + 3)
        << "seed " << seed;
  }
}

TEST(ShapeProperty, SltBreakPointCountScalesWithInverseEpsilon) {
  const WeightedGraph g = ring_with_chords(96, 32, 18.0, 17);
  const SltResult tight = build_slt(g, 0, 0.05);
  const SltResult loose = build_slt(g, 0, 1.0);
  EXPECT_GE(tight.diag.bp1_count + tight.diag.bp2_count,
            loose.diag.bp1_count + loose.diag.bp2_count);
}

}  // namespace
}  // namespace lightnet

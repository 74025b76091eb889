#include "core/light_spanner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/metrics.h"
#include "graph/mst.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

class LightSpannerKTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(LightSpannerKTest, StretchGuaranteeOnZoo) {
  const auto [k, seed] = GetParam();
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    LightSpannerParams params;
    params.k = k;
    params.epsilon = 0.25;
    const api::RunContext ctx = api::RunContext{}.with_seed(seed);
    const LightSpannerResult r = build_light_spanner(g, params, ctx);
    const double stretch = max_edge_stretch(g, r.spanner);
    // Theorem 2: (2k-1)(1+O(ε)); the proof's chain constant is small.
    EXPECT_LE(stretch, (2.0 * k - 1.0) * (1.0 + 6.0 * params.epsilon) + 1e-6)
        << name << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LightSpannerKTest,
    ::testing::Combine(::testing::Values(2, 3), ::testing::Values(1u, 9u)));

TEST(LightSpanner, LightnessBoundOnMedium) {
  for (const auto& [name, g] : testing::medium_graph_zoo()) {
    LightSpannerParams params;
    params.k = 2;
    params.epsilon = 0.25;
    const api::RunContext ctx = api::RunContext{}.with_seed(7);
    const LightSpannerResult r = build_light_spanner(g, params, ctx);
    const double light = lightness(g, r.spanner);
    // O(k·n^{1/k}) with a generous constant.
    const double bound =
        20.0 * params.k *
        std::pow(static_cast<double>(g.num_vertices()),
                 1.0 / params.k);
    EXPECT_LE(light, bound) << name << " lightness " << light;
  }
}

TEST(LightSpanner, SizeBoundOnMedium) {
  for (const auto& [name, g] : testing::medium_graph_zoo()) {
    LightSpannerParams params;
    params.k = 2;
    params.epsilon = 0.25;
    const api::RunContext ctx = api::RunContext{}.with_seed(8);
    const LightSpannerResult r = build_light_spanner(g, params, ctx);
    const double bound =
        20.0 * params.k *
        std::pow(static_cast<double>(g.num_vertices()),
                 1.0 + 1.0 / params.k);
    EXPECT_LE(static_cast<double>(r.spanner.size()), bound) << name;
  }
}

TEST(LightSpanner, ContainsTheMst) {
  const WeightedGraph g = erdos_renyi(48, 0.15, WeightLaw::kUniform, 40.0, 3);
  LightSpannerParams params;
  params.k = 3;
  const LightSpannerResult r = build_light_spanner(g, params, {});
  const auto mst = kruskal_mst(g);
  for (EdgeId id : mst)
    EXPECT_TRUE(std::binary_search(r.spanner.begin(), r.spanner.end(), id))
        << "MST edge " << id << " missing";
}

TEST(LightSpanner, SpannerIsConnected) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    LightSpannerParams params;
    params.k = 2;
    const LightSpannerResult r = build_light_spanner(g, params, {});
    EXPECT_TRUE(g.edge_subgraph(r.spanner).is_connected()) << name;
  }
}

TEST(LightSpanner, Case1ClusterCountRespectsBound) {
  const WeightedGraph g = erdos_renyi(64, 0.12, WeightLaw::kHeavyTail,
                                      500.0, 4);
  LightSpannerParams params;
  params.k = 2;
  params.epsilon = 0.25;
  const LightSpannerResult r = build_light_spanner(g, params, {});
  const double cap =
      std::pow(64.0, 2.0 / 5.0) / params.epsilon + 2.0;  // n^{k/(2k+1)}/ε
  for (const BucketDiagnostics& b : r.buckets) {
    if (b.case1)
      EXPECT_LE(static_cast<double>(b.num_clusters), cap)
          << "bucket " << b.index;
  }
}

TEST(LightSpanner, Case2IntervalHopsRespectBound) {
  const WeightedGraph g = erdos_renyi(64, 0.12, WeightLaw::kUniform, 60.0, 5);
  LightSpannerParams params;
  params.k = 2;
  params.epsilon = 0.25;
  const LightSpannerResult r = build_light_spanner(g, params, {});
  for (const BucketDiagnostics& b : r.buckets) {
    if (!b.case1 && b.max_interval_hops > 0) {
      const double gap = std::ceil(params.epsilon * 64.0 /
                                   std::pow(1.0 + params.epsilon, b.index));
      EXPECT_LE(static_cast<double>(b.max_interval_hops),
                std::max(gap, 1.0))
          << "bucket " << b.index;
    }
  }
}

TEST(LightSpanner, DeterministicPerSeed) {
  const WeightedGraph g = erdos_renyi(40, 0.15, WeightLaw::kUniform, 30.0, 6);
  LightSpannerParams params;
  params.k = 2;
  const api::RunContext ctx = api::RunContext{}.with_seed(123);
  const LightSpannerResult a = build_light_spanner(g, params, ctx);
  const LightSpannerResult b = build_light_spanner(g, params, ctx);
  EXPECT_EQ(a.spanner, b.spanner);
}

TEST(LightSpanner, HeavyTailWeightsExerciseManyBuckets) {
  const WeightedGraph g =
      erdos_renyi(64, 0.15, WeightLaw::kHeavyTail, 1000.0, 7);
  LightSpannerParams params;
  params.k = 2;
  const LightSpannerResult r = build_light_spanner(g, params, {});
  EXPECT_GE(r.buckets.size(), 2u);
  const double stretch = max_edge_stretch(g, r.spanner);
  EXPECT_LE(stretch, 3.0 * (1.0 + 6.0 * params.epsilon) + 1e-6);
}

TEST(LightSpanner, TreeInputReturnsJustTheTree) {
  const WeightedGraph g = random_tree(25, WeightLaw::kUniform, 9.0, 8);
  LightSpannerParams params;
  params.k = 2;
  const LightSpannerResult r = build_light_spanner(g, params, {});
  EXPECT_EQ(r.spanner.size(), 24u);
  EXPECT_NEAR(lightness(g, r.spanner), 1.0, 1e-9);
}

TEST(LightSpanner, KOneStillWorks) {
  // k=1 means stretch (1)(1+O(ε)) — spanner keeps nearly all edges.
  const WeightedGraph g = erdos_renyi(20, 0.3, WeightLaw::kUniform, 9.0, 9);
  LightSpannerParams params;
  params.k = 1;
  params.epsilon = 0.1;
  const LightSpannerResult r = build_light_spanner(g, params, {});
  EXPECT_LE(max_edge_stretch(g, r.spanner), 1.0 + 6.0 * 0.1 + 1e-6);
}

TEST(LightSpanner, LedgerHasKernelPhases) {
  const WeightedGraph g =
      erdos_renyi(48, 0.15, WeightLaw::kHeavyTail, 200.0, 10);
  LightSpannerParams params;
  params.k = 2;
  const LightSpannerResult r = build_light_spanner(g, params, {});
  bool saw_aggregate = false, saw_bfs = false, saw_mst = false;
  for (const auto& [phase, cost] : r.ledger.phases()) {
    if (phase.find("en-aggregate") != std::string::npos) saw_aggregate = true;
    if (phase == "bfs-tree") saw_bfs = true;
    if (phase.rfind("mst/", 0) == 0) saw_mst = true;
  }
  EXPECT_TRUE(saw_bfs);
  EXPECT_TRUE(saw_mst);
  // Heavy-tail weights put some bucket in case 1 (few clusters).
  EXPECT_TRUE(saw_aggregate);
}

TEST(LightSpanner, RejectsBadParameters) {
  const WeightedGraph g = path_graph(4, WeightLaw::kUnit, 1.0, 1);
  LightSpannerParams params;
  params.k = 0;
  EXPECT_THROW(build_light_spanner(g, params, {}), std::invalid_argument);
  params.k = 2;
  params.epsilon = 0.0;
  EXPECT_THROW(build_light_spanner(g, params, {}), std::invalid_argument);
}

}  // namespace
}  // namespace lightnet

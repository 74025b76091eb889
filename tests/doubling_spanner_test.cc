#include "core/doubling_spanner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/metrics.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

class DoublingEpsilonTest : public ::testing::TestWithParam<double> {};

TEST_P(DoublingEpsilonTest, StretchOnGeometricGraphs) {
  const double eps = GetParam();
  const GeometricGraph geo = random_geometric(40, 0.35, 3);
  DoublingSpannerParams params;
  params.epsilon = eps;
  const api::RunContext ctx = api::RunContext{}.with_seed(11);
  const DoublingSpannerResult r =
      build_doubling_spanner(geo.graph, params, ctx);
  ASSERT_FALSE(r.spanner.empty());
  EXPECT_TRUE(geo.graph.edge_subgraph(r.spanner).is_connected());
  const double stretch = max_edge_stretch(geo.graph, r.spanner);
  // §7.2: stretch 1 + c·ε with c = 30 for ε < 1/8; rescaled above that.
  EXPECT_LE(stretch, 1.0 + 30.0 * eps + 1e-6) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Epsilons, DoublingEpsilonTest,
                         ::testing::Values(0.125, 0.25));

TEST(DoublingSpanner, TightEpsilonNearOptimalStretch) {
  const GeometricGraph geo = random_geometric(32, 0.4, 4);
  DoublingSpannerParams params;
  params.epsilon = 0.06;
  const DoublingSpannerResult r = build_doubling_spanner(geo.graph, params, {});
  EXPECT_LE(max_edge_stretch(geo.graph, r.spanner), 1.0 + 30.0 * 0.06);
}

TEST(DoublingSpanner, LightnessIsModestOnDoublingInputs) {
  const GeometricGraph geo = random_geometric(48, 0.35, 5);
  DoublingSpannerParams params;
  params.epsilon = 0.125;
  const DoublingSpannerResult r = build_doubling_spanner(geo.graph, params, {});
  // ε^{-O(ddim)}·log n with ddim ≈ 2: generous numeric cap, far below the
  // dense graph's total lightness.
  const double light = lightness(geo.graph, r.spanner);
  EXPECT_LE(light, 400.0);
  EXPECT_GE(light, 1.0 - 1e-9);
}

TEST(DoublingSpanner, ScaleDiagnosticsAreSane) {
  const GeometricGraph geo = random_geometric(36, 0.4, 6);
  DoublingSpannerParams params;
  params.epsilon = 0.25;
  const DoublingSpannerResult r = build_doubling_spanner(geo.graph, params, {});
  ASSERT_FALSE(r.scales.empty());
  for (size_t i = 0; i + 1 < r.scales.size(); ++i) {
    EXPECT_LT(r.scales[i].scale, r.scales[i + 1].scale);
    // Net sizes shrink (weakly) as the scale grows.
  }
  // Nets shrink as scales grow; the top scale is nearly a single point
  // (the net radius is ε·Δ/3, so exact singletons are not guaranteed).
  EXPECT_LE(r.scales.back().net_size, 4u);
  EXPECT_GE(r.scales.front().net_size, r.scales.back().net_size);
  // Packing certificate: no vertex participates in too many explorations.
  for (const ScaleDiagnostics& s : r.scales)
    EXPECT_LE(s.max_sources_per_vertex, 64u) << "scale " << s.scale;
}

TEST(DoublingSpanner, SparsityPerVertexBounded) {
  const GeometricGraph geo = random_geometric(48, 0.35, 7);
  DoublingSpannerParams params;
  params.epsilon = 0.25;
  const DoublingSpannerResult r = build_doubling_spanner(geo.graph, params, {});
  // n·ε^{-O(ddim)}·log n total edges; per-vertex average stays small.
  EXPECT_LE(r.spanner.size(),
            static_cast<size_t>(48.0 * 64.0 * std::log2(48.0)));
}

TEST(DoublingSpanner, WorksOnGridsToo) {
  // Grids have ddim ≈ 2 as well.
  const WeightedGraph g = grid(6, 6, /*perturb=*/true, 9);
  DoublingSpannerParams params;
  params.epsilon = 0.125;
  const DoublingSpannerResult r = build_doubling_spanner(g, params, {});
  EXPECT_TRUE(g.edge_subgraph(r.spanner).is_connected());
  EXPECT_LE(max_edge_stretch(g, r.spanner), 1.0 + 30.0 * 0.125 + 1e-6);
}

TEST(DoublingSpanner, DeterministicPerSeed) {
  const GeometricGraph geo = random_geometric(24, 0.4, 10);
  DoublingSpannerParams params;
  params.epsilon = 0.25;
  const api::RunContext ctx = api::RunContext{}.with_seed(77);
  const DoublingSpannerResult a =
      build_doubling_spanner(geo.graph, params, ctx);
  const DoublingSpannerResult b =
      build_doubling_spanner(geo.graph, params, ctx);
  EXPECT_EQ(a.spanner, b.spanner);
}

TEST(DoublingSpanner, RejectsBadEpsilon) {
  const WeightedGraph g = path_graph(4, WeightLaw::kUnit, 1.0, 1);
  DoublingSpannerParams params;
  params.epsilon = 0.0;
  EXPECT_THROW(build_doubling_spanner(g, params, {}), std::invalid_argument);
  params.epsilon = 1.0;
  EXPECT_THROW(build_doubling_spanner(g, params, {}), std::invalid_argument);
  // The hopset mode was removed; its flag survives only in the schema.
  params.epsilon = 0.25;
  params.use_hopset = true;
  EXPECT_THROW(build_doubling_spanner(g, params, {}), std::invalid_argument);
}

}  // namespace
}  // namespace lightnet

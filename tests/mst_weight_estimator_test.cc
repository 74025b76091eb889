#include "core/mst_weight_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

TEST(MstEstimator, RatioWithinTheoremSevenBand) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const MstEstimateResult r =
        estimate_mst_weight(g, 0.5, api::RunContext{}.with_seed(3));
    // Theorem 7: L ≤ Ψ ≤ O(α·log n)·L.
    EXPECT_GE(r.ratio, 1.0 - 1e-9) << name;
    const double n = static_cast<double>(g.num_vertices());
    EXPECT_LE(r.ratio, 16.0 * r.alpha * std::log2(n + 2.0)) << name;
  }
}

TEST(MstEstimator, ScalesAreGeometric) {
  const WeightedGraph g = grid(5, 5, /*perturb=*/true, 4);
  const MstEstimateResult r =
      estimate_mst_weight(g, 0.5, api::RunContext{}.with_seed(5));
  ASSERT_GE(r.scales.size(), 2u);
  for (size_t i = 0; i + 1 < r.scales.size(); ++i) {
    EXPECT_NEAR(r.scales[i + 1].scale / r.scales[i].scale, 2.0, 1e-9);
    EXPECT_GE(r.scales[i].net_size, r.scales[i + 1].net_size);
  }
  EXPECT_EQ(r.scales.back().net_size, 1u);
  EXPECT_EQ(r.scales.front().net_size,
            static_cast<size_t>(g.num_vertices()));
}

TEST(MstEstimator, ExactValueMatchesKruskal) {
  const WeightedGraph g = erdos_renyi(24, 0.25, WeightLaw::kUniform, 9.0, 6);
  const MstEstimateResult r =
      estimate_mst_weight(g, 0.25, api::RunContext{}.with_seed(7));
  EXPECT_GT(r.exact, 0.0);
  EXPECT_GE(r.psi, r.exact - 1e-9);
}

TEST(MstEstimator, WorksOnLowerBoundFamily) {
  const WeightedGraph g = lower_bound_family(4, 4, 8.0, 8);
  const MstEstimateResult r =
      estimate_mst_weight(g, 0.5, api::RunContext{}.with_seed(9));
  EXPECT_GE(r.ratio, 1.0 - 1e-9);
  EXPECT_LE(r.ratio,
            16.0 * r.alpha * std::log2(g.num_vertices() + 2.0));
}

TEST(MstEstimator, DeterministicPerSeed) {
  const WeightedGraph g = grid(4, 4, /*perturb=*/true, 10);
  const MstEstimateResult a =
      estimate_mst_weight(g, 0.5, api::RunContext{}.with_seed(42));
  const MstEstimateResult b =
      estimate_mst_weight(g, 0.5, api::RunContext{}.with_seed(42));
  EXPECT_DOUBLE_EQ(a.psi, b.psi);
}

TEST(MstEstimator, ExactDistanceModeAlsoValid) {
  const WeightedGraph g = ring_with_chords(20, 5, 6.0, 11);
  const MstEstimateResult r =
      estimate_mst_weight(g, 0.0, api::RunContext{}.with_seed(12));
  EXPECT_GE(r.ratio, 1.0 - 1e-9);
  EXPECT_DOUBLE_EQ(r.alpha, 1.0);
}

}  // namespace
}  // namespace lightnet

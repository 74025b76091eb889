#include "core/nets.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/metrics.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

class NetSweepTest : public ::testing::TestWithParam<
                         std::tuple<double, double, std::uint64_t>> {};

TEST_P(NetSweepTest, CoveringAndSeparationOnZoo) {
  const auto [radius_frac, delta, seed] = GetParam();
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    // Radius as a fraction of the graph's weight scale.
    const Weight radius =
        std::max(g.min_edge_weight(), radius_frac * g.max_edge_weight());
    NetParams params;
    params.radius = radius;
    params.delta = delta;
    const api::RunContext ctx = api::RunContext{}.with_seed(seed);
    const NetResult r = build_net(g, params, ctx);
    ASSERT_FALSE(r.net.empty()) << name;
    // Theorem 3: ((1+δ)Δ)-covering and Δ/(1+δ)-separated.
    const NetCheck check =
        check_net(g, r.net, (1.0 + delta) * radius, radius / (1.0 + delta));
    EXPECT_TRUE(check.covering)
        << name << " worst cover " << check.worst_cover_distance
        << " allowed " << (1.0 + delta) * radius;
    EXPECT_TRUE(check.separated)
        << name << " min pair " << check.min_pair_distance << " needed "
        << radius / (1.0 + delta);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetSweepTest,
    ::testing::Combine(::testing::Values(0.1, 0.5, 2.0),
                       ::testing::Values(0.0, 0.1, 0.5),
                       ::testing::Values(1u, 17u)));

TEST(Net, IterationsAreLogarithmic) {
  const WeightedGraph g = erdos_renyi(128, 0.06, WeightLaw::kUniform, 9.0, 3);
  NetParams params;
  params.radius = 3.0;
  params.delta = 0.25;
  const api::RunContext ctx = api::RunContext{}.with_seed(5);
  const NetResult r = build_net(g, params, ctx);
  EXPECT_LE(r.iterations, 4 * static_cast<int>(std::log2(128.0)) + 4);
  EXPECT_GE(r.iterations, 1);
}

TEST(Net, TinyRadiusYieldsAllVertices) {
  const WeightedGraph g = erdos_renyi(30, 0.2, WeightLaw::kUniform, 9.0, 4);
  NetParams params;
  params.radius = g.min_edge_weight() / 4.0;
  params.delta = 0.0;
  const NetResult r = build_net(g, params, {});
  EXPECT_EQ(r.net.size(), 30u);  // everything is >Δ apart
}

TEST(Net, HugeRadiusYieldsSinglePoint) {
  const WeightedGraph g = grid(5, 5, /*perturb=*/true, 5);
  NetParams params;
  params.radius = 1000.0;
  params.delta = 0.0;
  const NetResult r = build_net(g, params, {});
  EXPECT_EQ(r.net.size(), 1u);
}

TEST(Net, DeterministicPerSeed) {
  const WeightedGraph g = grid(6, 6, /*perturb=*/true, 6);
  NetParams params;
  params.radius = 2.0;
  params.delta = 0.5;
  const api::RunContext ctx = api::RunContext{}.with_seed(99);
  const NetResult a = build_net(g, params, ctx);
  const NetResult b = build_net(g, params, ctx);
  EXPECT_EQ(a.net, b.net);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Net, DifferentSeedsBothValid) {
  const WeightedGraph g = random_geometric(48, 0.3, 7).graph;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    NetParams params;
    params.radius = 0.2;
    params.delta = 0.5;
    const api::RunContext ctx = api::RunContext{}.with_seed(seed);
    const NetResult r = build_net(g, params, ctx);
    const NetCheck check =
        check_net(g, r.net, 1.5 * 0.2, 0.2 / 1.5);
    EXPECT_TRUE(check.covering && check.separated) << "seed " << seed;
  }
}

TEST(Net, LeListSizesStayLogarithmic) {
  const WeightedGraph g = erdos_renyi(100, 0.08, WeightLaw::kUniform, 9.0, 8);
  NetParams params;
  params.radius = 2.5;
  params.delta = 0.25;
  const NetResult r = build_net(g, params, {});
  EXPECT_LE(r.max_le_list_size,
            static_cast<size_t>(8.0 * std::log2(100.0)));
}

TEST(Net, LedgerRecordsPerIterationPhases) {
  const WeightedGraph g = grid(4, 4, /*perturb=*/true, 9);
  NetParams params;
  params.radius = 1.5;
  params.delta = 0.5;
  const NetResult r = build_net(g, params, {});
  int le_phases = 0, spt_phases = 0;
  for (const auto& [phase, cost] : r.ledger.phases()) {
    if (phase.find("le-lists") != std::string::npos) ++le_phases;
    if (phase.find("spt") != std::string::npos) ++spt_phases;
  }
  EXPECT_EQ(le_phases, r.iterations);
  EXPECT_EQ(spt_phases, r.iterations);
}

TEST(Net, RejectsBadParameters) {
  const WeightedGraph g = path_graph(4, WeightLaw::kUnit, 1.0, 1);
  NetParams params;
  params.radius = 0.0;
  EXPECT_THROW(build_net(g, params, {}), std::invalid_argument);
  params.radius = 1.0;
  params.delta = -0.5;
  EXPECT_THROW(build_net(g, params, {}), std::invalid_argument);
}

}  // namespace
}  // namespace lightnet

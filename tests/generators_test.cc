#include "graph/generators.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/metrics.h"
#include "graph/union_find.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

TEST(Generators, GeometricIsConnectedAndMetric) {
  const GeometricGraph geo = random_geometric(64, 0.2, 7);
  EXPECT_TRUE(geo.graph.is_connected());
  EXPECT_EQ(geo.graph.num_vertices(), 64);
  // Edge weights equal the Euclidean point distances.
  for (const Edge& e : geo.graph.edges()) {
    const double dx = geo.x[static_cast<size_t>(e.u)] -
                      geo.x[static_cast<size_t>(e.v)];
    const double dy = geo.y[static_cast<size_t>(e.u)] -
                      geo.y[static_cast<size_t>(e.v)];
    EXPECT_NEAR(e.w, std::sqrt(dx * dx + dy * dy), 1e-8);
  }
}

TEST(Generators, GeometricIsDeterministicPerSeed) {
  const GeometricGraph a = random_geometric(32, 0.3, 42);
  const GeometricGraph b = random_geometric(32, 0.3, 42);
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (EdgeId i = 0; i < a.graph.num_edges(); ++i) {
    EXPECT_EQ(a.graph.edge(i).u, b.graph.edge(i).u);
    EXPECT_EQ(a.graph.edge(i).v, b.graph.edge(i).v);
    EXPECT_DOUBLE_EQ(a.graph.edge(i).w, b.graph.edge(i).w);
  }
}

// The oracle: every pair of points within the radius, then Prim's Euclidean
// MST over all points, whose edges join unless the pair is already there;
// edges keyed and ordered by (larger, smaller) endpoint. O(n^2).
struct PairScan {
  std::vector<Edge> edges;
  bool radius_graph_connected = false;
};

double euclid(double ax, double ay, double bx, double by) {
  const double dx = ax - bx, dy = ay - by;
  return std::sqrt(dx * dx + dy * dy);
}

PairScan pair_scan_geometric(const std::vector<double>& x,
                             const std::vector<double>& y, double radius) {
  const int n = static_cast<int>(x.size());
  const auto key = [](VertexId a, VertexId b) {
    return (static_cast<std::uint64_t>(std::max(a, b)) << 32) |
           static_cast<std::uint64_t>(std::min(a, b));
  };
  std::map<std::uint64_t, Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      const double d = euclid(x[static_cast<size_t>(u)],
                              y[static_cast<size_t>(u)],
                              x[static_cast<size_t>(v)],
                              y[static_cast<size_t>(v)]);
      if (d <= radius && d > 0.0) edges[key(u, v)] = {u, v, d};
    }
  }
  PairScan out;
  UnionFind radius_components(n);
  for (const auto& [k, e] : edges) radius_components.unite(e.u, e.v);
  out.radius_graph_connected = radius_components.num_components() == 1;

  std::vector<char> in_tree(static_cast<size_t>(n), 0);
  std::vector<double> best(static_cast<size_t>(n),
                           std::numeric_limits<double>::infinity());
  std::vector<VertexId> best_from(static_cast<size_t>(n), 0);
  in_tree[0] = 1;
  for (VertexId v = 1; v < n; ++v)
    best[static_cast<size_t>(v)] = euclid(x[0], y[0], x[static_cast<size_t>(v)],
                                          y[static_cast<size_t>(v)]);
  for (int step = 1; step < n; ++step) {
    VertexId pick = kNoVertex;
    double pick_dist = std::numeric_limits<double>::infinity();
    for (VertexId v = 0; v < n; ++v) {
      if (!in_tree[static_cast<size_t>(v)] &&
          best[static_cast<size_t>(v)] < pick_dist) {
        pick = v;
        pick_dist = best[static_cast<size_t>(v)];
      }
    }
    in_tree[static_cast<size_t>(pick)] = 1;
    const VertexId from = best_from[static_cast<size_t>(pick)];
    const double d = euclid(x[static_cast<size_t>(from)],
                            y[static_cast<size_t>(from)],
                            x[static_cast<size_t>(pick)],
                            y[static_cast<size_t>(pick)]);
    edges.try_emplace(key(from, pick), Edge{from, pick, std::max(d, 1e-9)});
    for (VertexId v = 0; v < n; ++v) {
      if (in_tree[static_cast<size_t>(v)]) continue;
      const double dv = euclid(x[static_cast<size_t>(pick)],
                               y[static_cast<size_t>(pick)],
                               x[static_cast<size_t>(v)],
                               y[static_cast<size_t>(v)]);
      if (dv < best[static_cast<size_t>(v)]) {
        best[static_cast<size_t>(v)] = dv;
        best_from[static_cast<size_t>(v)] = pick;
      }
    }
  }
  for (const auto& [k, e] : edges) out.edges.push_back(e);
  return out;
}

// Edge for edge, weights compared bit for bit.
void expect_same_edges(const WeightedGraph& g, const std::vector<Edge>& want,
                       const std::string& label) {
  ASSERT_EQ(g.num_edges(), static_cast<int>(want.size())) << label;
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    const Edge& got = g.edge(i);
    const Edge& w = want[static_cast<size_t>(i)];
    ASSERT_TRUE(got.u == w.u && got.v == w.v &&
                std::bit_cast<std::uint64_t>(got.w) ==
                    std::bit_cast<std::uint64_t>(w.w))
        << label << " edge " << i << ": got {" << got.u << "," << got.v
        << "," << got.w << "} want {" << w.u << "," << w.v << "," << w.w
        << "}";
  }
}

std::pair<std::vector<double>, std::vector<double>> draw_points(
    int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.next_double();
    y[i] = rng.next_double();
  }
  return {std::move(x), std::move(y)};
}

TEST(Generators, GeometricMatchesPairScanOracle) {
  for (int n : {2, 16, 100, 1024, 4096}) {
    const double radius = std::sqrt(10.0 / n);  // the geo scenario's default
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const std::string label =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      const GeometricGraph geo = random_geometric(n, radius, seed);
      const auto [x, y] = draw_points(n, seed);
      EXPECT_EQ(geo.x, x) << label;
      EXPECT_EQ(geo.y, y) << label;
      expect_same_edges(geo.graph, pair_scan_geometric(x, y, radius).edges,
                        label);
    }
  }
}

TEST(Generators, GeometricMatchesPairScanBelowConnectivity) {
  // A radius well below the connectivity threshold: the radius graph falls
  // apart and the Prim pass supplies the joining edges.
  for (int n : {16, 100, 1024}) {
    const double radius = 0.5 / std::sqrt(static_cast<double>(n));
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const std::string label =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      const auto [x, y] = draw_points(n, seed);
      const PairScan want = pair_scan_geometric(x, y, radius);
      EXPECT_FALSE(want.radius_graph_connected) << label;
      const GeometricGraph geo = random_geometric(n, radius, seed);
      expect_same_edges(geo.graph, want.edges, label);
      EXPECT_TRUE(geo.graph.is_connected()) << label;
    }
  }
}

TEST(Generators, GeometricJoinsCoincidentPoints) {
  // A connected radius graph whose coincident pairs have no radius edge
  // (distance 0): the Prim pass must still run and join them at 1e-9.
  auto [x, y] = draw_points(100, 3);
  for (auto [dup, orig] : {std::pair{50, 10}, std::pair{99, 3},
                           std::pair{7, 3}}) {
    x[static_cast<size_t>(dup)] = x[static_cast<size_t>(orig)];
    y[static_cast<size_t>(dup)] = y[static_cast<size_t>(orig)];
  }
  const double radius = std::sqrt(10.0 / 100);
  const PairScan want = pair_scan_geometric(x, y, radius);
  const GeometricGraph geo = geometric_graph(x, y, radius);
  expect_same_edges(geo.graph, want.edges, "coincident");
  int joined = 0;
  for (const Edge& e : geo.graph.edges()) joined += e.w == 1e-9;
  EXPECT_EQ(joined, 3);
  EXPECT_TRUE(geo.graph.is_connected());

  const std::vector<double> same(3, 0.25);
  expect_same_edges(geometric_graph(same, same, 0.5).graph,
                    pair_scan_geometric(same, same, 0.5).edges, "all equal");
}

TEST(Generators, GeometricMatchesPairScanOnCellBoundaries) {
  // Points on a lattice of pitch exactly the radius (pairs at the radius,
  // points on cell edges and on the square's far side), and a radius wider
  // than the square (one cell, every pair an edge).
  for (double radius : {0.1, 0.125, 0.25, 1.0 / 3.0}) {
    std::vector<double> x, y;
    for (int i = 0; i * radius <= 1.0; ++i) {
      for (int j = 0; j * radius <= 1.0; ++j) {
        x.push_back(i * radius);
        y.push_back(j * radius);
      }
    }
    expect_same_edges(geometric_graph(x, y, radius).graph,
                      pair_scan_geometric(x, y, radius).edges,
                      "lattice r=" + std::to_string(radius));
  }
  const auto [x, y] = draw_points(64, 5);
  expect_same_edges(geometric_graph(x, y, 1.5).graph,
                    pair_scan_geometric(x, y, 1.5).edges, "r=1.5");
  EXPECT_EQ(geometric_graph(x, y, 1.5).graph.num_edges(), 64 * 63 / 2);
}

TEST(Generators, GeometricRejectsPointsOutsideTheSquare) {
  EXPECT_THROW(geometric_graph({0.5, 1.5}, {0.5, 0.5}, 0.1),
               std::invalid_argument);
  EXPECT_THROW(geometric_graph({0.5, 0.5}, {0.5}, 0.1), std::invalid_argument);
}

TEST(Generators, GeometricHasLowDoublingDimension) {
  const GeometricGraph geo = random_geometric(96, 0.25, 9);
  const double ddim = estimate_doubling_dimension(geo.graph, 4, 1);
  EXPECT_LE(ddim, 6.0);  // planar-ish point sets sit well below log n
}

TEST(Generators, ErdosRenyiConnectedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WeightedGraph g =
        erdos_renyi(40, 0.1, WeightLaw::kUniform, 10.0, seed);
    EXPECT_TRUE(g.is_connected()) << "seed " << seed;
    EXPECT_GE(g.num_edges(), 39);
  }
}

TEST(Generators, ErdosRenyiDensityGrowsWithP) {
  const WeightedGraph sparse =
      erdos_renyi(60, 0.02, WeightLaw::kUnit, 1.0, 3);
  const WeightedGraph dense = erdos_renyi(60, 0.5, WeightLaw::kUnit, 1.0, 3);
  EXPECT_LT(sparse.num_edges(), dense.num_edges());
}

TEST(Generators, WeightLawsRespectBounds) {
  for (WeightLaw law : {WeightLaw::kUnit, WeightLaw::kUniform,
                        WeightLaw::kHeavyTail,
                        WeightLaw::kExponentialScales}) {
    const WeightedGraph g = erdos_renyi(30, 0.2, law, 64.0, 5);
    for (const Edge& e : g.edges()) {
      EXPECT_GE(e.w, 1.0 - 1e-9);
      EXPECT_LE(e.w, 64.0 + 1e-9);
    }
  }
}

TEST(Generators, UnitLawIsAllOnes) {
  const WeightedGraph g = erdos_renyi(20, 0.3, WeightLaw::kUnit, 99.0, 6);
  for (const Edge& e : g.edges()) EXPECT_DOUBLE_EQ(e.w, 1.0);
}

TEST(Generators, RingWithChordsStructure) {
  const WeightedGraph g = ring_with_chords(30, 10, 25.0, 4);
  EXPECT_TRUE(g.is_connected());
  int ring_edges = 0, chords = 0;
  for (const Edge& e : g.edges()) {
    if (e.w == 1.0) ++ring_edges;
    if (e.w == 25.0) ++chords;
  }
  EXPECT_EQ(ring_edges, 30);
  EXPECT_EQ(chords, 10);
}

TEST(Generators, GridDimensions) {
  const WeightedGraph g = grid(4, 7, /*perturb=*/false, 1);
  EXPECT_EQ(g.num_vertices(), 28);
  EXPECT_EQ(g.num_edges(), 4 * 6 + 3 * 7);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, PerturbedGridHasUniqueWeights) {
  const WeightedGraph g = grid(5, 5, /*perturb=*/true, 2);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 1.0);
    EXPECT_LE(e.w, 1.001);
  }
}

TEST(Generators, RandomTreeIsATree) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const WeightedGraph g = random_tree(25, WeightLaw::kUniform, 9.0, seed);
    EXPECT_EQ(g.num_edges(), 24) << "seed " << seed;
    EXPECT_TRUE(g.is_connected()) << "seed " << seed;
  }
}

TEST(Generators, PathAndStarShapes) {
  const WeightedGraph p = path_graph(10, WeightLaw::kUnit, 1.0, 1);
  EXPECT_EQ(p.num_edges(), 9);
  EXPECT_EQ(p.hop_diameter(), 9);
  const WeightedGraph s = star_graph(10, WeightLaw::kUnit, 1.0, 1);
  EXPECT_EQ(s.num_edges(), 9);
  EXPECT_EQ(s.hop_diameter(), 2);
  EXPECT_EQ(s.degree(0), 9);
}

TEST(Generators, LowerBoundFamilyShape) {
  const WeightedGraph g = lower_bound_family(6, 8, 10.0, 1);
  EXPECT_TRUE(g.is_connected());
  // Hop diameter stays logarithmic-ish in the path length thanks to the
  // column tree.
  EXPECT_LE(g.hop_diameter(), 2 * 4 + 4);
  // Unit path edges exist.
  int unit_edges = 0;
  for (const Edge& e : g.edges())
    if (e.w == 1.0) ++unit_edges;
  EXPECT_EQ(unit_edges, 6 * 7);
}

TEST(Generators, CompleteEuclideanIsComplete) {
  const GeometricGraph geo = complete_euclidean(12, 3);
  EXPECT_EQ(geo.graph.num_edges(), 12 * 11 / 2);
  EXPECT_EQ(geo.graph.hop_diameter(), 1);
}

TEST(Generators, SingleVertexEdgeCases) {
  EXPECT_EQ(path_graph(1, WeightLaw::kUnit, 1.0, 1).num_edges(), 0);
  EXPECT_EQ(star_graph(1, WeightLaw::kUnit, 1.0, 1).num_edges(), 0);
  EXPECT_EQ(random_tree(1, WeightLaw::kUnit, 1.0, 1).num_edges(), 0);
  EXPECT_EQ(random_geometric(1, 0.5, 1).graph.num_edges(), 0);
}

}  // namespace
}  // namespace lightnet

// Shared fixtures for the lightnet test suite: a small zoo of named graph
// instances that parameterized suites sweep over, plus tolerance helpers.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "congest/stats.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace lightnet::testing {

struct NamedGraph {
  std::string name;
  WeightedGraph graph;
};

// Small connected instances covering the structural corners: paths, stars,
// trees (degenerate MST/Euler-tour cases), rings with heavy chords
// (lightness-adversarial), grids (large hop-diameter), geometric graphs
// (doubling), Erdős–Rényi at several weight laws, and the lower-bound
// family.
inline std::vector<NamedGraph> small_graph_zoo() {
  std::vector<NamedGraph> zoo;
  zoo.push_back({"path16", path_graph(16, WeightLaw::kUniform, 10.0, 11)});
  zoo.push_back({"star17", star_graph(17, WeightLaw::kUniform, 10.0, 12)});
  zoo.push_back({"tree24", random_tree(24, WeightLaw::kUniform, 50.0, 13)});
  zoo.push_back({"ring24", ring_with_chords(24, 8, 7.5, 14)});
  zoo.push_back({"grid5x5", grid(5, 5, /*perturb=*/true, 15)});
  zoo.push_back({"geo32", random_geometric(32, 0.35, 16).graph});
  zoo.push_back(
      {"er24_uniform", erdos_renyi(24, 0.25, WeightLaw::kUniform, 20.0, 17)});
  zoo.push_back(
      {"er24_heavy", erdos_renyi(24, 0.25, WeightLaw::kHeavyTail, 100.0, 18)});
  zoo.push_back({"er20_scales",
                 erdos_renyi(20, 0.3, WeightLaw::kExponentialScales, 64.0,
                             19)});
  zoo.push_back({"lb4x4", lower_bound_family(4, 4, 5.0, 20)});
  return zoo;
}

// Medium instances for the heavier end-to-end suites.
inline std::vector<NamedGraph> medium_graph_zoo() {
  std::vector<NamedGraph> zoo;
  zoo.push_back({"er64", erdos_renyi(64, 0.12, WeightLaw::kUniform, 50.0,
                                     101)});
  zoo.push_back({"geo64", random_geometric(64, 0.25, 102).graph});
  zoo.push_back({"ring64", ring_with_chords(64, 20, 15.0, 103)});
  zoo.push_back({"grid8x8", grid(8, 8, /*perturb=*/true, 104)});
  zoo.push_back({"er64_heavy",
                 erdos_renyi(64, 0.12, WeightLaw::kHeavyTail, 500.0, 105)});
  return zoo;
}

// The model-level costs (not the simulator instrumentation) must agree
// between scheduling modes and thread counts, per channel too.
inline void expect_same_model_cost(const congest::CostStats& a,
                                   const congest::CostStats& b,
                                   const std::string& context) {
  EXPECT_EQ(a.rounds, b.rounds) << context;
  EXPECT_EQ(a.messages, b.messages) << context;
  EXPECT_EQ(a.words, b.words) << context;
  EXPECT_EQ(a.max_edge_load, b.max_edge_load) << context;
  ASSERT_EQ(a.per_channel.size(), b.per_channel.size()) << context;
  for (size_t ch = 0; ch < a.per_channel.size(); ++ch) {
    const std::string where = context + " channel " + std::to_string(ch);
    EXPECT_EQ(a.per_channel[ch].messages, b.per_channel[ch].messages) << where;
    EXPECT_EQ(a.per_channel[ch].words, b.per_channel[ch].words) << where;
    EXPECT_EQ(a.per_channel[ch].max_edge_load, b.per_channel[ch].max_edge_load)
        << where;
  }
}

inline constexpr double kTol = 1e-9;

// Relative slack for guarantee checks: proofs give exact constants but we
// allow floating-point headroom.
inline bool leq_with_slack(double value, double bound,
                           double slack = 1e-6) {
  return value <= bound * (1.0 + slack);
}

}  // namespace lightnet::testing

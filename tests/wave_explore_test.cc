// Concurrent-scale (wave) explorations: several scales' bounded floods fused
// into one scheduler execution over channel-tagged messages must be sliceable
// back into exactly the per-scale tables — each scale's table is the
// (sources, radius)-slice of the owning channels' records, bit-identical to
// the sequential oracle at that scale (tests/exploration_oracle.h). Also
// covers warm starts across waves (per-link filtered shells, retired-source
// tombstones).
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "routines/approx_spt.h"
#include "routines/bounded_multisource.h"
#include "tests/exploration_oracle.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

std::vector<WeightedGraph> wave_zoo(std::uint64_t seed) {
  std::vector<WeightedGraph> zoo;
  zoo.push_back(erdos_renyi(48, 0.15, WeightLaw::kUniform, 20.0, seed));
  zoo.push_back(grid(7, 7, /*perturb=*/true, seed + 1));
  zoo.push_back(random_geometric(48, 0.3, seed + 2).graph);
  return zoo;
}

// Nested nets the way the doubling pipeline produces them: each scale keeps
// a sparser subset of the previous scale's sources.
std::vector<VertexId> every_kth(int n, int k) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < n; v += k) out.push_back(v);
  return out;
}

TEST(WaveExplore, SlicesMatchOracleOnZoo) {
  for (const WeightedGraph& g : wave_zoo(5)) {
    const RoundedSubstrate substrate(g, 0.1);
    const int n = g.num_vertices();
    const std::vector<std::vector<VertexId>> nets = {
        every_kth(n, 2), every_kth(n, 3), every_kth(n, 5), every_kth(n, 7)};
    const std::vector<Weight> radii = {2.0, 3.5, 5.0, 8.0};

    std::vector<WaveScale> scales;
    for (size_t i = 0; i < nets.size(); ++i)
      scales.push_back({nets[i], radii[i]});
    const WaveExploreResult wave = bounded_multi_source_paths_wave(
        substrate, scales, WaveExploreState{});
    testing::expect_wave_matches_oracle(wave.state, substrate.rounded, scales,
                                        "cold wave");
    // Per-channel congestion slices must sum to the untagged totals.
    ASSERT_EQ(wave.cost.per_channel.size(), scales.size());
    std::uint64_t ch_messages = 0;
    std::uint64_t ch_words = 0;
    for (const congest::ChannelCost& ch : wave.cost.per_channel) {
      ch_messages += ch.messages;
      ch_words += ch.words;
    }
    EXPECT_EQ(ch_messages, wave.cost.messages);
    EXPECT_EQ(ch_words, wave.cost.words);
  }
}

TEST(WaveExplore, WarmStartAcrossWavesMatchesOracle) {
  for (const WeightedGraph& g : wave_zoo(9)) {
    const RoundedSubstrate substrate(g, 0.1);
    const int n = g.num_vertices();
    // Wave A: dense nets at small radii; wave B: sparser subsets at larger
    // radii (some of A's sources retire between the waves).
    const std::vector<std::vector<VertexId>> nets_a = {every_kth(n, 2),
                                                       every_kth(n, 3)};
    const std::vector<Weight> radii_a = {2.0, 3.0};
    const std::vector<std::vector<VertexId>> nets_b = {every_kth(n, 6),
                                                       every_kth(n, 12)};
    const std::vector<Weight> radii_b = {4.5, 7.0};

    std::vector<WaveScale> wave_a;
    for (size_t i = 0; i < nets_a.size(); ++i)
      wave_a.push_back({nets_a[i], radii_a[i]});
    WaveExploreResult a = bounded_multi_source_paths_wave(substrate, wave_a,
                                                          WaveExploreState{});

    std::vector<WaveScale> wave_b;
    for (size_t i = 0; i < nets_b.size(); ++i)
      wave_b.push_back({nets_b[i], radii_b[i]});
    const WaveExploreResult b = bounded_multi_source_paths_wave(
        substrate, wave_b, std::move(a.state));

    EXPECT_GT(b.records_inherited, 0u);
    EXPECT_GT(b.pruned_records, 0u);  // every_kth(n,2) sources retired
    testing::expect_wave_matches_oracle(b.state, substrate.rounded, wave_b,
                                        "warm wave");
  }
}

}  // namespace
}  // namespace lightnet

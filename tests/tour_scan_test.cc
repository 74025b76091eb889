#include "mst/tour_scan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "congest/bfs.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

EulerTourResult tour_of(const WeightedGraph& g) {
  const congest::BfsTreeResult bfs = congest::build_bfs_tree(g, 0);
  const DistributedMstResult mst = build_distributed_mst(g, 0);
  return build_euler_tour(g, mst, bfs);
}

// Sequential replay of the scan semantics.
std::vector<std::int64_t> replay(const EulerTourResult& tour,
                                 const std::vector<std::int64_t>& anchors,
                                 const std::vector<Weight>& threshold) {
  std::vector<std::int64_t> joined;
  for (size_t a = 0; a < anchors.size(); ++a) {
    const std::int64_t start = anchors[a];
    const std::int64_t end = a + 1 < anchors.size()
                                 ? anchors[a + 1]
                                 : tour.num_positions;
    Weight carried = tour.times[static_cast<size_t>(start)];
    for (std::int64_t j = start + 1; j < end; ++j) {
      if (tour.times[static_cast<size_t>(j)] - carried >
          threshold[static_cast<size_t>(j)]) {
        joined.push_back(j);
        carried = tour.times[static_cast<size_t>(j)];
      }
    }
  }
  return joined;
}

TEST(TourScan, MatchesSequentialReplayOnZoo) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const EulerTourResult tour = tour_of(g);
    const std::int64_t alpha = static_cast<std::int64_t>(
        std::ceil(std::sqrt(static_cast<double>(g.num_vertices()))));
    std::vector<std::int64_t> anchors;
    for (std::int64_t start = 0; start < tour.num_positions; start += alpha)
      anchors.push_back(start);
    std::vector<Weight> threshold(static_cast<size_t>(tour.num_positions),
                                  0.5);
    const TourScanResult r = tour_interval_scan(g, tour, anchors, threshold);
    EXPECT_EQ(r.joined, replay(tour, anchors, threshold)) << name;
    EXPECT_EQ(r.cost.max_edge_load, 1u) << name;
  }
}

// One program object serves every lane: at threads 2, 4 and 8 the joined
// positions and the model cost equal threads=1.
TEST(TourScan, ThreadCountsMatchSerial) {
  auto graphs = testing::small_graph_zoo();
  graphs.push_back({"grid16x16", grid(16, 16, /*perturb=*/true, 51)});
  graphs.push_back(
      {"er300", erdos_renyi(300, 0.03, WeightLaw::kUniform, 10.0, 52)});
  for (const auto& [name, g] : graphs) {
    const EulerTourResult tour = tour_of(g);
    std::vector<std::int64_t> anchors;
    for (std::int64_t start = 0; start < tour.num_positions; start += 9)
      anchors.push_back(start);
    std::vector<Weight> threshold(static_cast<size_t>(tour.num_positions));
    for (size_t j = 0; j < threshold.size(); ++j)
      threshold[j] = 0.25 * static_cast<double>(j % 5);
    const TourScanResult serial =
        tour_interval_scan(g, tour, anchors, threshold);
    for (int threads : {2, 4, 8}) {
      congest::SchedulerOptions options;
      options.threads = threads;
      const TourScanResult par =
          tour_interval_scan(g, tour, anchors, threshold, options);
      const std::string where = name + " threads=" + std::to_string(threads);
      EXPECT_EQ(par.joined, serial.joined) << where;
      testing::expect_same_model_cost(serial.cost, par.cost, where);
    }
  }
}

TEST(TourScan, SingleIntervalWalksWholeTour) {
  const WeightedGraph g = path_graph(12, WeightLaw::kUnit, 1.0, 1);
  const EulerTourResult tour = tour_of(g);
  std::vector<Weight> threshold(static_cast<size_t>(tour.num_positions),
                                0.0);
  // Threshold 0 with unit edges: every position joins (R strictly grows).
  const TourScanResult r =
      tour_interval_scan(g, tour, {0}, threshold);
  EXPECT_EQ(static_cast<std::int64_t>(r.joined.size()),
            tour.num_positions - 1);
  // Rounds ≈ tour length (one hop per round, single interval).
  EXPECT_LE(r.cost.rounds,
            static_cast<std::uint64_t>(tour.num_positions) + 2);
}

TEST(TourScan, InfiniteThresholdJoinsNothing) {
  const WeightedGraph g = grid(4, 4, /*perturb=*/true, 2);
  const EulerTourResult tour = tour_of(g);
  std::vector<Weight> threshold(static_cast<size_t>(tour.num_positions),
                                1e18);
  const TourScanResult r = tour_interval_scan(g, tour, {0, 10, 20},
                                              threshold);
  EXPECT_TRUE(r.joined.empty());
}

TEST(TourScan, LockstepRoundsBoundedByIntervalLength) {
  const WeightedGraph g =
      erdos_renyi(64, 0.15, WeightLaw::kUniform, 9.0, 3);
  const EulerTourResult tour = tour_of(g);
  const std::int64_t alpha = 8;
  std::vector<std::int64_t> anchors;
  for (std::int64_t start = 0; start < tour.num_positions; start += alpha)
    anchors.push_back(start);
  std::vector<Weight> threshold(static_cast<size_t>(tour.num_positions),
                                1.0);
  const TourScanResult r = tour_interval_scan(g, tour, anchors, threshold);
  // All intervals advance in parallel: rounds ≤ interval length + O(1).
  EXPECT_LE(r.cost.rounds, static_cast<std::uint64_t>(alpha) + 2);
}

TEST(TourScan, RejectsBadAnchors) {
  const WeightedGraph g = path_graph(5, WeightLaw::kUnit, 1.0, 1);
  const EulerTourResult tour = tour_of(g);
  std::vector<Weight> threshold(static_cast<size_t>(tour.num_positions),
                                1.0);
  EXPECT_THROW(tour_interval_scan(g, tour, {}, threshold),
               std::invalid_argument);
  EXPECT_THROW(tour_interval_scan(g, tour, {1}, threshold),
               std::invalid_argument);
  EXPECT_THROW(tour_interval_scan(g, tour, {0, 99}, threshold),
               std::invalid_argument);
}

}  // namespace
}  // namespace lightnet

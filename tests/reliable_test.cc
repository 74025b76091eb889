// Reliable BFS tests (build_bfs_tree_reliable, whose program keeps its own
// per-link stop-and-wait):
//  (1) on a clean network the reliable BFS matches the plain BFS tree
//      bit-for-bit and never retransmits;
//  (2) over a lossy network it converges to the SAME tree (the canonical
//      fixpoint) at threads 1 and 4, and the retransmission counter matches
//      the drop counter — stop-and-wait turns every dropped frame or ack
//      into exactly one retransmission;
//  (3) heavy loss (25%) still converges; loss on down links (link_fail
//      intervals) still converges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "congest/bfs.h"
#include "congest/scheduler.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

using congest::BfsTreeResult;
using congest::SchedulerOptions;
using congest::build_bfs_tree;
using congest::build_bfs_tree_reliable;

void expect_same_tree(const BfsTreeResult& a, const BfsTreeResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.parent, b.parent) << context;
  EXPECT_EQ(a.depth, b.depth) << context;
  EXPECT_EQ(a.height, b.height) << context;
  EXPECT_EQ(a.reached, b.reached) << context;
}


TEST(ReliableBfs, CleanNetworkMatchesPlainBfsWithoutRetransmits) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const BfsTreeResult plain = build_bfs_tree(g, 0);
    const BfsTreeResult reliable = build_bfs_tree_reliable(g, 0);
    expect_same_tree(plain, reliable, name);
    EXPECT_EQ(reliable.cost.retransmitted, 0u) << name;
    EXPECT_EQ(reliable.cost.dropped, 0u) << name;
  }
}

TEST(ReliableBfs, LossyNetworkConvergesToTheFaultFreeTree) {
  SchedulerOptions lossy;
  lossy.fault.seed = 7;
  lossy.fault.drop = 0.05;
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const BfsTreeResult plain = build_bfs_tree(g, 0);
    for (int threads : {1, 4}) {
      lossy.threads = threads;
      const BfsTreeResult recovered = build_bfs_tree_reliable(g, 0, lossy);
      const std::string context = name + "/threads=" + std::to_string(threads);
      expect_same_tree(plain, recovered, context);
      // Every drop costs exactly one retransmission under stop-and-wait.
      EXPECT_EQ(recovered.cost.retransmitted, recovered.cost.dropped)
          << context;
    }
  }
}

TEST(ReliableBfs, HeavyLossStillConverges) {
  const WeightedGraph g = grid(6, 6, /*perturb=*/true, 15);
  SchedulerOptions heavy;
  heavy.fault.seed = 13;
  heavy.fault.drop = 0.25;
  const BfsTreeResult plain = build_bfs_tree(g, 0);
  const BfsTreeResult recovered = build_bfs_tree_reliable(g, 0, heavy);
  expect_same_tree(plain, recovered, "grid6x6/drop25");
  EXPECT_GT(recovered.cost.dropped, 0u);
  EXPECT_EQ(recovered.cost.retransmitted, recovered.cost.dropped);
  // Recovery costs rounds: the lossy run cannot be faster than the flood.
  EXPECT_GE(recovered.cost.rounds, plain.cost.rounds);
}

TEST(ReliableBfs, LinkOutagesStillConverge) {
  // link_fail downs whole (edge, interval) windows; retransmission backoff
  // (rto up to 32 > link_period) rides out the outage.
  const WeightedGraph g =
      erdos_renyi(24, 0.25, WeightLaw::kUniform, 20.0, 17);
  SchedulerOptions outages;
  outages.fault.seed = 21;
  outages.fault.link_fail = 0.2;
  outages.fault.link_period = 8;
  const BfsTreeResult plain = build_bfs_tree(g, 0);
  const BfsTreeResult recovered = build_bfs_tree_reliable(g, 0, outages);
  expect_same_tree(plain, recovered, "er24/link_fail");
}

TEST(ReliableBfs, RootedAwayFromZero) {
  const WeightedGraph g = path_graph(10, WeightLaw::kUniform, 10.0, 11);
  SchedulerOptions lossy;
  lossy.fault.seed = 3;
  lossy.fault.drop = 0.1;
  const BfsTreeResult plain = build_bfs_tree(g, 9);
  const BfsTreeResult recovered = build_bfs_tree_reliable(g, 9, lossy);
  expect_same_tree(plain, recovered, "path10/root9");
}

}  // namespace
}  // namespace lightnet

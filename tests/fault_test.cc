// Fault-injection layer tests (congest/fault.h + scheduler integration):
//  (1) the FaultModel oracle is a pure function — any decision replayed in
//      isolation matches, and rates land near their probabilities;
//  (2) the zero plan IS the fault-free path (drop=0 executions are
//      bit-identical to no-plan executions, counters stay zero);
//  (3) faulty executions are bit-reproducible: the same plan twice gives
//      identical trees, ledgers, and robustness counters;
//  (4) reorder plans do not perturb order-robust programs;
//  (5) crashes take nodes out (permanent) and restarts bring them back; a
//      sender that crashes for good does not hold the run open, and a root
//      that is down from round 0 floods when it restarts;
//  (6) max_rounds caps gracefully (rounds_capped, no throw);
//  (7) the CostStats JSON schema only grows the robustness keys when a
//      counter is nonzero (fault-free records keep their historic bytes).
#include <gtest/gtest.h>

#include <string>

#include "api/scenario.h"
#include "congest/bfs.h"
#include "congest/fault.h"
#include "congest/stats.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet::congest {
namespace {

void expect_same_tree(const BfsTreeResult& a, const BfsTreeResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.parent, b.parent) << context;
  EXPECT_EQ(a.depth, b.depth) << context;
  EXPECT_EQ(a.height, b.height) << context;
  EXPECT_EQ(a.reached, b.reached) << context;
}

TEST(FaultModel, DecisionsAreReplayableInIsolation) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop = 0.3;
  plan.link_fail = 0.2;
  plan.crash = 0.5;
  plan.reorder = true;
  const FaultModel model(plan);
  const FaultModel again(plan);
  for (int round = 0; round < 40; ++round) {
    for (EdgeId e = 0; e < 10; ++e) {
      for (int dir = 0; dir < 2; ++dir)
        EXPECT_EQ(model.drop_message(round, e, dir, 3),
                  again.drop_message(round, e, dir, 3));
      EXPECT_EQ(model.link_down(round, e), again.link_down(round, e));
    }
    EXPECT_EQ(model.shuffle_key(round, 5), again.shuffle_key(round, 5));
  }
  for (VertexId v = 0; v < 20; ++v) {
    int cr_a = -1, rs_a = -1, cr_b = -1, rs_b = -1;
    EXPECT_EQ(model.crash_schedule(v, &cr_a, &rs_a),
              again.crash_schedule(v, &cr_b, &rs_b));
    EXPECT_EQ(cr_a, cr_b);
    EXPECT_EQ(rs_a, rs_b);
  }
}

TEST(FaultModel, DropRateMatchesProbability) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop = 0.25;
  const FaultModel model(plan);
  int dropped = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i)
    if (model.drop_message(i % 100, i % 37, i % 2,
                           static_cast<std::uint32_t>(i)))
      ++dropped;
  const double rate = static_cast<double>(dropped) / samples;
  EXPECT_NEAR(rate, 0.25, 0.02);

  FaultPlan never;
  never.seed = 7;
  const FaultModel clean(never);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(clean.drop_message(i, i % 5, 0, 0));
}

TEST(FaultModel, LinkIntervalsAreStableWithinAPeriod) {
  FaultPlan plan;
  plan.seed = 3;
  plan.link_fail = 0.5;
  plan.link_period = 8;
  const FaultModel model(plan);
  for (EdgeId e = 0; e < 20; ++e) {
    for (int interval = 0; interval < 6; ++interval) {
      const bool down = model.link_down(interval * 8, e);
      for (int r = interval * 8; r < (interval + 1) * 8; ++r)
        EXPECT_EQ(model.link_down(r, e), down) << "edge " << e << " r " << r;
    }
  }
}

TEST(FaultPlan, ZeroPlanIsDisabled) {
  FaultPlan plan;
  plan.seed = 123;  // a seed alone arms nothing
  EXPECT_FALSE(plan.enabled());
  plan.drop = 0.01;
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultScheduler, ZeroDropPlanMatchesFaultFreeBitForBit) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const BfsTreeResult clean = build_bfs_tree(g, 0);
    SchedulerOptions armed;
    armed.fault.seed = 42;  // seed set, everything else zero => disabled
    const BfsTreeResult same = build_bfs_tree(g, 0, armed);
    expect_same_tree(clean, same, name);
    EXPECT_EQ(same.cost.rounds, clean.cost.rounds) << name;
    EXPECT_EQ(same.cost.messages, clean.cost.messages) << name;
    EXPECT_EQ(same.cost.dropped, 0u) << name;
    EXPECT_EQ(same.cost.retransmitted, 0u) << name;
    EXPECT_EQ(same.cost.crashed_nodes, 0u) << name;
  }
}

TEST(FaultScheduler, SamePlanTwiceIsBitIdentical) {
  SchedulerOptions sched;
  sched.fault.seed = 7;
  sched.fault.drop = 0.1;
  sched.fault.reorder = true;
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const BfsTreeResult a = build_bfs_tree_reliable(g, 0, sched);
    const BfsTreeResult b = build_bfs_tree_reliable(g, 0, sched);
    expect_same_tree(a, b, name);
    EXPECT_EQ(a.cost.rounds, b.cost.rounds) << name;
    EXPECT_EQ(a.cost.messages, b.cost.messages) << name;
    EXPECT_EQ(a.cost.words, b.cost.words) << name;
    EXPECT_EQ(a.cost.dropped, b.cost.dropped) << name;
    EXPECT_EQ(a.cost.retransmitted, b.cost.retransmitted) << name;
    EXPECT_EQ(a.cost.rounds_lost, b.cost.rounds_lost) << name;
  }
}

TEST(FaultScheduler, DifferentFaultSeedsChangeTheDropPattern) {
  const WeightedGraph g =
      erdos_renyi(32, 0.2, WeightLaw::kUniform, 20.0, 17);
  SchedulerOptions a, b;
  a.fault.drop = b.fault.drop = 0.2;
  a.fault.seed = 1;
  b.fault.seed = 2;
  const BfsTreeResult ra = build_bfs_tree_reliable(g, 0, a);
  const BfsTreeResult rb = build_bfs_tree_reliable(g, 0, b);
  // The recovered tree is the same canonical fixpoint either way; the fault
  // trajectory (what got dropped, how long recovery took) differs.
  expect_same_tree(ra, rb, "er32");
  EXPECT_NE(ra.cost.dropped, rb.cost.dropped);
}

TEST(FaultScheduler, ReorderAloneDoesNotPerturbOrderRobustPrograms) {
  SchedulerOptions sched;
  sched.fault.seed = 11;
  sched.fault.reorder = true;
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const BfsTreeResult clean = build_bfs_tree(g, 0);
    const BfsTreeResult shuffled = build_bfs_tree_reliable(g, 0, sched);
    expect_same_tree(clean, shuffled, name);
    EXPECT_EQ(shuffled.cost.dropped, 0u) << name;
  }
}

TEST(FaultScheduler, PermanentCrashesLeaveUnreachedVertices) {
  // path graph: crashing any interior vertex permanently cuts the suffix
  // off. Under this plan the root stays up, a sender crashes for good with
  // a frame in flight, and its neighbours give up on the links to crashed
  // vertices after kMaxRetries, so the run ends below the round cap with
  // the root's side of the path reached.
  const WeightedGraph g = path_graph(16, WeightLaw::kUniform, 10.0, 11);
  SchedulerOptions sched;
  sched.fault.seed = 4;
  sched.fault.crash = 0.3;
  sched.fault.crash_horizon = 16;
  const BfsTreeResult r = build_bfs_tree_reliable(g, 0, sched);
  EXPECT_GT(r.cost.crashed_nodes, 0u);
  EXPECT_GT(r.cost.retransmitted, 0u);
  EXPECT_EQ(r.cost.rounds_capped, 0u);
  EXPECT_GT(r.reached, 1);
  EXPECT_LT(r.reached, 16);
  for (VertexId v = 0; v < 16; ++v)
    if (r.depth[v] < 0) EXPECT_EQ(r.parent[v], kNoVertex) << v;
  // Bit-reproducible like every other plan.
  const BfsTreeResult again = build_bfs_tree_reliable(g, 0, sched);
  expect_same_tree(r, again, "path16/crash");
  EXPECT_EQ(r.cost.crashed_nodes, again.cost.crashed_nodes);
}

TEST(FaultScheduler, RestartingCrashesRecoverTheFullTree) {
  // crash-recover with stable storage: the reliable BFS retransmits until
  // the node is back, so every vertex is eventually reached and the tree is
  // the same canonical fixpoint as the fault-free run.
  const WeightedGraph g = path_graph(12, WeightLaw::kUniform, 10.0, 11);
  SchedulerOptions sched;
  sched.fault.seed = 9;
  sched.fault.crash = 0.5;
  sched.fault.crash_horizon = 6;
  sched.fault.restart_after = 4;
  const BfsTreeResult clean = build_bfs_tree(g, 0);
  const BfsTreeResult r = build_bfs_tree_reliable(g, 0, sched);
  EXPECT_GT(r.cost.crashed_nodes, 0u);
  expect_same_tree(clean, r, "path12/restart");
}

TEST(FaultScheduler, PermanentlyCrashedSendersDoNotHoldTheRunOpen) {
  // A sender that crashes for good with a frame in flight is never run
  // again, so it neither ticks nor keeps the run alive: each of these runs
  // ends well below the round cap, and identically at threads=4.
  api::ScenarioSpec spec;
  spec.family = "er";
  spec.n = 64;
  const WeightedGraph g = api::materialize(spec);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SchedulerOptions sched;
    sched.fault.seed = seed;
    sched.fault.crash = 0.3;
    sched.fault.crash_horizon = 6;
    const BfsTreeResult r = build_bfs_tree_reliable(g, 0, sched);
    const std::string context = "er64/seed=" + std::to_string(seed);
    EXPECT_EQ(r.cost.rounds_capped, 0u) << context;
    EXPECT_LT(r.cost.rounds, 1000u) << context;
    EXPECT_GT(r.reached, 1) << context;
    SchedulerOptions parallel = sched;
    parallel.threads = 4;
    const BfsTreeResult p = build_bfs_tree_reliable(g, 0, parallel);
    expect_same_tree(r, p, context + "/threads=4");
    EXPECT_EQ(r.cost.rounds, p.cost.rounds) << context;
    EXPECT_EQ(r.cost.retransmitted, p.cost.retransmitted) << context;
  }
}

TEST(FaultScheduler, RootDownFromRoundZeroFloodsAfterItsRestart) {
  // Every vertex, the root included, is down from round 0 and restarts in
  // round 3: the root floods on its first run, so the tree is the
  // fault-free one.
  api::ScenarioSpec spec;
  spec.family = "er";
  spec.n = 64;
  const WeightedGraph g = api::materialize(spec);
  SchedulerOptions sched;
  sched.fault.seed = 1;
  sched.fault.crash = 1.0;
  sched.fault.crash_horizon = 1;
  sched.fault.restart_after = 3;
  const BfsTreeResult clean = build_bfs_tree(g, 0);
  for (int threads : {1, 4}) {
    sched.threads = threads;
    const BfsTreeResult r = build_bfs_tree_reliable(g, 0, sched);
    const std::string context = "er64/threads=" + std::to_string(threads);
    EXPECT_EQ(r.cost.crashed_nodes, 64u) << context;
    expect_same_tree(clean, r, context);
    // The plain flood starts at the root's restart too.
    expect_same_tree(clean, build_bfs_tree(g, 0, sched), context + "/plain");
  }
}

TEST(FaultScheduler, MaxRoundsCapsGracefully) {
  // A 16-path needs 15 rounds of flooding; capping at 4 must return the
  // partial frontier with rounds_capped set instead of throwing.
  const WeightedGraph g = path_graph(16, WeightLaw::kUniform, 10.0, 11);
  SchedulerOptions sched;
  sched.max_rounds = 4;
  const BfsTreeResult r = build_bfs_tree_reliable(g, 0, sched);
  EXPECT_EQ(r.cost.rounds_capped, 1u);
  EXPECT_LT(r.reached, 16);
  EXPECT_GT(r.reached, 1);  // the frontier did advance before the cap
}

TEST(CostStatsJson, RobustnessKeysOnlyAppearWhenNonzero) {
  CostStats clean;
  clean.rounds = 3;
  clean.messages = 10;
  clean.words = 10;
  clean.max_edge_load = 1;
  const std::string base = to_json(clean);
  EXPECT_EQ(base.find("dropped"), std::string::npos);
  EXPECT_EQ(base.find("retransmitted"), std::string::npos);
  EXPECT_EQ(base.find("rounds_lost"), std::string::npos);
  EXPECT_EQ(base.find("crashed_nodes"), std::string::npos);
  EXPECT_EQ(base.find("rounds_capped"), std::string::npos);

  CostStats faulty = clean;
  faulty.dropped = 4;
  faulty.retransmitted = 4;
  faulty.rounds_lost = 2;
  const std::string json = to_json(faulty);
  EXPECT_NE(json.find("\"dropped\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"retransmitted\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rounds_lost\":2"), std::string::npos) << json;
  EXPECT_EQ(json.find("crashed_nodes"), std::string::npos) << json;
}

}  // namespace
}  // namespace lightnet::congest

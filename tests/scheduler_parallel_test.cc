// Tests for parallel round execution (SchedulerOptions::threads > 1).
//
// The contract under test is bit-identity: a pooled run must produce the
// same program outputs, the same model-level cost (rounds, messages, words,
// max_edge_load) and the same fault outcomes as the threads=1 run, for
// every thread count (tests/scheduler_fuzz_test.cc checks all of them
// against the naive round oracle). Shard-merge ordering, the lane-packed batched-payload
// arena, fault filtering inside shards, and the dense/sparse delivery
// switch are all exercised through public entry points so the suite keeps
// passing if the internals are rearranged.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "congest/bellman_ford.h"
#include "congest/bfs.h"
#include "congest/scheduler.h"
#include "graph/generators.h"
#include "routines/approx_spt.h"
#include "routines/bounded_multisource.h"
#include "tests/exploration_oracle.h"
#include "tests/test_util.h"

namespace lightnet::congest {
namespace {

using lightnet::testing::expect_same_model_cost;
using lightnet::testing::small_graph_zoo;

SchedulerOptions with_threads(int t) {
  SchedulerOptions options;
  options.threads = t;
  return options;
}

// Runs `program` at every vertex of `g` under `options`; returns the cost.
CostStats run_program(const WeightedGraph& g, NodeProgram& program,
                      const SchedulerOptions& options) {
  Network net(g);
  return Scheduler(net, program, options).run();
}

// Shard-merge ordering: the per-lane buckets are drained in lane order and
// each lane owns an ascending chunk of the active array, so inbox contents
// must equal the serial send order on every topology in the zoo.
TEST(ParallelScheduler, BfsBitIdenticalAcrossThreadCounts) {
  for (const auto& [name, g] : small_graph_zoo()) {
    const BfsTreeResult serial = build_bfs_tree(g, 0);
    for (int threads : {2, 4, 8}) {
      const BfsTreeResult par = build_bfs_tree(g, 0, with_threads(threads));
      const std::string context = name + " threads=" + std::to_string(threads);
      expect_same_model_cost(serial.cost, par.cost, context);
      EXPECT_EQ(serial.parent, par.parent) << context;
      EXPECT_EQ(serial.depth, par.depth) << context;
      EXPECT_EQ(serial.height, par.height) << context;
      EXPECT_EQ(par.cost.rounds_parallel, par.cost.rounds) << context;
      EXPECT_EQ(serial.cost.rounds_parallel, 0u) << context;
    }
  }
}

TEST(ParallelScheduler, BellmanFordBitIdenticalAcrossThreadCounts) {
  for (const auto& [name, g] : small_graph_zoo()) {
    const std::vector<VertexId> sources = {0};
    const auto serial = distributed_bellman_ford(g, sources);
    for (int threads : {2, 4, 8}) {
      const auto par =
          distributed_bellman_ford(g, sources, {}, with_threads(threads));
      const std::string context = name + " threads=" + std::to_string(threads);
      expect_same_model_cost(serial.cost, par.cost, context);
      EXPECT_EQ(serial.dist, par.dist) << context;
      EXPECT_EQ(serial.parent, par.parent) << context;
      EXPECT_EQ(serial.owner, par.owner) << context;
    }
  }
}

// Full-sweep mode under threads: every node invoked every round, spread
// over chunks, still the reference answer.
TEST(ParallelScheduler, FullSweepMatchesSerialFullSweep) {
  for (const auto& [name, g] : small_graph_zoo()) {
    SchedulerOptions sweep;
    sweep.full_sweep = true;
    const BfsTreeResult serial = build_bfs_tree(g, 0, sweep);
    sweep.threads = 4;
    const BfsTreeResult par = build_bfs_tree(g, 0, sweep);
    expect_same_model_cost(serial.cost, par.cost, name);
    EXPECT_EQ(serial.parent, par.parent) << name;
    EXPECT_EQ(serial.depth, par.depth) << name;
  }
}

// Fault plans inside shards: the per-direction-slot message index sequence
// a drop decision keys on must match the serial delivery order, so a lossy
// plan (with crashes, restarts and reorder armed) makes identical drops at
// every thread count.
TEST(ParallelScheduler, FaultPlanBitIdenticalAcrossThreadCounts) {
  SchedulerOptions faulty;
  faulty.fault.seed = 9;
  faulty.fault.drop = 0.08;
  faulty.fault.crash = 0.05;
  faulty.fault.restart_after = 4;
  faulty.fault.reorder = true;
  faulty.max_rounds = 4000;
  for (const auto& [name, g] : small_graph_zoo()) {
    // Bellman-Ford tolerates unreached vertices (a lossy plan without
    // retransmissions can cut parts of the graph off), so it can run the whole
    // adversarial plan unreliably — the outcome must still be a pure
    // function of the plan, not of the thread count.
    const std::vector<VertexId> sources = {0};
    const auto serial = distributed_bellman_ford(g, sources, {}, faulty);
    for (int threads : {3, 8}) {
      SchedulerOptions par_options = faulty;
      par_options.threads = threads;
      const auto par = distributed_bellman_ford(g, sources, {}, par_options);
      const std::string context = name + " threads=" + std::to_string(threads);
      expect_same_model_cost(serial.cost, par.cost, context);
      EXPECT_EQ(serial.dist, par.dist) << context;
      EXPECT_EQ(serial.parent, par.parent) << context;
      EXPECT_EQ(serial.cost.dropped, par.cost.dropped) << context;
      EXPECT_EQ(serial.cost.crashed_nodes, par.cost.crashed_nodes) << context;
      EXPECT_EQ(serial.cost.rounds_lost, par.cost.rounds_lost) << context;
    }
  }
}

// Batched multi-word payloads: parallel staging packs the lane id into the
// ext offset's top bits; the bounded multi-source kernel ships its offers
// with send_words_on_link, so tables equal to the sequential oracle's
// prove payloads survive the lane arena round-trip.
TEST(ParallelScheduler, BatchedPayloadsBitIdenticalAcrossThreadCounts) {
  const RoundedSubstrate substrate(
      erdos_renyi(48, 0.15, WeightLaw::kUniform, 30.0, 23), 0.25);
  const std::vector<VertexId> sources = {0, 7, 31};
  using lightnet::testing::explore_cold;
  const auto serial = explore_cold(substrate, sources, 60.0);
  lightnet::testing::expect_matches_oracle(
      serial.state.table[0], substrate.rounded, sources, 60.0, "threads=1");
  for (int threads : {2, 4, 8}) {
    const auto par =
        explore_cold(substrate, sources, 60.0, with_threads(threads));
    const std::string context = "threads=" + std::to_string(threads);
    expect_same_model_cost(serial.cost, par.cost, context);
    EXPECT_EQ(serial.shell_announcements, par.shell_announcements) << context;
    lightnet::testing::expect_matches_oracle(
        par.state.table[0], substrate.rounded, sources, 60.0, context);
  }
}

// Delivery direction switch: a clique BFS floods n-1 messages into round 1
// (dense, receiver-scan pays off), a path trickles one message per round
// (sparse, recipient lists win). The counter is instrumentation-only and
// never serialized, so asserting on it here is what keeps the switch wired.
TEST(ParallelScheduler, DenseSwitchEngagesOnCliqueNotOnPath) {
  const WeightedGraph clique = erdos_renyi(64, 1.0, WeightLaw::kUnit, 1.0, 5);
  const WeightedGraph path = path_graph(64, WeightLaw::kUnit, 1.0, 6);
  EXPECT_GT(build_bfs_tree(clique, 0).cost.rounds_receiver_scan, 0u);
  EXPECT_EQ(build_bfs_tree(path, 0).cost.rounds_receiver_scan, 0u);
  EXPECT_GT(build_bfs_tree(clique, 0, with_threads(4))
                .cost.rounds_receiver_scan,
            0u);
  EXPECT_EQ(build_bfs_tree(path, 0, with_threads(4)).cost.rounds_receiver_scan,
            0u);
}

// The serial result must not depend on whether a dense round ever happened:
// a star delivers everything in two dense hops, and its tree equals the
// full-sweep reference (covered elsewhere) — here we pin the mode sequence.
TEST(ParallelScheduler, ReceiverScanRoundsAreDeterministic) {
  const WeightedGraph g = star_graph(33, WeightLaw::kUniform, 10.0, 12);
  const auto a = build_bfs_tree(g, 0);
  const auto b = build_bfs_tree(g, 0);
  EXPECT_EQ(a.cost.rounds_receiver_scan, b.cost.rounds_receiver_scan);
}

// The reliable BFS keeps its stop-and-wait state per directed link and its
// retransmission count per lane, so lanes never share a slot: under drop,
// link-fail and crash-restart plans its trees, CostStats and robustness
// counters at threads 2/4/8 equal the serial run's.
TEST(ParallelScheduler, ReliableBfsBitIdenticalAcrossThreadCounts) {
  std::vector<std::pair<std::string, FaultPlan>> plans(3);
  plans[0].first = "drop";
  plans[0].second.seed = 3;
  plans[0].second.drop = 0.1;
  plans[0].second.reorder = true;
  plans[1].first = "link_fail";
  plans[1].second.seed = 21;
  plans[1].second.link_fail = 0.2;
  plans[1].second.link_period = 8;
  plans[2].first = "crash_restart";
  plans[2].second.seed = 2;
  plans[2].second.crash = 0.3;
  plans[2].second.crash_horizon = 6;
  plans[2].second.restart_after = 5;
  plans[2].second.drop = 0.05;
  std::vector<lightnet::testing::NamedGraph> graphs = small_graph_zoo();
  graphs.push_back({"grid12x12", grid(12, 12, /*perturb=*/true, 15)});
  graphs.push_back(
      {"er160", erdos_renyi(160, 0.04, WeightLaw::kUniform, 20.0, 5)});
  for (const auto& [plan_name, plan] : plans) {
    SchedulerOptions faulty;
    faulty.fault = plan;
    for (const auto& [name, g] : graphs) {
      const BfsTreeResult serial = build_bfs_tree_reliable(g, 0, faulty);
      for (int threads : {2, 4, 8}) {
        SchedulerOptions par_options = faulty;
        par_options.threads = threads;
        const BfsTreeResult par = build_bfs_tree_reliable(g, 0, par_options);
        const std::string context = name + "/" + plan_name +
                                    " threads=" + std::to_string(threads);
        expect_same_model_cost(serial.cost, par.cost, context);
        EXPECT_EQ(serial.parent, par.parent) << context;
        EXPECT_EQ(serial.depth, par.depth) << context;
        EXPECT_EQ(serial.reached, par.reached) << context;
        EXPECT_EQ(serial.cost.dropped, par.cost.dropped) << context;
        EXPECT_EQ(serial.cost.retransmitted, par.cost.retransmitted)
            << context;
        EXPECT_EQ(serial.cost.rounds_lost, par.cost.rounds_lost) << context;
        EXPECT_EQ(serial.cost.crashed_nodes, par.cost.crashed_nodes)
            << context;
        EXPECT_EQ(serial.cost.rounds_capped, par.cost.rounds_capped)
            << context;
      }
    }
  }
}

// Never quiescent, and round r puts r + 1 messages on the first link: the
// heaviest window is the last round's, whose sends a max_rounds cap leaves
// undelivered, so only the end-of-run fold can account for it.
class RampProgram final : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, std::span<const Delivery>) override {
    if (ctx.links().empty()) return;
    for (int i = 0; i <= ctx.round(); ++i)
      ctx.send_on_link(0, Message(1, {static_cast<std::uint64_t>(i)}));
  }
  bool quiescent(VertexId) const override { return false; }
};

TEST(ParallelScheduler, CappedRunFoldsItsLastWindow) {
  const WeightedGraph g = grid(12, 12, /*perturb=*/true, 8);
  SchedulerOptions relaxed;
  relaxed.strict_congest = false;
  relaxed.max_rounds = 7;
  RampProgram ramp;
  const CostStats serial = run_program(g, ramp, relaxed);
  EXPECT_EQ(serial.max_edge_load, 7u);
  EXPECT_EQ(serial.rounds_capped, 1u);
  for (int threads : {2, 4, 8}) {
    SchedulerOptions options = relaxed;
    options.threads = threads;
    const CostStats par = run_program(g, ramp, options);
    const std::string context = "threads=" + std::to_string(threads);
    expect_same_model_cost(serial, par, context);
    EXPECT_EQ(par.rounds_capped, 1u) << context;
  }
}

// Three channels over four rounds. Some links carry two messages on
// different channels in one round (each channel window must be folded on
// its own), some carry two on the same channel (channel load 2), and
// channel 2 sends 5-word batches (2 units each).
constexpr int kChannels = 3;

class ChannelMixProgram final : public NodeProgram {
 public:
  explicit ChannelMixProgram(int n) : last_round_(static_cast<size_t>(n), -1) {}
  void on_round(NodeContext& ctx, std::span<const Delivery>) override {
    const int round = ctx.round();
    last_round_[static_cast<size_t>(ctx.self())] = round;
    if (round >= 4) return;
    for (int i = 0; i < static_cast<int>(ctx.links().size()); ++i) {
      const int mix = static_cast<int>(ctx.self()) + i;
      send(ctx, i, (mix + round) % kChannels);
      if (mix % 2 == 0) send(ctx, i, (mix + round + 1) % kChannels);
      if (mix % 5 == 0) send(ctx, i, (mix + round) % kChannels);
    }
  }
  bool quiescent(VertexId v) const override {
    return last_round_[static_cast<size_t>(v)] >= 4;
  }

 private:
  static void send(NodeContext& ctx, int link, int channel) {
    const std::vector<std::uint64_t> words(channel == 2 ? 5 : 1, 7);
    ctx.send_words_on_link(link, 2, words,
                           static_cast<std::uint8_t>(channel));
  }

  std::vector<int> last_round_;  // per vertex: its latest round
};

TEST(ParallelScheduler, PerChannelCostsMatchAcrossThreadCounts) {
  const WeightedGraph g =
      erdos_renyi(96, 0.08, WeightLaw::kUniform, 10.0, 31);
  SchedulerOptions relaxed;
  relaxed.strict_congest = false;
  relaxed.channels = kChannels;
  ChannelMixProgram serial_mix(g.num_vertices());
  const CostStats serial = run_program(g, serial_mix, relaxed);
  ASSERT_EQ(serial.per_channel.size(), static_cast<size_t>(kChannels));
  EXPECT_EQ(serial.per_channel[2].max_edge_load, 4u);
  for (int threads : {2, 4, 8}) {
    SchedulerOptions options = relaxed;
    options.threads = threads;
    ChannelMixProgram mix(g.num_vertices());
    expect_same_model_cost(serial, run_program(g, mix, options),
                           "threads=" + std::to_string(threads));
  }
}

// Thread counts beyond the lane budget clamp instead of tripping the
// packed-offset encoding; threads=1 must not build a pool at all (its one
// lane runs the round's jobs inline, asserted via rounds_parallel staying
// zero).
TEST(ParallelScheduler, ThreadCountClampsToLaneBudget) {
  const WeightedGraph g = grid(5, 5, /*perturb=*/true, 15);
  const BfsTreeResult serial = build_bfs_tree(g, 0, with_threads(1));
  EXPECT_EQ(serial.cost.rounds_parallel, 0u);
  const BfsTreeResult wide = build_bfs_tree(g, 0, with_threads(64));
  EXPECT_EQ(serial.parent, wide.parent);
  EXPECT_EQ(serial.cost.messages, wide.cost.messages);
  EXPECT_EQ(wide.cost.rounds_parallel, wide.cost.rounds);
}

// More worker threads than vertices: shards for the tail are empty; the
// run must still terminate with the right answer.
TEST(ParallelScheduler, MoreThreadsThanVertices) {
  const WeightedGraph g = path_graph(5, WeightLaw::kUnit, 1.0, 2);
  const BfsTreeResult serial = build_bfs_tree(g, 0);
  const BfsTreeResult par = build_bfs_tree(g, 0, with_threads(8));
  EXPECT_EQ(serial.parent, par.parent);
  EXPECT_EQ(serial.depth, par.depth);
  expect_same_model_cost(serial.cost, par.cost, "path5 threads=8");
}

}  // namespace
}  // namespace lightnet::congest

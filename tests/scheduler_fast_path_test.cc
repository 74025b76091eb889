// Tests for the scheduler's hot paths: active-set rounds vs. the full-sweep
// reference, the O(1) send_on_link resolution, and the flat-arena reuse
// guarantee.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "congest/bellman_ford.h"
#include "congest/bfs.h"
#include "congest/scheduler.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet::congest {
namespace {

using lightnet::testing::expect_same_model_cost;
using lightnet::testing::small_graph_zoo;

SchedulerOptions full_sweep_options() {
  SchedulerOptions options;
  options.full_sweep = true;
  return options;
}

TEST(ActiveSetScheduling, BfsMatchesFullSweepReference) {
  for (const auto& [name, g] : small_graph_zoo()) {
    const auto active = build_bfs_tree(g, 0);
    const auto reference = build_bfs_tree(g, 0, full_sweep_options());
    expect_same_model_cost(active.cost, reference.cost, name);
    EXPECT_EQ(active.parent, reference.parent) << name;
    EXPECT_EQ(active.depth, reference.depth) << name;
    EXPECT_EQ(active.height, reference.height) << name;
  }
}

TEST(ActiveSetScheduling, BellmanFordMatchesFullSweepReference) {
  for (const auto& [name, g] : small_graph_zoo()) {
    const std::vector<VertexId> sources = {0};
    const auto active = distributed_bellman_ford(g, sources);
    const auto reference =
        distributed_bellman_ford(g, sources, {}, full_sweep_options());
    expect_same_model_cost(active.cost, reference.cost, name);
    EXPECT_EQ(active.dist, reference.dist) << name;
    EXPECT_EQ(active.parent, reference.parent) << name;
    EXPECT_EQ(active.owner, reference.owner) << name;
  }
}

// Sends two messages on the same link in one round via the fast path.
class FastFloodProgram final : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, std::span<const Delivery>) override {
    if (ctx.round() == 0 && ctx.self() == 0 && !ctx.links().empty()) {
      ctx.send_on_link(0, Message(1, {1}));
      ctx.send_on_link(0, Message(1, {2}));
    }
  }
  bool quiescent(VertexId) const override { return true; }
};

TEST(FastSendPath, StrictModeStillDetectsCongestion) {
  const WeightedGraph g = path_graph(4, WeightLaw::kUnit, 1.0, 1);
  Network net(g);
  FastFloodProgram program;
  Scheduler sched(net, program);
  EXPECT_THROW(sched.run(), std::logic_error);
}

TEST(FastSendPath, RelaxedModeCountsLoadOnFastSends) {
  const WeightedGraph g = path_graph(4, WeightLaw::kUnit, 1.0, 1);
  Network net(g);
  FastFloodProgram program;
  SchedulerOptions options;
  options.strict_congest = false;
  EXPECT_EQ(Scheduler(net, program, options).run().max_edge_load, 2u);
}

// Batched multi-word sends: node 0 ships a 5-word payload (arena-resident)
// and then a 2-word one (inline) down link 0 with send_words_on_link; the
// receiver must read both payloads back through NodeContext::payload.
class BatchedSendProgram final : public NodeProgram {
 public:
  explicit BatchedSendProgram(std::vector<std::uint64_t>& received)
      : received_(received) {}
  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    if (ctx.round() == 0 && ctx.self() == 0) {
      const std::uint64_t wide[] = {10, 11, 12, 13, 14};
      ctx.send_words_on_link(0, 7, wide);
      const std::uint64_t narrow[] = {20, 21};
      ctx.send_words_on_link(0, 8, narrow);
    }
    for (const Delivery& d : inbox)
      for (std::uint64_t w : ctx.payload(d.msg)) received_.push_back(w);
  }
  bool quiescent(VertexId) const override { return true; }

 private:
  std::vector<std::uint64_t>& received_;
};

TEST(FastSendPath, BatchedPayloadsRoundTripWithHonestAccounting) {
  const WeightedGraph g = path_graph(3, WeightLaw::kUnit, 1.0, 1);
  Network net(g);
  std::vector<std::uint64_t> received;
  BatchedSendProgram program(received);
  SchedulerOptions options;
  options.strict_congest = false;  // the 5-word batch exceeds one message
  const CostStats cost = Scheduler(net, program, options).run();
  // Vertex 1 (0's only neighbor) gets both payloads, wide one first.
  EXPECT_EQ(received,
            (std::vector<std::uint64_t>{10, 11, 12, 13, 14, 20, 21}));
  EXPECT_EQ(cost.messages, 2u);
  EXPECT_EQ(cost.words, 7u);
  // The wide batch is ceil(5/3) = 2 standard-message units plus the narrow
  // batch's 1 on the same directed edge.
  EXPECT_EQ(cost.max_edge_load, 3u);
}

// Payloads wider than one arena record must be split into in-order chunks,
// not rejected.
class HugeBatchProgram final : public NodeProgram {
 public:
  HugeBatchProgram(size_t total_words, std::vector<std::uint64_t>& received)
      : total_words_(total_words), received_(received) {}
  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    if (ctx.round() == 0 && ctx.self() == 0) {
      std::vector<std::uint64_t> words(total_words_);
      for (size_t i = 0; i < words.size(); ++i) words[i] = i;
      ctx.send_words_on_link(0, 9, words);
    }
    for (const Delivery& d : inbox)
      for (std::uint64_t w : ctx.payload(d.msg)) received_.push_back(w);
  }
  bool quiescent(VertexId) const override { return true; }

 private:
  size_t total_words_;
  std::vector<std::uint64_t>& received_;
};

TEST(FastSendPath, OversizedBatchIsChunkedInOrder) {
  const size_t total = Scheduler::kBatchChunkWords + 6;  // two chunks
  const WeightedGraph g = path_graph(2, WeightLaw::kUnit, 1.0, 1);
  Network net(g);
  std::vector<std::uint64_t> received;
  HugeBatchProgram program(total, received);
  SchedulerOptions options;
  options.strict_congest = false;
  const CostStats cost = Scheduler(net, program, options).run();
  ASSERT_EQ(received.size(), total);
  for (size_t i = 0; i < total; ++i) ASSERT_EQ(received[i], i);
  EXPECT_EQ(cost.messages, 2u);  // one per chunk
  EXPECT_EQ(cost.words, static_cast<std::uint64_t>(total));
}

TEST(FastSendPath, StrictModeRejectsOversizedBatch) {
  const WeightedGraph g = path_graph(3, WeightLaw::kUnit, 1.0, 1);
  Network net(g);
  std::vector<std::uint64_t> received;
  BatchedSendProgram program(received);
  Scheduler sched(net, program);  // strict_congest default
  EXPECT_THROW(sched.run(), std::logic_error);
}

// Out-of-range link indices are a program bug and must be caught.
class BadLinkProgram final : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, std::span<const Delivery>) override {
    if (ctx.round() == 0 && ctx.self() == 0)
      ctx.send_on_link(static_cast<int>(ctx.links().size()), Message(1, {1}));
  }
  bool quiescent(VertexId) const override { return true; }
};

TEST(FastSendPath, RejectsOutOfRangeLinkIndex) {
  const WeightedGraph g = path_graph(3, WeightLaw::kUnit, 1.0, 1);
  Network net(g);
  BadLinkProgram program;
  Scheduler sched(net, program);
  try {
    sched.run();
    FAIL() << "an out-of-range link index must abort the run";
  } catch (const std::logic_error& e) {
    // The assertion names its file from the source root, not from the
    // directory the checkout was built in.
    EXPECT_NE(std::string(e.what()).find("at src/congest/scheduler.cc:"),
              std::string::npos)
        << e.what();
  }
}

TEST(NetworkLinkIndex, ResolvesEveryAdjacencyAndRejectsNonEdges) {
  for (const auto& [name, g] : small_graph_zoo()) {
    Network net(g);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const auto links = net.links(u);
      for (int i = 0; i < static_cast<int>(links.size()); ++i) {
        const Incidence& inc = links[static_cast<size_t>(i)];
        EXPECT_EQ(net.link_index(u, inc.neighbor), i) << name;
        EXPECT_TRUE(net.are_neighbors(u, inc.neighbor)) << name;
        // The directed slot must address this edge with the correct
        // orientation.
        const std::uint32_t slot = net.dir_slot(net.link_base(u) + i);
        EXPECT_EQ(static_cast<EdgeId>(slot >> 1), inc.edge) << name;
        const Edge& e = g.edge(inc.edge);
        EXPECT_EQ((slot & 1) == 0 ? e.u : e.v, u) << name;
      }
      EXPECT_EQ(net.link_index(u, u), -1) << name;
    }
  }
}

TEST(MessageArena, SteadyStateRunsWithoutPerRoundAllocations) {
  // 16x16 grid BFS: ~30 rounds with a varying frontier. The arena may grow
  // during warmup — at most geometrically many events across the two
  // staging buffers and the delivery arena — after which rounds must reuse
  // capacity. 705 messages → warmup is bounded by ~3*log2(peak round
  // volume), far below one event per round for longer runs.
  const WeightedGraph g = grid(16, 16, /*perturb=*/true, 7);
  const auto result = build_bfs_tree(g, 0);
  EXPECT_GT(result.cost.rounds, 20u);
  EXPECT_LT(result.cost.inbox_reallocs, 30u);

  // Constant round volume (token relay): the buffers warm up within the
  // first rounds and never grow again.
  const WeightedGraph path = path_graph(64, WeightLaw::kUnit, 1.0, 1);
  const auto relay = build_bfs_tree(path, 0);
  EXPECT_GT(relay.cost.rounds, 60u);
  EXPECT_LE(relay.cost.inbox_reallocs, 6u);
}

}  // namespace
}  // namespace lightnet::congest

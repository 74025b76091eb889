#include "congest/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet::congest {
namespace {

constexpr std::uint32_t kTagPing = 99;

// Sends `count` tokens from vertex 0 along a path, one hop per round.
class RelayProgram final : public NodeProgram {
 public:
  RelayProgram(int n, int count, std::vector<int>& received)
      : n_(n), count_(count), received_(received) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const VertexId self = ctx.self();
    if (ctx.round() == 0 && self == 0) to_send_ = count_;
    for (const Delivery& d : inbox) {
      ++received_[static_cast<size_t>(self)];
      if (self + 1 < n_) {
        ctx.send(self + 1, d.msg);
      }
    }
    if (to_send_ > 0 && self == 0 && n_ > 1) {
      ctx.send(1, Message(kTagPing, {static_cast<std::uint64_t>(to_send_)}));
      --to_send_;
    }
  }

  bool quiescent(VertexId v) const override {
    return v != 0 || to_send_ == 0;
  }

 private:
  int n_;
  int count_;
  std::vector<int>& received_;
  int to_send_ = 0;  // vertex 0's state
};

// Wraps a program and runs `nested` (a whole second scheduler run) from
// inside vertex 0's first invocation.
class NestingProgram final : public NodeProgram {
 public:
  NestingProgram(NodeProgram& inner, std::function<void()> nested)
      : inner_(inner), nested_(std::move(nested)) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    if (ctx.self() == 0 && nested_) std::exchange(nested_, nullptr)();
    inner_.on_round(ctx, inbox);
  }

  bool quiescent(VertexId v) const override { return inner_.quiescent(v); }

 private:
  NodeProgram& inner_;
  std::function<void()> nested_;
};

// Deliberately violates CONGEST by sending two messages on one edge.
class FloodProgram final : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, std::span<const Delivery>) override {
    if (ctx.round() == 0 && ctx.self() == 0) {
      for (const Incidence& inc : ctx.links()) {
        ctx.send(inc.neighbor, Message(kTagPing, {1}));
        ctx.send(inc.neighbor, Message(kTagPing, {2}));
      }
    }
  }
  bool quiescent(VertexId) const override { return true; }
};

// Vertex 0 ships one `width`-word batch down each of its links in each of
// the first `rounds` rounds.
class WideBatchProgram final : public NodeProgram {
 public:
  WideBatchProgram(size_t width, int rounds) : width_(width), rounds_(rounds) {}
  void on_round(NodeContext& ctx, std::span<const Delivery>) override {
    if (ctx.self() != 0 || sent_ >= rounds_) return;
    const std::vector<std::uint64_t> words(width_, 7);
    for (size_t li = 0; li < ctx.links().size(); ++li)
      ctx.send_words_on_link(static_cast<int>(li), kTagPing, words);
    ++sent_;
  }
  bool quiescent(VertexId v) const override {
    return v != 0 || sent_ >= rounds_;
  }

 private:
  size_t width_;
  int rounds_;
  int sent_ = 0;  // vertex 0's state
};

WeightedGraph path4() { return path_graph(4, WeightLaw::kUnit, 1.0, 1); }

TEST(Scheduler, PipelinedRelayDeliversEverything) {
  const WeightedGraph g = path4();
  Network net(g);
  std::vector<int> received(4, 0);
  RelayProgram program(4, 5, received);
  const CostStats cost = Scheduler(net, program).run();
  EXPECT_EQ(received[1], 5);
  EXPECT_EQ(received[2], 5);
  EXPECT_EQ(received[3], 5);
  // Pipelining: 5 tokens over 3 hops needs about 5 + 3 rounds, not 15.
  EXPECT_LE(cost.rounds, 10u);
  EXPECT_EQ(cost.max_edge_load, 1u);
  EXPECT_EQ(cost.messages, 15u);
}

TEST(Scheduler, StrictModeRejectsCongestion) {
  const WeightedGraph g = path4();
  Network net(g);
  FloodProgram program;
  Scheduler sched(net, program);
  EXPECT_THROW(sched.run(), std::logic_error);
}

TEST(Scheduler, RelaxedModeCountsLoad) {
  const WeightedGraph g = path4();
  Network net(g);
  FloodProgram program;
  SchedulerOptions options;
  options.strict_congest = false;
  const CostStats cost = Scheduler(net, program, options).run();
  EXPECT_EQ(cost.max_edge_load, 2u);
}

TEST(Scheduler, QuiescentNetworkStopsImmediately) {
  const WeightedGraph g = path4();
  Network net(g);
  std::vector<int> received(4, 0);
  RelayProgram program(4, 0, received);
  const CostStats cost = Scheduler(net, program).run();
  EXPECT_EQ(cost.rounds, 1u);
  EXPECT_EQ(cost.messages, 0u);
}

TEST(Message, WordBudgetEnforced) {
  EXPECT_NO_THROW(Message(1, {1, 2, 3}));
  EXPECT_THROW(Message(1, {1, 2, 3, 4}), std::logic_error);
}

TEST(Message, WeightEncodingRoundTrips) {
  for (Weight w : {0.0, 1.0, 3.14159, 1e-12, 1e12}) {
    EXPECT_DOUBLE_EQ(Message::decode_weight(Message::encode_weight(w)), w);
  }
}

TEST(RoundLedger, AccumulatesPhases) {
  RoundLedger ledger;
  CostStats a;
  a.rounds = 10;
  a.messages = 100;
  a.max_edge_load = 1;
  CostStats b;
  b.rounds = 5;
  b.messages = 7;
  b.max_edge_load = 3;
  ledger.add("a", a);
  ledger.add("b", b);
  EXPECT_EQ(ledger.total().rounds, 15u);
  EXPECT_EQ(ledger.total().messages, 107u);
  EXPECT_EQ(ledger.total().max_edge_load, 3u);
  EXPECT_EQ(ledger.phases().size(), 2u);

  RoundLedger outer;
  outer.absorb(ledger, "inner");
  EXPECT_EQ(outer.total().rounds, 15u);
  EXPECT_EQ(outer.phases()[0].first, "inner/a");
}

TEST(Scheduler, ScratchAdoptionIsBitIdenticalAndReusesCapacity) {
  const WeightedGraph g = path4();
  auto run_relay = [&](SchedulerScratch* scratch) {
    Network net(g);
    std::vector<int> received(4, 0);
    RelayProgram program(4, 5, received);
    SchedulerOptions options;
    options.scratch = scratch;
    const CostStats cost = Scheduler(net, program, options).run();
    return std::make_pair(received, cost);
  };
  const auto [plain_recv, plain_cost] = run_relay(nullptr);

  SchedulerScratch scratch;
  const auto [first_recv, first_cost] = run_relay(&scratch);
  EXPECT_FALSE(scratch.in_use);  // returned at Scheduler destruction
  EXPECT_EQ(scratch.adoptions, 1u);
  const std::size_t warm_capacity = scratch.arena.capacity();
  EXPECT_GT(warm_capacity, 0u);  // grown buffers came back

  const auto [second_recv, second_cost] = run_relay(&scratch);
  EXPECT_EQ(scratch.adoptions, 2u);
  EXPECT_GE(scratch.arena.capacity(), warm_capacity);

  // Adopted capacity is cleared before use: execution is bit-identical
  // with or without a scratch, warm or cold.
  EXPECT_EQ(first_recv, plain_recv);
  EXPECT_EQ(second_recv, plain_recv);

  // Without a donated pool a run adopts its thread's own, so a repeat of
  // the plain run regrows nothing.
  const auto [repeat_recv, repeat_cost] = run_relay(nullptr);
  EXPECT_EQ(repeat_recv, plain_recv);
  EXPECT_EQ(repeat_cost.inbox_reallocs, 0u);

  // Nested runs without a donated pool: the outer run holds the thread's
  // pool, so a run started from inside one of its programs finds the pool
  // in use and builds private buffers. Both runs equal the unnested one,
  // and neither touches the donated scratch.
  std::pair<std::vector<int>, CostStats> inner;
  std::vector<int> outer_recv(4, 0);
  CostStats outer_cost;
  {
    Network net(g);
    RelayProgram relay(4, 5, outer_recv);
    NestingProgram program(relay, [&] { inner = run_relay(nullptr); });
    outer_cost = Scheduler(net, program).run();
  }
  EXPECT_EQ(inner.first, plain_recv);
  EXPECT_EQ(outer_recv, plain_recv);
  EXPECT_EQ(scratch.adoptions, 2u);
  EXPECT_FALSE(scratch.in_use);

  for (const CostStats& cost :
       {first_cost, second_cost, repeat_cost, inner.second, outer_cost}) {
    EXPECT_EQ(cost.rounds, plain_cost.rounds);
    EXPECT_EQ(cost.messages, plain_cost.messages);
    EXPECT_EQ(cost.words, plain_cost.words);
    EXPECT_EQ(cost.max_edge_load, plain_cost.max_edge_load);
  }
}

// The batched-payload arenas travel between runs in the scratch pool, so
// their capacities must not depend on which runs came first: a small run
// that leaves a few hundred words of capacity in both arenas, then a large
// one, ends with the same stage arena as the large run alone. Each run
// hands back the arena its round 0 filled as the stage arena, so the next
// run's round 0 reuses it.
TEST(Scheduler, WordArenasDoNotDependOnEarlierRuns) {
  const WeightedGraph g = star_graph(11, WeightLaw::kUnit, 1.0, 1);
  const auto run = [&](SchedulerScratch& scratch, size_t width, int rounds) {
    Network net(g);
    WideBatchProgram program(width, rounds);
    SchedulerOptions options;
    options.strict_congest = false;  // batches wider than one message
    options.scratch = &scratch;
    // The arenas return to the pool when the scheduler is destroyed.
    const CostStats cost = Scheduler(net, program, options).run();
    EXPECT_EQ(cost.words, 10 * width * static_cast<size_t>(rounds));
  };
  SchedulerScratch alone;
  run(alone, 100, 1);  // 1000 words in one round
  EXPECT_GE(alone.stage_words.capacity(), 1000u);
  EXPECT_EQ(alone.deliver_words.capacity(), 0u);

  SchedulerScratch warmed;
  run(warmed, 35, 2);  // 350 words in each of two rounds: both arenas grow
  run(warmed, 100, 1);
  EXPECT_EQ(warmed.stage_words.capacity(), alone.stage_words.capacity());
  EXPECT_LE(warmed.deliver_words.capacity(), alone.stage_words.capacity());
}

TEST(RoundLedger, GlobalBroadcastChargeShape) {
  RoundLedger ledger;
  ledger.charge_global_broadcast("bc", 100, 7);
  // Lemma 1: O(M + D) rounds.
  EXPECT_GE(ledger.total().rounds, 100u);
  EXPECT_LE(ledger.total().rounds, 100u + 2 * 7u + 1u);
}

}  // namespace
}  // namespace lightnet::congest

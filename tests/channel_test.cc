// Channel isolation contracts for the concurrent-scale machinery.
//
// (1) Scheduler level: two logical channels share one execution. A payload
//     tagged for channel A must never reach the channel-B dispatch branch,
//     and the per-channel cost slices must partition the untagged totals
//     (Σ per_channel == messages/words, CostStats invariant).
// (2) Registry level: doubling_spanner's fused concurrent-scale pipeline
//     and the sequential_scales reference mode produce bit-identical
//     spanners across er/geo/ring/grid at n=256 — the acceptance gate for
//     treating the fused pipeline as a drop-in replacement.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "congest/scheduler.h"
#include "graph/generators.h"

namespace lightnet {
namespace {

using congest::Delivery;
using congest::Network;
using congest::NodeContext;
using congest::NodeProgram;
using congest::Scheduler;
using congest::SchedulerOptions;

constexpr std::uint32_t kTagA = 40;
constexpr std::uint32_t kTagB = 41;
// Payload encoding: word = channel * kChannelStride + sender. The payload
// itself carries which channel it was staged on, so a cross-channel leak
// shows up as a channel/payload mismatch at the receiver.
constexpr std::uint64_t kChannelStride = 1'000'003;

struct Seen {
  VertexId to;
  VertexId from;
  std::uint8_t channel;
  std::uint64_t word;
};

// Round 0 sends on every link on channel 0, round 1 on channel 1
// (alternating rounds keep each edge at load 1 under strict CONGEST). Every
// delivery is logged through the receiver's per-channel dispatch.
class TwoChannelProgram final : public NodeProgram {
 public:
  TwoChannelProgram(int n, std::vector<Seen>& log)
      : done_(static_cast<size_t>(n), 0), log_(log) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const VertexId self = ctx.self();
    for (const Delivery& d : inbox) {
      // The dispatch the wave kernels use: branch on Message::channel.
      if (d.msg.channel == 0) {
        log_.push_back({self, d.from, 0, d.msg.word(0)});
      } else {
        log_.push_back({self, d.from, d.msg.channel, d.msg.word(0)});
      }
    }
    if (ctx.round() == 0) {
      const std::uint64_t payload[] = {static_cast<std::uint64_t>(self)};
      send_on_every_link(ctx, kTagA, payload, /*channel=*/0);
    } else if (ctx.round() == 1) {
      const std::uint64_t payload[] = {kChannelStride +
                                       static_cast<std::uint64_t>(self)};
      send_on_every_link(ctx, kTagB, payload, /*channel=*/1);
      done_[static_cast<size_t>(self)] = 1;
    }
  }

  bool quiescent(VertexId v) const override {
    return done_[static_cast<size_t>(v)] != 0;
  }

 private:
  static void send_on_every_link(NodeContext& ctx, std::uint32_t tag,
                                 std::span<const std::uint64_t> payload,
                                 std::uint8_t channel) {
    for (size_t li = 0; li < ctx.links().size(); ++li)
      ctx.send_words_on_link(static_cast<int>(li), tag, payload, channel);
  }

  std::vector<std::uint8_t> done_;
  std::vector<Seen>& log_;
};

TEST(ChannelIsolation, TaggedPayloadsNeverCrossChannels) {
  const WeightedGraph g =
      erdos_renyi(32, 0.2, WeightLaw::kUniform, 20.0, 123);
  const std::uint64_t m = static_cast<std::uint64_t>(g.num_edges());
  std::vector<Seen> log;

  Network net(g);
  TwoChannelProgram program(g.num_vertices(), log);
  SchedulerOptions options;
  options.channels = 2;
  const congest::CostStats cost = Scheduler(net, program, options).run();

  // Every round's sends reach both endpoints of every edge, once per round.
  ASSERT_EQ(log.size(), 4 * m);
  std::uint64_t seen_per_channel[2] = {0, 0};
  for (const Seen& s : log) {
    ASSERT_LT(s.channel, 2);
    ++seen_per_channel[s.channel];
    // The payload names the channel it was staged on; a delivery whose
    // channel byte disagrees would be a cross-channel leak.
    EXPECT_EQ(s.word / kChannelStride, s.channel)
        << "payload staged on channel " << (s.word / kChannelStride)
        << " surfaced in the channel-" << int(s.channel) << " branch";
    EXPECT_EQ(s.word % kChannelStride, static_cast<std::uint64_t>(s.from));
  }
  EXPECT_EQ(seen_per_channel[0], 2 * m);
  EXPECT_EQ(seen_per_channel[1], 2 * m);

  // Per-channel congestion partitions the untagged ledger exactly.
  ASSERT_EQ(cost.per_channel.size(), 2u);
  EXPECT_EQ(cost.per_channel[0].messages + cost.per_channel[1].messages,
            cost.messages);
  EXPECT_EQ(cost.per_channel[0].words + cost.per_channel[1].words, cost.words);
  EXPECT_EQ(cost.per_channel[0].messages, 2 * m);
  EXPECT_EQ(cost.per_channel[1].messages, 2 * m);
  EXPECT_EQ(cost.per_channel[0].max_edge_load, 1u);
  EXPECT_EQ(cost.per_channel[1].max_edge_load, 1u);
  EXPECT_EQ(cost.max_edge_load, 1u);
}

TEST(ChannelIsolation, ConcurrentAndSequentialScalesBitIdentical) {
  const api::Construction* spanner =
      api::find_construction("doubling_spanner");
  ASSERT_NE(spanner, nullptr);
  for (const char* family : {"er", "geo", "ring", "grid"}) {
    api::ScenarioSpec scenario;
    scenario.family = family;
    scenario.n = 256;
    scenario.seed = 7;
    const WeightedGraph g = api::materialize(scenario);

    api::RunContext ctx;
    ctx.seed = scenario.seed;
    const api::Artifact fused =
        spanner->run(g, api::ConstructionParams{}, ctx);
    ctx.sched.sequential_scales = true;
    const api::Artifact reference =
        spanner->run(g, api::ConstructionParams{}, ctx);

    // The spanner itself is bit-identical; only the cost ledger and the
    // per-scale diagnostics may differ between the two pipelines.
    EXPECT_EQ(fused.edges, reference.edges) << family;
    EXPECT_EQ(fused.vertices, reference.vertices) << family;
  }
}

}  // namespace
}  // namespace lightnet

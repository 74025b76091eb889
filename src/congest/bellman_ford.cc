#include "congest/bellman_ford.h"

#include <utility>

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet::congest {

namespace {

constexpr std::uint32_t kTagDist = 20;

class BellmanFordProgram final : public NodeProgram {
 public:
  BellmanFordProgram(std::vector<std::uint8_t> unsent_source,
                     const BellmanFordOptions& options, BellmanFordResult& out)
      : unsent_source_(std::move(unsent_source)), options_(options),
        out_(out) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    // A source announces its zero distance on its first invocation: round 0,
    // or its restart round if a crash kept it down from round 0.
    bool dirty = unsent_source_[v] != 0;
    unsent_source_[v] = 0;
    for (const Delivery& d : inbox) {
      LN_ASSERT(d.msg.tag == kTagDist);
      const VertexId owner = static_cast<VertexId>(d.msg.word(0));
      const Weight sender_dist = Message::decode_weight(d.msg.word(1));
      const Weight cand =
          sender_dist + ctx.network().graph().edge(d.edge).w;
      if (cand > options_.distance_bound) continue;
      if (cand < out_.dist[v]) {
        out_.dist[v] = cand;
        out_.parent[v] = d.from;
        out_.parent_edge[v] = d.edge;
        out_.owner[v] = owner;
        dirty = true;
      }
    }
    if (!dirty) return;
    const Message msg(kTagDist, {static_cast<std::uint64_t>(out_.owner[v]),
                                 Message::encode_weight(out_.dist[v])});
    const int degree = static_cast<int>(ctx.links().size());
    for (int i = 0; i < degree; ++i) ctx.send_on_link(i, msg);
  }

  bool quiescent(VertexId) const override { return true; }

 private:
  std::vector<std::uint8_t> unsent_source_;
  const BellmanFordOptions& options_;
  BellmanFordResult& out_;
};

}  // namespace

BellmanFordResult distributed_bellman_ford(const WeightedGraph& g,
                                           std::span<const VertexId> sources,
                                           BellmanFordOptions options,
                                           SchedulerOptions sched_options) {
  const Network net(g);
  return distributed_bellman_ford(net, sources, options, sched_options);
}

BellmanFordResult distributed_bellman_ford(const Network& net,
                                           std::span<const VertexId> sources,
                                           BellmanFordOptions options,
                                           SchedulerOptions sched_options) {
  const WeightedGraph& g = net.graph();
  BellmanFordResult result;
  const size_t n = static_cast<size_t>(g.num_vertices());
  result.dist.assign(n, kInfiniteDistance);
  result.parent.assign(n, kNoVertex);
  result.parent_edge.assign(n, kNoEdge);
  result.owner.assign(n, kNoVertex);

  std::vector<std::uint8_t> is_source(n, 0);
  for (VertexId s : sources) {
    LN_REQUIRE(s >= 0 && s < g.num_vertices(), "source out of range");
    is_source[static_cast<size_t>(s)] = 1;
    result.dist[static_cast<size_t>(s)] = 0.0;
    result.owner[static_cast<size_t>(s)] = s;
  }

  BellmanFordProgram program(std::move(is_source), options, result);
  result.cost = Scheduler(net, program, sched_options).run();
  return result;
}

}  // namespace lightnet::congest

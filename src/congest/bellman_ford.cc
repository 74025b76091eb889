#include "congest/bellman_ford.h"

#include <memory>

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet::congest {

namespace {

constexpr std::uint32_t kTagDist = 20;

class BellmanFordProgram final : public NodeProgram {
 public:
  BellmanFordProgram(VertexId self, bool is_source,
                     const BellmanFordOptions& options,
                     BellmanFordResult& out)
      : self_(self), options_(options), out_(out) {
    if (is_source) {
      out_.dist[static_cast<size_t>(self_)] = 0.0;
      out_.owner[static_cast<size_t>(self_)] = self_;
      dirty_ = true;
    }
  }

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    for (const Delivery& d : inbox) {
      LN_ASSERT(d.msg.tag == kTagDist);
      const VertexId owner = static_cast<VertexId>(d.msg.word(0));
      const Weight sender_dist = Message::decode_weight(d.msg.word(1));
      const Weight cand =
          sender_dist + ctx.network().graph().edge(d.edge).w;
      if (cand > options_.distance_bound) continue;
      if (cand < out_.dist[static_cast<size_t>(self_)]) {
        out_.dist[static_cast<size_t>(self_)] = cand;
        out_.parent[static_cast<size_t>(self_)] = d.from;
        out_.parent_edge[static_cast<size_t>(self_)] = d.edge;
        out_.owner[static_cast<size_t>(self_)] = owner;
        dirty_ = true;
      }
    }
    if (dirty_) {
      const Message msg(
          kTagDist,
          {static_cast<std::uint64_t>(out_.owner[static_cast<size_t>(self_)]),
           Message::encode_weight(out_.dist[static_cast<size_t>(self_)])});
      const int degree = static_cast<int>(ctx.links().size());
      for (int i = 0; i < degree; ++i) ctx.send_on_link(i, msg);
    }
    dirty_ = false;
  }

  bool quiescent() const override { return !dirty_; }

 private:
  VertexId self_;
  const BellmanFordOptions& options_;
  BellmanFordResult& out_;
  bool dirty_ = false;
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

  std::vector<char> is_source(n, 0);
  for (VertexId s : sources) {
    LN_REQUIRE(s >= 0 && s < g.num_vertices(), "source out of range");
    is_source[static_cast<size_t>(s)] = 1;
  }

  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(n);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    programs.push_back(std::make_unique<BellmanFordProgram>(
        v, is_source[static_cast<size_t>(v)] != 0, options, result));
  Scheduler scheduler(net, std::move(programs), sched_options);
  result.cost = scheduler.run();
  return result;
}

}  // namespace lightnet::congest

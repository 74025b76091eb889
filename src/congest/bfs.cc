#include "congest/bfs.h"

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet::congest {

namespace {

constexpr std::uint32_t kTagBfs = 1;

// Flood from the root: a vertex joins on its first announcement (depth >= 0
// marks a joined vertex) and announces its depth once, in the same call.
class BfsProgram final : public NodeProgram {
 public:
  explicit BfsProgram(BfsTreeResult& out) : out_(out) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    bool announce = ctx.round() == 0 && ctx.self() == out_.root;
    if (announce) out_.depth[v] = 0;
    // First announcement wins; ties broken by sender id via inbox order
    // being deterministic (links are scanned in CSR order).
    if (!inbox.empty() && out_.depth[v] < 0) {
      out_.parent[v] = inbox[0].from;
      out_.depth[v] = static_cast<int>(inbox[0].msg.word(0)) + 1;
      announce = true;
    }
    if (!announce) return;
    const Message msg(kTagBfs, {static_cast<std::uint64_t>(out_.depth[v])});
    const auto links = ctx.links();
    for (int i = 0; i < static_cast<int>(links.size()); ++i)
      if (links[static_cast<size_t>(i)].neighbor != out_.parent[v])
        ctx.send_on_link(i, msg);
  }

  bool quiescent(VertexId) const override { return true; }

 private:
  BfsTreeResult& out_;
};

// Fixpoint BFS over the reliable transport. Where BfsProgram trusts "first
// delivery wins" (sound only because the fault-free scheduler delivers
// whole frontiers in lockstep), this program keeps the best (depth, parent)
// seen so far under the canonical order — smaller depth, ties to smaller
// parent id — and re-announces on every improvement. Announcements are
// exactly-once and FIFO per link, so each node improves at most O(deg)
// times and the fixpoint is the true BFS depth with the min-id parent:
// precisely the tree the plain program builds fault-free.
class ReliableBfsProgram final : public NodeProgram {
 public:
  explicit ReliableBfsProgram(BfsTreeResult& out) : out_(out) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    int& depth = out_.depth[static_cast<size_t>(ctx.self())];
    VertexId& parent = out_.parent[static_cast<size_t>(ctx.self())];
    bool announce = ctx.round() == 0 && ctx.self() == out_.root;
    if (announce) depth = 0;
    for (const Delivery& d : inbox) {
      const int cand = static_cast<int>(d.msg.word(0)) + 1;
      if (depth < 0 || cand < depth || (cand == depth && d.from < parent)) {
        depth = cand;
        parent = d.from;
        announce = true;
      }
    }
    if (!announce) return;
    const Message msg(kTagBfs, {static_cast<std::uint64_t>(depth)});
    for (int i = 0; i < static_cast<int>(ctx.links().size()); ++i)
      ctx.reliable_send_on_link(i, msg);
  }

  bool quiescent(VertexId) const override { return true; }

 private:
  BfsTreeResult& out_;
};

template <typename Program>
BfsTreeResult run_bfs(const WeightedGraph& g, VertexId root,
                      SchedulerOptions sched_options) {
  LN_REQUIRE(root >= 0 && root < g.num_vertices(), "root out of range");
  BfsTreeResult result;
  result.root = root;
  result.parent.assign(static_cast<size_t>(g.num_vertices()), kNoVertex);
  result.depth.assign(static_cast<size_t>(g.num_vertices()), -1);

  Network net(g);
  Program program(result);
  result.cost = Scheduler(net, program, sched_options).run();

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (result.depth[static_cast<size_t>(v)] < 0) continue;
    ++result.reached;
    result.height =
        std::max(result.height, result.depth[static_cast<size_t>(v)]);
  }
  return result;
}

}  // namespace

BfsTreeResult build_bfs_tree(const WeightedGraph& g, VertexId root,
                             SchedulerOptions sched_options) {
  BfsTreeResult result = run_bfs<BfsProgram>(g, root, sched_options);
  LN_REQUIRE(result.reached == g.num_vertices(), "graph is not connected");
  return result;
}

BfsTreeResult build_bfs_tree_reliable(const WeightedGraph& g, VertexId root,
                                      SchedulerOptions sched_options) {
  sched_options.strict_congest = false;
  sched_options.threads = 1;  // the transport's link state machine is serial
  return run_bfs<ReliableBfsProgram>(g, root, sched_options);
}

}  // namespace lightnet::congest

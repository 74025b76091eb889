#include "congest/bfs.h"

#include <memory>

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet::congest {

namespace {

constexpr std::uint32_t kTagBfs = 1;

class BfsProgram final : public NodeProgram {
 public:
  BfsProgram(VertexId self, VertexId root, std::vector<VertexId>& parent,
             std::vector<int>& depth)
      : self_(self), root_(root), parent_(parent), depth_(depth) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    if (ctx.round() == 0 && self_ == root_) {
      depth_[static_cast<size_t>(self_)] = 0;
      joined_ = true;
      announce_ = true;
    }
    for (const Delivery& d : inbox) {
      if (joined_) break;
      // First announcement wins; ties broken by sender id via inbox order
      // being deterministic (links are scanned in CSR order).
      joined_ = true;
      parent_[static_cast<size_t>(self_)] = d.from;
      depth_[static_cast<size_t>(self_)] =
          static_cast<int>(d.msg.word(0)) + 1;
      announce_ = true;
    }
    if (announce_) {
      const Message msg(kTagBfs,
                        {static_cast<std::uint64_t>(
                            depth_[static_cast<size_t>(self_)])});
      const auto links = ctx.links();
      for (int i = 0; i < static_cast<int>(links.size()); ++i)
        if (links[static_cast<size_t>(i)].neighbor !=
            parent_[static_cast<size_t>(self_)])
          ctx.send_on_link(i, msg);
      announce_ = false;
    }
  }

  bool quiescent() const override { return !announce_; }

 private:
  VertexId self_;
  VertexId root_;
  std::vector<VertexId>& parent_;
  std::vector<int>& depth_;
  bool joined_ = false;
  bool announce_ = false;
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
  ReliableBfsProgram(VertexId self, VertexId root,
                     std::vector<VertexId>& parent, std::vector<int>& depth)
      : self_(self), root_(root), parent_(parent), depth_(depth) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    if (ctx.round() == 0 && self_ == root_) {
      depth_[static_cast<size_t>(self_)] = 0;
      announce_ = true;
    }
    int& depth = depth_[static_cast<size_t>(self_)];
    VertexId& parent = parent_[static_cast<size_t>(self_)];
    for (const Delivery& d : inbox) {
      const int cand = static_cast<int>(d.msg.word(0)) + 1;
      if (depth < 0 || cand < depth || (cand == depth && d.from < parent)) {
        depth = cand;
        parent = d.from;
        announce_ = true;
      }
    }
    if (announce_) {
      const Message msg(kTagBfs, {static_cast<std::uint64_t>(depth)});
      for (int i = 0; i < static_cast<int>(ctx.links().size()); ++i)
        ctx.reliable_send_on_link(i, msg);
      announce_ = false;
    }
  }

  bool quiescent() const override { return !announce_; }

 private:
  VertexId self_;
  VertexId root_;
  std::vector<VertexId>& parent_;
  std::vector<int>& depth_;
  bool announce_ = false;
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
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(static_cast<size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    programs.push_back(
        std::make_unique<Program>(v, root, result.parent, result.depth));
  Scheduler scheduler(net, std::move(programs), sched_options);
  result.cost = scheduler.run();

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

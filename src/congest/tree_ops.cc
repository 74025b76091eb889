#include "congest/tree_ops.h"

#include <bit>
#include <limits>
#include <unordered_set>

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet::congest {

namespace {

constexpr std::uint32_t kTagGather = 10;
constexpr std::uint32_t kTagBroadcast = 11;
constexpr std::uint32_t kTagAggregate = 12;

// Each non-root vertex forwards its queue (own items, then what its children
// sent) to its parent, one item per round.
class GatherProgram final : public NodeProgram {
 public:
  GatherProgram(const BfsTreeResult& tree,
                const std::vector<std::vector<TreeItem>>& items, bool dedupe,
                std::vector<TreeItem>& root_sink)
      : tree_(tree), root_sink_(root_sink), queue_(items.size()),
        cursor_(items.size(), 0), seen_keys_(dedupe ? items.size() : 0) {
    for (size_t v = 0; v < items.size(); ++v)
      for (const TreeItem& item : items[v]) accept(v, item);
  }

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    for (const Delivery& d : inbox) {
      LN_ASSERT(d.msg.tag == kTagGather);
      accept(v, {d.msg.word(0), d.msg.word(1), d.msg.word(2)});
    }
    if (quiescent(ctx.self())) return;
    const TreeItem& item = queue_[v][cursor_[v]++];
    ctx.send(tree_.parent[v], Message(kTagGather, {item.key, item.a, item.b}));
  }

  bool quiescent(VertexId v) const override {
    const size_t i = static_cast<size_t>(v);
    return v == tree_.root || cursor_[i] >= queue_[i].size();
  }

 private:
  void accept(size_t v, const TreeItem& item) {
    if (!seen_keys_.empty() && !seen_keys_[v].insert(item.key).second) return;
    if (static_cast<VertexId>(v) == tree_.root) {
      root_sink_.push_back(item);
    } else {
      queue_[v].push_back(item);
    }
  }

  const BfsTreeResult& tree_;
  std::vector<TreeItem>& root_sink_;
  std::vector<std::vector<TreeItem>> queue_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::unordered_set<std::uint64_t>> seen_keys_;  // when deduping
};

// The root's items travel down the tree in order, one per round per edge, so
// a vertex's queue is the prefix of `items` it has received so far; a lost
// item fails the reach check after the run.
class BroadcastProgram final : public NodeProgram {
 public:
  BroadcastProgram(const Network& net, const BfsTreeResult& tree,
                   const std::vector<TreeItem>& items,
                   std::vector<int>& received)
      : items_(items), received_(received), child_begin_(received.size() + 1),
        cursor_(received.size(), 0) {
    // Each vertex's links to its children, ascending by child id.
    const size_t n = received.size();
    for (size_t v = 0; v < n; ++v)
      if (tree.parent[v] != kNoVertex)
        ++child_begin_[static_cast<size_t>(tree.parent[v]) + 1];
    for (size_t v = 0; v < n; ++v) child_begin_[v + 1] += child_begin_[v];
    child_links_.resize(child_begin_[n]);
    std::vector<std::uint32_t> fill(child_begin_.begin(),
                                    child_begin_.end() - 1);
    for (size_t v = 0; v < n; ++v) {
      const VertexId p = tree.parent[v];
      if (p == kNoVertex) continue;
      child_links_[fill[static_cast<size_t>(p)]++] =
          net.link_index(p, static_cast<VertexId>(v));
    }
    received_[static_cast<size_t>(tree.root)] = static_cast<int>(items.size());
  }

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    for (const Delivery& d : inbox) {
      LN_ASSERT(d.msg.tag == kTagBroadcast);
      ++received_[v];
    }
    if (quiescent(ctx.self())) return;
    const TreeItem& item = items_[cursor_[v]++];
    const Message msg(kTagBroadcast, {item.key, item.a, item.b});
    for (std::uint32_t i = child_begin_[v]; i < child_begin_[v + 1]; ++i)
      ctx.send_on_link(child_links_[i], msg);
  }

  bool quiescent(VertexId v) const override {
    return cursor_[static_cast<size_t>(v)] >=
           static_cast<std::uint32_t>(received_[static_cast<size_t>(v)]);
  }

 private:
  const std::vector<TreeItem>& items_;
  std::vector<int>& received_;
  std::vector<std::uint32_t> child_begin_;  // CSR offsets into child_links_
  std::vector<int> child_links_;
  std::vector<std::uint32_t> cursor_;
};

// Per vertex and key, the best contribution so far (vertex-major, num_keys
// per vertex) and how many children have reported the key; a vertex passes
// key k up once all its children have, keys in ascending order.
class AggregateProgram final : public NodeProgram {
 public:
  AggregateProgram(const BfsTreeResult& tree, int num_keys,
                   const std::vector<std::vector<TreeItem>>& contributions,
                   std::vector<TreeItem>& root_sink)
      : tree_(tree), num_keys_(num_keys), root_sink_(root_sink),
        num_children_(contributions.size(), 0),
        best_(contributions.size() * static_cast<size_t>(num_keys),
              TreeItem{0, kMinusInfinity, 0}),
        received_(best_.size(), 0), cursor_(contributions.size(), 0) {
    for (VertexId p : tree.parent)
      if (p != kNoVertex) ++num_children_[static_cast<size_t>(p)];
    for (size_t v = 0; v < contributions.size(); ++v)
      for (const TreeItem& item : contributions[v]) {
        LN_ASSERT(item.key < static_cast<std::uint64_t>(num_keys));
        consider(v, item);
      }
  }

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    for (const Delivery& d : inbox) {
      LN_ASSERT(d.msg.tag == kTagAggregate);
      const TreeItem item{d.msg.word(0), d.msg.word(1), d.msg.word(2)};
      consider(v, item);
      ++received_[slot(v, static_cast<int>(item.key))];
    }
    int& cursor = cursor_[v];
    if (ctx.self() == tree_.root) {
      // Root finalizes keys in order as their subtrees complete.
      while (cursor < num_keys_ && complete(v, cursor))
        root_sink_.push_back(finalized(v, cursor++));
      return;
    }
    if (cursor < num_keys_ && complete(v, cursor)) {
      const TreeItem item = finalized(v, cursor++);
      ctx.send(tree_.parent[v],
               Message(kTagAggregate, {item.key, item.a, item.b}));
    }
  }

  bool quiescent(VertexId v) const override {
    return cursor_[static_cast<size_t>(v)] >= num_keys_;
  }

 private:
  static constexpr std::uint64_t kMinusInfinity =
      std::bit_cast<std::uint64_t>(-std::numeric_limits<Weight>::infinity());

  size_t slot(size_t v, int key) const {
    return v * static_cast<size_t>(num_keys_) + static_cast<size_t>(key);
  }
  bool complete(size_t v, int key) const {
    return received_[slot(v, key)] == num_children_[v];
  }
  void consider(size_t v, const TreeItem& item) {
    TreeItem& best = best_[slot(v, static_cast<int>(item.key))];
    if (Message::decode_weight(item.a) > Message::decode_weight(best.a))
      best = item;
  }
  // An absent key keeps a = -infinity, with b = 0.
  TreeItem finalized(size_t v, int key) const {
    TreeItem item = best_[slot(v, key)];
    item.key = static_cast<std::uint64_t>(key);
    return item;
  }

  const BfsTreeResult& tree_;
  int num_keys_;
  std::vector<TreeItem>& root_sink_;
  std::vector<int> num_children_;
  std::vector<TreeItem> best_;
  std::vector<int> received_;
  std::vector<int> cursor_;
};

}  // namespace

GatherResult gather_to_root(const WeightedGraph& g, const BfsTreeResult& tree,
                            const std::vector<std::vector<TreeItem>>& items,
                            bool dedupe_by_key, SchedulerOptions sched) {
  LN_REQUIRE(static_cast<int>(items.size()) == g.num_vertices(),
             "one item list per vertex required");
  GatherResult result;
  Network net(g);
  GatherProgram program(tree, items, dedupe_by_key, result.items);
  result.cost = Scheduler(net, program, sched).run();
  return result;
}

BroadcastResult broadcast_from_root(const WeightedGraph& g,
                                    const BfsTreeResult& tree,
                                    const std::vector<TreeItem>& items,
                                    SchedulerOptions sched) {
  BroadcastResult result;
  std::vector<int> received(static_cast<size_t>(g.num_vertices()), 0);
  Network net(g);
  BroadcastProgram program(net, tree, items, received);
  result.cost = Scheduler(net, program, sched).run();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == tree.root) continue;
    LN_ASSERT_MSG(received[static_cast<size_t>(v)] ==
                      static_cast<int>(items.size()),
                  "broadcast did not reach every vertex");
  }
  return result;
}

KeyedAggregateResult keyed_max_aggregate(
    const WeightedGraph& g, const BfsTreeResult& tree, int num_keys,
    const std::vector<std::vector<TreeItem>>& contributions,
    SchedulerOptions sched) {
  LN_REQUIRE(static_cast<int>(contributions.size()) == g.num_vertices(),
             "one contribution list per vertex required");
  KeyedAggregateResult result;
  Network net(g);
  AggregateProgram program(tree, num_keys, contributions, result.best);
  result.cost = Scheduler(net, program, sched).run();
  LN_ASSERT(static_cast<int>(result.best.size()) == num_keys);
  return result;
}

}  // namespace lightnet::congest

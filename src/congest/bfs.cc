#include "congest/bfs.h"

#include <algorithm>
#include <array>

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet::congest {

namespace {

constexpr std::uint32_t kTagBfs = 1;
// The reliable BFS's wire tags: a data frame [seq, 1 << 32 | kTagBfs,
// depth] and its cumulative ack [next expected seq].
constexpr std::uint32_t kTagFrame = 0xFFFF0001u;
constexpr std::uint32_t kTagAck = 0xFFFF0002u;

// Flood from the root: a vertex joins on its first announcement (depth >= 0
// marks a joined vertex) and announces its depth once, in the same call.
// The root floods the first time it runs (round 0, or its restart when a
// crash keeps it down from round 0).
class BfsProgram final : public NodeProgram {
 public:
  explicit BfsProgram(BfsTreeResult& out) : out_(out) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    bool announce = ctx.self() == out_.root && out_.depth[v] < 0;
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

// Fixpoint BFS over lossy links. Where BfsProgram trusts "first delivery
// wins" (sound only because the fault-free scheduler delivers whole
// frontiers in lockstep), this program keeps the best (depth, parent) seen
// so far under the canonical order — smaller depth, ties to smaller parent
// id — and re-announces on every improvement. Announcements are
// exactly-once and FIFO per link, so each node improves at most O(deg)
// times and the fixpoint is the true BFS depth with the min-id parent:
// precisely the tree the plain program builds fault-free.
//
// Exactly-once FIFO comes from per-link stop-and-wait held as program
// state. A vertex announces on every link it has not given up on, so link
// i's send queue is the suffix of the vertex's announcements past the
// link's acked count, and announcement k travels as sequence number k.
// At most one frame per link is unacked (window 1). The receiver accepts
// exactly the next expected sequence number and answers every data frame
// with a cumulative ack. An unacked frame is retransmitted when its timer
// expires, with exponential backoff (kInitialRto doubling to kMaxRto); the
// ack resets the backoff. After kMaxRetries consecutive retransmissions
// the link is given up: the peer is unreachable (crashed for good, or cut
// off), and the tree degrades instead of spinning to the round cap. A
// vertex with an unacked frame is not quiescent, so it runs every round
// and ticks its own timers; a crashed vertex is not run, so its timers
// freeze until it restarts. Frames and acks are ordinary messages charged
// to the ledger (an ack and a frame may share a directed slot in a round,
// hence strict_congest = false), and every retransmission counts into
// CostStats::retransmitted.
class ReliableBfsProgram final : public NodeProgram {
 public:
  static constexpr int kInitialRto = 3;  // > the 2-round lossless RTT
  static constexpr int kMaxRto = 32;
  static constexpr int kMaxRetries = 10;

  ReliableBfsProgram(const Network& net, BfsTreeResult& out)
      : out_(out),
        net_(net),
        announced_(out.depth.size()),
        links_(static_cast<size_t>(net.graph().num_edges()) * 2) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const VertexId self = ctx.self();
    const size_t v = static_cast<size_t>(self);
    Link* links = links_.data() + net_.link_base(self);
    int& depth = out_.depth[v];
    VertexId& parent = out_.parent[v];
    bool announce = self == out_.root && depth < 0;
    if (announce) depth = 0;
    for (const Delivery& d : inbox) {
      const int i = net_.link_index(self, d.from);
      Link& link = links[i];
      if (d.msg.tag == kTagAck) {
        if (link.in_flight && link.acked < d.msg.word(0)) {
          ++link.acked;
          link.in_flight = 0;
          link.retries = 0;
          link.rto = kInitialRto;
        }
        continue;
      }
      // Data frame: accept exactly the next expected sequence number,
      // discard duplicates; either way answer with a cumulative ack.
      if (d.msg.word(0) == link.recv) {
        ++link.recv;
        const int cand = static_cast<int>(d.msg.word(2)) + 1;
        if (depth < 0 || cand < depth || (cand == depth && d.from < parent)) {
          depth = cand;
          parent = d.from;
          announce = true;
        }
      }
      ctx.send_on_link(i, Message(kTagAck, {link.recv}));
    }
    std::vector<std::uint32_t>& mine = announced_[v];
    if (announce) mine.push_back(static_cast<std::uint32_t>(depth));
    // Every link with an unacked announcement sends its head if nothing is
    // in flight, else ticks its timer.
    const int degree = static_cast<int>(ctx.links().size());
    for (int i = 0; i < degree; ++i) {
      Link& link = links[i];
      if (link.dead || link.acked == mine.size()) continue;
      if (!link.in_flight) {
        transmit(ctx, i, link, mine);
        // A head sent along with a new announcement starts its timer next
        // round; one that an ack freed, a round later.
        link.sent = announce ? 0 : 1;
        continue;
      }
      if (link.sent) {
        link.sent = 0;
        continue;
      }
      if (--link.timer > 0) continue;
      if (link.retries >= kMaxRetries) {
        link.dead = 1;
        link.in_flight = 0;
        continue;
      }
      ++link.retries;
      link.rto = std::min(link.rto * 2, kMaxRto);
      ++lanes_[static_cast<size_t>(ctx.lane())].retransmitted;
      transmit(ctx, i, link, mine);
    }
  }

  bool quiescent(VertexId v) const override {
    const Link* links = links_.data() + net_.link_base(v);
    const size_t announced = announced_[static_cast<size_t>(v)].size();
    const size_t degree = net_.links(v).size();
    for (size_t i = 0; i < degree; ++i)
      if (!links[i].dead && links[i].acked != announced) return false;
    return true;
  }

  std::uint64_t retransmitted() const {
    std::uint64_t total = 0;
    for (const LaneCount& lane : lanes_) total += lane.retransmitted;
    return total;
  }

 private:
  // One directed link, at the Network's flat position link_base(v) + i;
  // only v's own on_round writes it.
  struct Link {
    std::uint32_t acked = 0;  // v's announcements the peer has acked
    std::uint32_t recv = 0;   // next sequence number expected from the peer
    std::int32_t timer = 0;
    std::int32_t rto = kInitialRto;
    std::int32_t retries = 0;
    std::uint8_t in_flight = 0;  // announcement `acked` sent, awaiting ack
    std::uint8_t sent = 0;       // sent this round: the timer waits a round
    std::uint8_t dead = 0;       // given up: the peer is unreachable
  };
  struct alignas(64) LaneCount {
    std::uint64_t retransmitted = 0;
  };

  // Sends link i's head, announcement `acked`.
  static void transmit(NodeContext& ctx, int i, Link& link,
                       const std::vector<std::uint32_t>& announced) {
    ctx.send_on_link(i, Message(kTagFrame, {link.acked,
                                            (1ull << 32) | kTagBfs,
                                            announced[link.acked]}));
    link.in_flight = 1;
    link.sent = 1;
    link.timer = link.rto;
  }

  BfsTreeResult& out_;
  const Network& net_;
  std::vector<std::vector<std::uint32_t>> announced_;  // per vertex
  std::vector<Link> links_;                             // per flat link
  std::array<LaneCount, Scheduler::kMaxLanes> lanes_;
};

BfsTreeResult unreached_tree(const WeightedGraph& g, VertexId root) {
  LN_REQUIRE(root >= 0 && root < g.num_vertices(), "root out of range");
  BfsTreeResult result;
  result.root = root;
  result.parent.assign(static_cast<size_t>(g.num_vertices()), kNoVertex);
  result.depth.assign(static_cast<size_t>(g.num_vertices()), -1);
  return result;
}

void count_reached(BfsTreeResult& result) {
  for (const int depth : result.depth) {
    if (depth < 0) continue;
    ++result.reached;
    result.height = std::max(result.height, depth);
  }
}

}  // namespace

BfsTreeResult build_bfs_tree(const WeightedGraph& g, VertexId root,
                             SchedulerOptions sched_options) {
  BfsTreeResult result = unreached_tree(g, root);
  Network net(g);
  BfsProgram program(result);
  result.cost = Scheduler(net, program, sched_options).run();
  count_reached(result);
  LN_REQUIRE(result.reached == g.num_vertices(), "graph is not connected");
  return result;
}

BfsTreeResult build_bfs_tree_reliable(const WeightedGraph& g, VertexId root,
                                      SchedulerOptions sched_options) {
  sched_options.strict_congest = false;
  BfsTreeResult result = unreached_tree(g, root);
  Network net(g);
  ReliableBfsProgram program(net, result);
  result.cost = Scheduler(net, program, sched_options).run();
  result.cost.retransmitted += program.retransmitted();
  count_reached(result);
  return result;
}

}  // namespace lightnet::congest

#include "routines/le_lists.h"

#include <algorithm>
#include <map>

#include "congest/scheduler.h"
#include "graph/shortest_paths.h"
#include "routines/approx_spt.h"
#include "support/assert.h"

namespace lightnet {

namespace {

using congest::Delivery;
using congest::Message;
using congest::NodeContext;
using congest::NodeProgram;

constexpr std::uint32_t kTagLe = 30;

// Pareto-front list: entries sorted by distance ascending, ranks strictly
// decreasing. insert() returns true if the new entry survived.
class ParetoList {
 public:
  bool insert(const LeListEntry& entry) {
    // Dominated if an existing entry is no farther and earlier in π.
    for (const LeListEntry& e : entries_) {
      if (e.dist > entry.dist) break;  // sorted: later ones are farther
      if (e.rank < entry.rank) {
        // Same source can only reappear with a *better* distance (monotone
        // relaxation), so equality of source here means domination too.
        return false;
      }
      if (e.source == entry.source) return false;  // same dist, same source
    }
    // Remove entries the new one dominates (farther and later in π), plus a
    // stale entry for the same source if present.
    std::erase_if(entries_, [&entry](const LeListEntry& e) {
      return e.source == entry.source ||
             (e.dist >= entry.dist && e.rank > entry.rank);
    });
    auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), entry,
        [](const LeListEntry& a, const LeListEntry& b) {
          if (a.dist != b.dist) return a.dist < b.dist;
          return a.rank < b.rank;
        });
    entries_.insert(pos, entry);
    return true;
  }

  const std::vector<LeListEntry>& entries() const { return entries_; }

 private:
  std::vector<LeListEntry> entries_;
};

// Per vertex: its Pareto front, and the entries it still has to forward,
// keyed by rank. The front is published to the result whenever the queue
// drains.
class LeListProgram final : public NodeProgram {
 public:
  LeListProgram(std::span<const char> is_active,
                std::span<const std::uint64_t> rank, Weight max_dist,
                LeListsResult& out)
      : max_dist_(max_dist), out_(out), list_(is_active.size()),
        pending_(is_active.size()) {
    for (size_t v = 0; v < is_active.size(); ++v) {
      if (!is_active[v]) continue;
      const LeListEntry own{static_cast<VertexId>(v), 0.0, rank[v]};
      list_[v].insert(own);
      pending_[v][own.rank] = own;
    }
  }

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    ParetoList& list = list_[v];
    std::map<std::uint64_t, LeListEntry>& pending = pending_[v];
    for (const Delivery& d : inbox) {
      LN_ASSERT(d.msg.tag == kTagLe);
      LeListEntry entry;
      entry.source = static_cast<VertexId>(d.msg.word(0));
      entry.rank = d.msg.word(1);
      entry.dist = Message::decode_weight(d.msg.word(2)) +
                   ctx.network().graph().edge(d.edge).w;
      // Truncation: entries past max_dist are dropped, not forwarded. The
      // surviving prefix of the list is unchanged (Pareto survival of an
      // entry depends only on entries no farther than itself).
      if (entry.dist > max_dist_) continue;
      if (list.insert(entry)) pending[entry.rank] = entry;
    }
    // Drop pending entries that were pruned from the list after queuing
    // (forwarding them would be wasted work, not incorrect).
    while (!pending.empty()) {
      const LeListEntry& cand = pending.begin()->second;
      bool still_live = false;
      for (const LeListEntry& e : list.entries())
        if (e.source == cand.source && e.dist == cand.dist) still_live = true;
      if (still_live) break;
      pending.erase(pending.begin());
    }
    if (!pending.empty()) {
      // Forward the earliest-rank pending entry to all neighbors: one
      // message per edge per round (strict CONGEST), pipelining the rest.
      const LeListEntry entry = pending.begin()->second;
      pending.erase(pending.begin());
      const Message msg(kTagLe,
                        {static_cast<std::uint64_t>(entry.source), entry.rank,
                         Message::encode_weight(entry.dist)});
      const int degree = static_cast<int>(ctx.links().size());
      for (int i = 0; i < degree; ++i) ctx.send_on_link(i, msg);
    }
    if (pending.empty()) out_.lists[v] = list.entries();
  }

  bool quiescent(VertexId v) const override {
    return pending_[static_cast<size_t>(v)].empty();
  }

 private:
  Weight max_dist_;
  LeListsResult& out_;
  std::vector<ParetoList> list_;
  std::vector<std::map<std::uint64_t, LeListEntry>> pending_;  // by rank
};

}  // namespace

LeListsResult compute_le_lists(const WeightedGraph& g,
                               std::span<const VertexId> active,
                               std::span<const std::uint64_t> rank,
                               double delta,
                               congest::SchedulerOptions sched) {
  const RoundedSubstrate substrate(g, delta);
  return compute_le_lists(substrate, active, rank, sched);
}

LeListsResult compute_le_lists(const RoundedSubstrate& substrate,
                               std::span<const VertexId> active,
                               std::span<const std::uint64_t> rank,
                               congest::SchedulerOptions sched,
                               Weight max_dist) {
  const WeightedGraph& h = substrate.rounded;
  LN_REQUIRE(rank.size() == static_cast<size_t>(h.num_vertices()),
             "one rank slot per vertex required");

  LeListsResult result;
  result.lists.assign(static_cast<size_t>(h.num_vertices()), {});

  std::vector<char> is_active(static_cast<size_t>(h.num_vertices()), 0);
  for (VertexId v : active) {
    LN_REQUIRE(v >= 0 && v < h.num_vertices(), "active vertex out of range");
    is_active[static_cast<size_t>(v)] = 1;
  }

  LeListProgram program(is_active, rank, max_dist, result);
  result.cost = congest::Scheduler(substrate.network, program, sched).run();

  for (const auto& list : result.lists)
    result.max_list_size = std::max(result.max_list_size, list.size());
  return result;
}

LeListsResult reference_le_lists(const WeightedGraph& g,
                                 std::span<const VertexId> active,
                                 std::span<const std::uint64_t> rank,
                                 double delta) {
  const WeightedGraph h = round_weights_up(g, delta);
  LeListsResult result;
  result.lists.assign(static_cast<size_t>(g.num_vertices()), {});

  // Sort active vertices by rank; for each v, walk them in π order keeping
  // the running closest distance.
  std::vector<VertexId> by_rank(active.begin(), active.end());
  std::sort(by_rank.begin(), by_rank.end(),
            [&rank](VertexId a, VertexId b) {
              return rank[static_cast<size_t>(a)] <
                     rank[static_cast<size_t>(b)];
            });
  std::vector<std::vector<Weight>> dist_from_active;
  dist_from_active.reserve(by_rank.size());
  for (VertexId u : by_rank)
    dist_from_active.push_back(dijkstra(h, u).dist);

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    Weight best = kInfiniteDistance;
    for (size_t i = 0; i < by_rank.size(); ++i) {
      const Weight d = dist_from_active[i][static_cast<size_t>(v)];
      if (d < best) {
        result.lists[static_cast<size_t>(v)].push_back(
            {by_rank[i], d, rank[static_cast<size_t>(by_rank[i])]});
        best = d;
      }
    }
    // Match the distributed convention: increasing distance (equivalently,
    // decreasing rank — the Pareto-front order).
    std::reverse(result.lists[static_cast<size_t>(v)].begin(),
                 result.lists[static_cast<size_t>(v)].end());
    result.max_list_size = std::max(
        result.max_list_size, result.lists[static_cast<size_t>(v)].size());
  }
  return result;
}

}  // namespace lightnet

#include "routines/bounded_multisource.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet {

namespace {

using congest::Delivery;
using congest::Message;
using congest::NodeContext;
using congest::NodeProgram;

constexpr std::uint32_t kTagBoundedBatch = 41;  // batched (source, dist) pairs

using SourceTable = std::vector<BoundedSourceEntry>;

constexpr auto kBySource = [](const BoundedSourceEntry& a,
                              const BoundedSourceEntry& b) {
  return a.source < b.source;
};

// First record of a source-sorted table whose source is not below `source`.
template <typename Table>  // SourceTable, const or not
auto table_find(Table& table, VertexId source) {
  return std::lower_bound(table.begin(), table.end(), source,
                          [](const BoundedSourceEntry& e, VertexId s) {
                            return e.source < s;
                          });
}

// The canonical rule for an offer of `cand` over G-edge `edge` from `from`
// against an existing record: a strict distance improvement replaces the
// record and returns true (the caller queues a re-announcement), an
// equal-distance offer only canonicalizes the parent. Among equal
// distances the smallest (parent, edge) pair wins, a total order, so the
// final table is the pointwise minimum over all offers — independent of
// arrival order, hence bit-identical across scheduler modes, reordered
// inboxes, and the per-scale/wave-fused groupings of the doubling
// pipeline.
bool offer_g_edge(BoundedSourceEntry& rec, Weight cand, VertexId from,
                  EdgeId edge) {
  const bool improved = cand < rec.dist;
  if (improved ||
      (cand == rec.dist &&
       (from < rec.parent || (from == rec.parent && edge < rec.parent_edge)))) {
    rec.dist = cand;
    rec.parent = from;
    rec.parent_edge = edge;
  }
  return improved;
}

BoundedSourceEntry g_edge_record(VertexId source, Weight dist, VertexId from,
                                 EdgeId edge) {
  BoundedSourceEntry e;
  e.dist = dist;
  e.source = source;
  e.parent = from;
  e.parent_edge = edge;
  return e;
}

// Seeds the zero-distance record of `source`, which has none yet, into its
// own (sorted) table.
void seed_self_record(SourceTable& table, VertexId source) {
  BoundedSourceEntry e;
  e.source = source;
  e.dist = 0.0;
  table.insert(table_find(table, source), e);
}

// Open-addressing index from source id to a record's position in one
// vertex's table, alive for one scheduler run. Tables are append-only while
// a run lasts, so positions stay valid. Linear probing over a power-of-two
// slot array kept at most half full makes every lookup O(1) expected.
class SourceIndex {
 public:
  bool empty() const { return slots_.empty(); }

  // Drops every key and sizes the slots for `records` keys.
  void reset(size_t records) {
    size_t capacity = 16;
    while (capacity < 2 * records) capacity *= 2;
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
  }

  // Indexes every record of `table` at its position.
  void add(const SourceTable& table) {
    for (size_t i = 0; i < table.size(); ++i)
      find_or_insert(table[i].source, static_cast<std::uint32_t>(i));
  }

  // Position of `source`, which must be indexed.
  std::uint32_t at(VertexId source) const {
    size_t i = home(source);
    while (slots_[i].source != source) {
      LN_ASSERT(slots_[i].source != kNoVertex);
      i = next(i);
    }
    return slots_[i].pos;
  }

  // {position of `source`, false}, or {pos, true} after indexing an
  // absent source at `pos`.
  std::pair<std::uint32_t, bool> find_or_insert(VertexId source,
                                                std::uint32_t pos) {
    size_t i = home(source);
    for (; slots_[i].source != kNoVertex; i = next(i))
      if (slots_[i].source == source) return {slots_[i].pos, false};
    slots_[i] = {source, pos};
    if (2 * ++size_ > slots_.size()) grow();
    return {pos, true};
  }

 private:
  struct Slot {
    VertexId source = kNoVertex;
    std::uint32_t pos = 0;
  };

  size_t home(VertexId source) const {  // Fibonacci hashing
    return static_cast<size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source)) *
         0x9E3779B97F4A7C15ull) >>
        shift_);
  }
  size_t next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.source == kNoVertex) continue;
      size_t i = home(s.source);
      while (slots_[i].source != kNoVertex) i = next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;
  size_t size_ = 0;
};

// Applies one delivered payload of (source, dist) offers over a G-edge of
// weight `w` to `table`: known sources relax in place through the index,
// new ones are appended. Calls `improved(source)` for every record whose
// distance changed (insert or strict improvement).
template <typename Improved>
void relax_offers(SourceTable& table, SourceIndex& index,
                  std::span<const std::uint64_t> words, Weight w,
                  Weight radius, VertexId from, EdgeId edge,
                  const Improved& improved) {
  for (size_t i = 0; i + 1 < words.size(); i += 2) {
    const VertexId source = static_cast<VertexId>(words[i]);
    const Weight cand = Message::decode_weight(words[i + 1]) + w;
    if (cand > radius) continue;
    const auto [pos, inserted] = index.find_or_insert(
        source, static_cast<std::uint32_t>(table.size()));
    if (inserted) {
      table.push_back(g_edge_record(source, cand, from, edge));
      improved(source);
    } else if (offer_g_edge(table[pos], cand, from, edge)) {
      improved(source);
    }
  }
}

// Restores a table's source order after a run: the records appended while
// it lasted are sorted and merged into the prefix sorted at its start.
void merge_appended(SourceTable& table, size_t sorted_len) {
  const auto mid = table.begin() + static_cast<std::ptrdiff_t>(sorted_len);
  if (mid == table.end()) return;
  std::sort(mid, table.end(), kBySource);
  std::inplace_merge(table.begin(), mid, table.end(), kBySource);
}

// Concurrent-scale (wave) program: channel c's records live in their own
// per-vertex table and travel as channel-tagged batched floods, so several
// scales' explorations share one scheduler execution without mixing state.
// Round 0 re-announces only the per-link filtered shell (see the wave API
// comment in the header); later rounds announce each channel's improved
// records on every link they can still improve. A source's records live
// only in its owning channel, and every offer travels on that channel, so
// one index per vertex maps each source to its position in the owning
// channel's table. A call announces every record it improved before it
// returns, so a vertex's state between calls is its tables and its index.
class WaveProgram final : public NodeProgram {
 public:
  WaveProgram(const std::vector<Weight>& channel_radius,
              const std::vector<Weight>& explored_radius,
              std::vector<std::vector<SourceTable>>& state)
      : channel_radius_(channel_radius),
        explored_radius_(explored_radius),
        state_(state),
        sorted_len_(state.front().size() * channel_radius.size()),
        index_(state.front().size()) {
    const size_t K = channel_radius.size();
    for (size_t v = 0; v < index_.size(); ++v)
      for (size_t ch = 0; ch < K; ++ch)
        sorted_len_[v * K + ch] =
            static_cast<std::uint32_t>(state[ch][v].size());
    for (LaneScratch& lane : lanes_) lane.pending.resize(K);
  }

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    LaneScratch& lane = lanes_[static_cast<size_t>(ctx.lane())];
    SourceIndex& index = index_[v];
    if (index.empty()) build_index(v);
    for (const Delivery& d : inbox) {
      LN_ASSERT(d.msg.tag == kTagBoundedBatch);
      const std::uint8_t ch = d.msg.channel;
      std::vector<VertexId>& pending = lane.pending[ch];
      const Weight w = ctx.network().graph().edge(d.edge).w;
      relax_offers(state_[ch][v], index, ctx.payload(d.msg), w,
                   channel_radius_[ch], d.from, d.edge,
                   [&pending](VertexId s) { pending.push_back(s); });
    }
    if (ctx.round() == 0) {
      announce_shell(ctx, lane);
      return;
    }
    const auto links = ctx.links();
    const WeightedGraph& g = ctx.network().graph();
    for (size_t ch = 0; ch < lane.pending.size(); ++ch) {
      std::vector<VertexId>& pending = lane.pending[ch];
      if (pending.empty()) continue;
      std::sort(pending.begin(), pending.end());
      pending.erase(std::unique(pending.begin(), pending.end()),
                    pending.end());
      const SourceTable& table = state_[ch][v];
      const Weight radius = channel_radius_[ch];
      // Resolve the improved records' current distances once, then pack a
      // per-link payload keeping only offers with dist + w(ℓ) ≤ radius:
      // strictly stronger than the min-incident prune, and the receiver
      // never sees an offer it would reject on the radius check.
      lane.announce.clear();
      for (VertexId s : pending) {
        const Weight dist = table[index.at(s)].dist;
        lane.announce.push_back({s, dist, Message::encode_weight(dist)});
      }
      pending.clear();
      for (size_t li = 0; li < links.size(); ++li) {
        const Weight w = g.edge(links[li].edge).w;
        lane.words.clear();
        lane.words.reserve(lane.announce.size() * 2);
        for (const Announce& a : lane.announce) {
          if (a.dist + w > radius) continue;
          lane.words.push_back(static_cast<std::uint64_t>(a.source));
          lane.words.push_back(a.encoded);
        }
        if (!lane.words.empty())
          ctx.send_words_on_link(static_cast<int>(li), kTagBoundedBatch,
                                 lane.words, static_cast<std::uint8_t>(ch));
      }
    }
  }

  bool quiescent(VertexId) const override { return true; }

  size_t shell_offers() const {
    size_t total = 0;
    for (const LaneScratch& lane : lanes_) total += lane.shell_offers;
    return total;
  }

  // Called once the run is over: restores every channel table's order.
  void seal() {
    const size_t K = channel_radius_.size();
    for (size_t v = 0; v < index_.size(); ++v)
      for (size_t ch = 0; ch < K; ++ch)
        merge_appended(state_[ch][v], sorted_len_[v * K + ch]);
  }

 private:
  struct Announce {
    VertexId source;
    Weight dist;
    std::uint64_t encoded;  // Message::encode_weight(dist), hoisted per round
  };
  struct ShellRec {
    VertexId source;
    Weight dist;
    Weight explored;
  };
  // One call's scratch, kept per lane so that concurrent calls never share
  // it and no call allocates it afresh.
  struct alignas(64) LaneScratch {
    std::vector<std::vector<VertexId>> pending;  // per channel: improved
    std::vector<std::uint64_t> words;
    std::vector<Announce> announce;
    std::vector<ShellRec> shell;
    size_t shell_offers = 0;  // run total of the lane's shell offers
  };

  void build_index(size_t v) {
    const size_t K = channel_radius_.size();
    size_t records = 0;
    for (size_t ch = 0; ch < K; ++ch) records += sorted_len_[v * K + ch];
    index_[v].reset(records);
    for (const std::vector<SourceTable>& chan : state_) index_[v].add(chan[v]);
  }

  // Warm-start announcements: a record (s, d) is offered on link ℓ only if
  // d + w(ℓ) lands in (explored_radius[s], radius of s's channel] — below
  // the window the offer was already made by the run that produced the
  // record, above it the receiver would reject it. New sources have
  // explored_radius < 0, so their zero-distance record floods every link
  // within the radius, exactly a cold seed. Interior records (the vast
  // majority on warm starts) are rejected with a single comparison against
  // the extreme incident weights instead of deg(v) per-link checks. Round 0
  // delivers nothing, so the tables are still in source order here.
  void announce_shell(NodeContext& ctx, LaneScratch& lane) {
    const auto links = ctx.links();
    if (links.empty()) return;
    const WeightedGraph& g = ctx.network().graph();
    Weight wmin = g.edge(links[0].edge).w;
    Weight wmax = wmin;
    for (size_t li = 1; li < links.size(); ++li) {
      const Weight w = g.edge(links[li].edge).w;
      wmin = std::min(wmin, w);
      wmax = std::max(wmax, w);
    }
    for (size_t ch = 0; ch < channel_radius_.size(); ++ch) {
      const SourceTable& table = state_[ch][static_cast<size_t>(ctx.self())];
      if (table.empty()) continue;
      const Weight radius = channel_radius_[ch];
      lane.shell.clear();
      for (const BoundedSourceEntry& e : table) {
        const Weight explored = explored_radius_[static_cast<size_t>(e.source)];
        if (e.dist + wmax <= explored) continue;  // interior on every link
        if (e.dist + wmin > radius) continue;     // out of range everywhere
        lane.shell.push_back({e.source, e.dist, explored});
      }
      if (lane.shell.empty()) continue;
      for (size_t li = 0; li < links.size(); ++li) {
        const Weight w = g.edge(links[li].edge).w;
        lane.words.clear();
        for (const ShellRec& r : lane.shell) {
          const Weight cand = r.dist + w;
          if (cand > radius || cand <= r.explored) continue;
          lane.words.push_back(static_cast<std::uint64_t>(r.source));
          lane.words.push_back(Message::encode_weight(r.dist));
        }
        if (!lane.words.empty()) {
          lane.shell_offers += lane.words.size() / 2;
          ctx.send_words_on_link(static_cast<int>(li), kTagBoundedBatch,
                                 lane.words, static_cast<std::uint8_t>(ch));
        }
      }
    }
  }

  const std::vector<Weight>& channel_radius_;
  const std::vector<Weight>& explored_radius_;
  std::vector<std::vector<SourceTable>>& state_;
  // Per vertex and channel (vertex-major): the table's size at run start.
  std::vector<std::uint32_t> sorted_len_;
  std::vector<SourceIndex> index_;  // per vertex, built on its first call
  std::array<LaneScratch, congest::Scheduler::kMaxLanes> lanes_;
};

constexpr std::uint8_t kNoChannel = 0xff;

}  // namespace

WaveExploreResult bounded_multi_source_paths_wave(
    const RoundedSubstrate& substrate, std::span<const WaveScale> scales,
    WaveExploreState prev, congest::SchedulerOptions sched) {
  const WeightedGraph& h = substrate.rounded;
  const int n = h.num_vertices();
  const int K = static_cast<int>(scales.size());
  LN_REQUIRE(K >= 1 && K <= 32, "a wave fuses 1..32 scales");
  for (int c = 1; c < K; ++c)
    LN_REQUIRE(scales[static_cast<size_t>(c - 1)].radius <=
                   scales[static_cast<size_t>(c)].radius,
               "wave scales must ascend in radius");

  WaveExploreResult result;
  result.channel_of.assign(static_cast<size_t>(n), kNoChannel);
  std::vector<Weight> channel_radius(static_cast<size_t>(K));
  for (int c = 0; c < K; ++c) {
    channel_radius[static_cast<size_t>(c)] =
        scales[static_cast<size_t>(c)].radius;
    for (VertexId s : scales[static_cast<size_t>(c)].sources) {
      LN_REQUIRE(s >= 0 && s < n, "source out of range");
      // Later scales overwrite: a source is owned by the LAST scale where
      // it is active and explored once, to that scale's radius.
      result.channel_of[static_cast<size_t>(s)] = static_cast<std::uint8_t>(c);
    }
  }

  WaveExploreState state;
  state.table.assign(static_cast<size_t>(K),
                     std::vector<SourceTable>(static_cast<size_t>(n)));
  state.explored_radius = std::move(prev.explored_radius);
  state.explored_radius.resize(static_cast<size_t>(n), Weight{-1.0});

  // Route the previous wave's surviving records into the new channel
  // partition; retired sources' records become tombstones (charged below).
  // A surviving self record is what classifies its source as warm.
  std::vector<char> seen_prev(static_cast<size_t>(n), 0);
  std::uint64_t pruned = 0;
  if (!prev.table.empty()) {
    // Each previous channel's table already ascends by source, so the
    // per-vertex union is a fold of sorted merges, not a re-sort.
    SourceTable merged;
    SourceTable filtered;
    SourceTable tmp;
    for (VertexId v = 0; v < n; ++v) {
      merged.clear();
      for (std::vector<SourceTable>& chan : prev.table) {
        SourceTable& t = chan[static_cast<size_t>(v)];
        filtered.clear();
        for (const BoundedSourceEntry& e : t) {
          if (result.channel_of[static_cast<size_t>(e.source)] == kNoChannel) {
            ++pruned;
            continue;
          }
          filtered.push_back(e);
        }
        SourceTable().swap(t);
        if (filtered.empty()) continue;
        if (merged.empty()) {
          merged.swap(filtered);
          continue;
        }
        tmp.clear();
        std::merge(merged.begin(), merged.end(), filtered.begin(),
                   filtered.end(), std::back_inserter(tmp), kBySource);
        merged.swap(tmp);
      }
      result.records_inherited += merged.size();
      for (const BoundedSourceEntry& e : merged) {
        if (e.source == v) seen_prev[static_cast<size_t>(v)] = 1;
        state.table[result.channel_of[static_cast<size_t>(e.source)]]
                   [static_cast<size_t>(v)].push_back(e);
      }
    }
  }

  // Cold sources (no surviving records): seed the zero-distance self record
  // in the owning channel and reset any stale explored radius.
  for (VertexId v = 0; v < n; ++v) {
    const std::uint8_t ch = result.channel_of[static_cast<size_t>(v)];
    if (ch == kNoChannel || seen_prev[static_cast<size_t>(v)]) continue;
    seed_self_record(state.table[ch][static_cast<size_t>(v)], v);
    state.explored_radius[static_cast<size_t>(v)] = Weight{-1.0};
  }

  sched.strict_congest = false;  // batched multi-word encoding
  sched.channels = K;
  WaveProgram program(channel_radius, state.explored_radius, state.table);
  result.cost = congest::Scheduler(substrate.network, program, sched).run();
  program.seal();
  result.shell_announcements = program.shell_offers();

  // The wave's sources now stand explored to their owning scale's radius.
  for (VertexId v = 0; v < n; ++v) {
    const std::uint8_t ch = result.channel_of[static_cast<size_t>(v)];
    if (ch != kNoChannel)
      state.explored_radius[static_cast<size_t>(v)] =
          channel_radius[static_cast<size_t>(ch)];
  }

  // The tombstone flood of retired sources: one round in which every
  // dropped record costs one single-word message.
  if (pruned != 0) {
    result.cost.rounds += 1;
    result.cost.messages += pruned;
    result.cost.words += pruned;
  }
  result.pruned_records = pruned;
  result.state = std::move(state);
  return result;
}

const BoundedSourceEntry* find_source_entry(
    const std::vector<std::vector<BoundedSourceEntry>>& table, VertexId v,
    VertexId source) {
  const SourceTable& entries = table[static_cast<size_t>(v)];
  const auto it = table_find(entries, source);
  if (it == entries.end() || it->source != source) return nullptr;
  return &*it;
}

bool collect_path_edges(
    const std::vector<std::vector<BoundedSourceEntry>>& table, VertexId target,
    VertexId source, std::vector<std::uint32_t>& stamp, std::uint32_t epoch,
    std::vector<EdgeId>& out) {
  VertexId cur = target;
  size_t guard = 0;
  while (cur != source) {
    // A stamped vertex already contributed its source-rooted suffix to
    // `out` in an earlier extraction this epoch; the union is complete.
    if (stamp[static_cast<size_t>(cur)] == epoch) return true;
    stamp[static_cast<size_t>(cur)] = epoch;
    const BoundedSourceEntry* e = find_source_entry(table, cur, source);
    if (e == nullptr) return false;
    if (e->parent == kNoVertex) break;  // reached the source record
    out.push_back(e->parent_edge);
    cur = e->parent;
    LN_ASSERT_MSG(++guard <= table.size(),
                  "path extraction did not terminate");
  }
  return true;
}

}  // namespace lightnet

#include "congest/scheduler.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <cstring>

#include "congest/reliable.h"
#include "congest/worker_pool.h"
#include "support/assert.h"
#include "support/rng.h"

namespace lightnet::congest {

void NodeContext::send(VertexId neighbor, const Message& msg) {
  const int li = network_->link_index(self_, neighbor);
  LN_ASSERT_MSG(li >= 0, "send target is not a neighbor");
  const std::uint32_t slot = network_->dir_slot(link_base_ + li);
  scheduler_->enqueue_resolved(lane_, self_, neighbor,
                               static_cast<EdgeId>(slot >> 1), slot, msg);
}

void NodeContext::send_on_link(int link_index, const Message& msg) {
  LN_ASSERT_MSG(
      link_index >= 0 && static_cast<size_t>(link_index) < links_.size(),
      "link index out of range");
  const Incidence& inc = links_[static_cast<size_t>(link_index)];
  const std::uint32_t slot = network_->dir_slot(link_base_ + link_index);
  scheduler_->enqueue_resolved(lane_, self_, inc.neighbor, inc.edge, slot, msg);
}

void NodeContext::send_words_on_link(int link_index, std::uint32_t tag,
                                     std::span<const std::uint64_t> words,
                                     std::uint8_t channel) {
  LN_ASSERT_MSG(
      link_index >= 0 && static_cast<size_t>(link_index) < links_.size(),
      "link index out of range");
  const Incidence& inc = links_[static_cast<size_t>(link_index)];
  const std::uint32_t slot = network_->dir_slot(link_base_ + link_index);
  scheduler_->enqueue_words(lane_, self_, inc.neighbor, inc.edge, slot, tag,
                            channel, words);
}

void NodeContext::reliable_send_on_link(int link_index, const Message& msg) {
  scheduler_->reliable_send(self_, link_base_, link_index, links_, msg);
}

std::span<const std::uint64_t> NodeContext::payload(const Message& msg) const {
  if (msg.ext_size == 0)
    return {msg.words.data(), static_cast<size_t>(msg.size)};
  if (scheduler_->lanes_.empty())
    return {scheduler_->deliver_words_.data() + msg.ext_offset,
            static_cast<size_t>(msg.ext_size)};
  // Parallel runs pack the staging lane into the offset's top bits; the
  // payload lives in that lane's delivery-side word arena.
  const std::uint32_t lane = msg.ext_offset >> Scheduler::kLaneShift;
  const std::uint32_t off = msg.ext_offset & Scheduler::kLaneOffsetMask;
  return {scheduler_->lanes_[lane].dwords.data() + off,
          static_cast<size_t>(msg.ext_size)};
}

Scheduler::Scheduler(const Network& network,
                     std::vector<std::unique_ptr<NodeProgram>> programs,
                     SchedulerOptions options)
    : network_(&network),
      num_nodes_(network.num_nodes()),
      programs_(std::move(programs)),
      options_(options) {
  LN_REQUIRE(static_cast<int>(programs_.size()) == network.num_nodes(),
             "one program per node required");
  adopt_scratch();
  const size_t n = programs_.size();
  inbox_start_.assign(n, 0);
  inbox_len_.assign(n, 0);
  recv_count_.assign(n, 0);
  has_mail_.assign(n, 0);
  frontier_.reset(static_cast<int>(n));
  active_.reset(static_cast<int>(n));
  edge_load_.assign(static_cast<size_t>(network.graph().num_edges()) * 2, 0);
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v)
    if (programs_[static_cast<size_t>(v)]->wants_idle_rounds())
      idle_riders_.push_back(v);

  LN_REQUIRE(options_.channels >= 1 && options_.channels <= 256,
             "channels must fit the message's 8-bit channel tag");
  if (options_.channels > 1) {
    channel_totals_.assign(static_cast<size_t>(options_.channels), {});
    edge_load_ch_.assign(static_cast<size_t>(options_.channels) *
                             static_cast<size_t>(network.graph().num_edges()) *
                             2,
                         0);
  }

  options_.threads = std::clamp(options_.threads, 1, kMaxLanes);
  if (options_.threads > 1) {
    const int t = options_.threads;
    pool_ = std::make_unique<WorkerPool>(t);
    const auto views = network.shard_views(t);
    shards_.resize(static_cast<size_t>(t));
    shard_of_.assign(n, 0);
    for (int s = 0; s < t; ++s) {
      shards_[static_cast<size_t>(s)].begin = views[static_cast<size_t>(s)].begin;
      shards_[static_cast<size_t>(s)].end = views[static_cast<size_t>(s)].end;
      for (VertexId v = views[static_cast<size_t>(s)].begin;
           v < views[static_cast<size_t>(s)].end; ++v)
        shard_of_[static_cast<size_t>(v)] = static_cast<std::uint8_t>(s);
      if (options_.channels > 1)
        shards_[static_cast<size_t>(s)].channel_max_load.assign(
            static_cast<size_t>(options_.channels), 0);
    }
    lanes_.resize(static_cast<size_t>(t));
    for (Lane& lane : lanes_) {
      lane.out.resize(static_cast<size_t>(t));
      lane.dout.resize(static_cast<size_t>(t));
      if (options_.channels > 1)
        lane.channels.assign(static_cast<size_t>(options_.channels), {});
    }
    shard_arena_base_.resize(static_cast<size_t>(t));
    shard_totals_.resize(static_cast<size_t>(t));
    chunk_bounds_.assign(static_cast<size_t>(t) + 1, 0);
  }

  if (options_.fault.enabled()) {
    fault_ = std::make_unique<FaultModel>(options_.fault);
    fault_seq_.assign(static_cast<size_t>(network.graph().num_edges()) * 2, 0);
    node_down_.assign(n, 0);
    for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
      int crash_round = 0, restart_round = 0;
      if (!fault_->crash_schedule(v, &crash_round, &restart_round)) continue;
      crash_events_.push_back({crash_round, v, true});
      if (restart_round != INT_MAX)
        crash_events_.push_back({restart_round, v, false});
    }
    std::sort(crash_events_.begin(), crash_events_.end(),
              [](const CrashEvent& a, const CrashEvent& b) {
                return a.round != b.round ? a.round < b.round : a.v < b.v;
              });
  }
}

Scheduler::~Scheduler() { return_scratch(); }

void Scheduler::adopt_scratch() {
  // Runs without a donated pool share one per thread, so back-to-back runs
  // (the doubling pipeline's many explorations, BFS trees built in bulk)
  // reuse grown buffers instead of re-growing them from empty.
  static thread_local SchedulerScratch thread_pool;
  SchedulerScratch* s =
      options_.scratch != nullptr ? options_.scratch : &thread_pool;
  if (s->in_use) return;  // nested kernel: private buffers
  s->in_use = true;
  ++s->adoptions;
  scratch_ = s;
  // Moved-from donors are left empty; the adopted buffers are cleared (or
  // .assign()ed by the constructor right after), so only capacity carries
  // over and execution stays bit-identical to a scratch-free run.
  stage_ = std::move(s->stage);
  stage_.clear();
  deliver_buf_ = std::move(s->deliver_buf);
  deliver_buf_.clear();
  stage_words_ = std::move(s->stage_words);
  stage_words_.clear();
  deliver_words_ = std::move(s->deliver_words);
  deliver_words_.clear();
  arena_ = std::move(s->arena);
  arena_.clear();
  inbox_start_ = std::move(s->inbox_start);
  inbox_len_ = std::move(s->inbox_len);
  recv_count_ = std::move(s->recv_count);
  mail_nodes_ = std::move(s->mail_nodes);
  mail_nodes_.clear();
  current_mail_ = std::move(s->current_mail);
  current_mail_.clear();
  has_mail_ = std::move(s->has_mail);
  edge_load_ = std::move(s->edge_load);
  touched_edges_ = std::move(s->touched_edges);
  touched_edges_.clear();
}

void Scheduler::return_scratch() {
  if (scratch_ == nullptr) return;
  SchedulerScratch* s = scratch_;
  scratch_ = nullptr;
  s->stage = std::move(stage_);
  s->deliver_buf = std::move(deliver_buf_);
  // The word arenas go back in the roles they were adopted in, so every
  // run stages its round 0 (an exploration wave's shell burst, usually its
  // widest round) into the same arena and the other one stays small.
  if (words_flipped_) std::swap(stage_words_, deliver_words_);
  s->stage_words = std::move(stage_words_);
  s->deliver_words = std::move(deliver_words_);
  s->arena = std::move(arena_);
  s->inbox_start = std::move(inbox_start_);
  s->inbox_len = std::move(inbox_len_);
  s->recv_count = std::move(recv_count_);
  s->mail_nodes = std::move(mail_nodes_);
  s->current_mail = std::move(current_mail_);
  s->has_mail = std::move(has_mail_);
  s->edge_load = std::move(edge_load_);
  s->touched_edges = std::move(touched_edges_);
  s->in_use = false;
}

void Scheduler::enqueue_resolved(int lane, VertexId from, VertexId to,
                                 EdgeId edge, std::uint32_t dir_slot,
                                 const Message& msg) {
  LN_ASSERT_MSG(msg.size <= kMaxWords, "message exceeds word budget");
  // A directed slot has a single sender, so lanes update its load without
  // synchronization. Serial runs list the edge on its first message; an
  // edge used in both directions is listed once per direction, and
  // flush_edge_loads folds the duplicate idempotently. Parallel runs need
  // no list: the receiver's shard folds the slot from the staged message.
  if (lanes_.empty() && edge_load_[dir_slot] == 0)
    touched_edges_.push_back(edge);
  // A w-word message occupies ceil(w / kMaxWords) standard-message slots of
  // the per-round edge budget (1 for every standard message, so the strict
  // check and max_edge_load are unchanged for non-batched programs).
  const int total = msg.total_words();
  const std::uint32_t units =
      total <= kMaxWords
          ? 1u
          : static_cast<std::uint32_t>((total + kMaxWords - 1) / kMaxWords);
  edge_load_[dir_slot] += units;
  if (options_.strict_congest) {
    LN_ASSERT_MSG(edge_load_[dir_slot] <= 1,
                  "CONGEST violation: >1 message on an edge in one round");
  }
  if (!edge_load_ch_.empty()) {
    // Multi-channel accounting (options_.channels > 1). The channel window
    // shares edge_load_'s single-sender-per-slot argument, so lanes write
    // it without synchronization; message/word counters go to the lane's
    // fold-at-barrier accumulators in parallel runs.
    LN_ASSERT_MSG(msg.channel < options_.channels,
                  "message channel out of range");
    edge_load_ch_[static_cast<size_t>(msg.channel) * edge_load_.size() +
                  dir_slot] += units;
    ChannelCost& cc = lanes_.empty()
                          ? channel_totals_[msg.channel]
                          : lanes_[static_cast<size_t>(lane)]
                                .channels[msg.channel];
    ++cc.messages;
    cc.words += static_cast<std::uint64_t>(total);
  }
  const size_t to_index = static_cast<size_t>(to);
  if (lanes_.empty()) {
    // Serial staging. Recipient-list bookkeeping is skipped after a dense
    // round: the next delivery reconstructs recipients by scanning
    // recv_count_ over the vertex range instead.
    if (!stage_skiplist_ && !has_mail_[to_index]) {
      has_mail_[to_index] = 1;
      mail_nodes_.push_back(to);
    }
    ++recv_count_[to_index];
    if (stage_.size() == stage_.capacity()) ++stats_.inbox_reallocs;
    stage_.push_back({to, dir_slot, {from, edge, msg}});
    ++in_flight_;
    ++stats_.messages;
    stats_.words += static_cast<std::uint64_t>(total);
  } else {
    // Parallel staging: into this worker's lane, bucketed by the
    // recipient's shard so the owning delivery worker can drain it without
    // contention. Counters are lane-local; folded at the round barrier.
    Lane& l = lanes_[static_cast<size_t>(lane)];
    std::vector<Pending>& bucket = l.out[shard_of_[to_index]];
    if (bucket.size() == bucket.capacity()) ++l.reallocs;
    bucket.push_back({to, dir_slot, {from, edge, msg}});
    ++l.messages;
    l.words_sent += static_cast<std::uint64_t>(total);
  }
}

namespace {

// Makes room for `extra` more words in a batched-payload arena, growing it
// straight to the power of two that fits: the capacity then depends only on
// the largest round the arena ever held, not on the sizes earlier runs left
// behind (doubling from whatever capacity an adopted pool brought would).
// Returns whether the arena had to grow.
bool reserve_words(std::vector<std::uint64_t>& arena, size_t extra) {
  const size_t needed = arena.size() + extra;
  if (needed <= arena.capacity()) return false;
  arena.reserve(std::bit_ceil(needed));
  return true;
}

}  // namespace

void Scheduler::enqueue_words(int lane, VertexId from, VertexId to, EdgeId edge,
                              std::uint32_t dir_slot, std::uint32_t tag,
                              std::uint8_t channel,
                              std::span<const std::uint64_t> words) {
  for (size_t off = 0; off == 0 || off < words.size();
       off += kBatchChunkWords) {
    const std::span<const std::uint64_t> chunk =
        words.subspan(off, std::min(words.size() - off, kBatchChunkWords));
    // The chunk rides inline if it fits, else as one block of the staging
    // lane's word arena.
    Message msg;
    msg.tag = tag;
    msg.channel = channel;
    if (chunk.size() <= static_cast<size_t>(kMaxWords)) {
      for (std::uint64_t w : chunk) msg.words[msg.size++] = w;
    } else if (lanes_.empty()) {
      msg.ext_offset = static_cast<std::uint32_t>(stage_words_.size());
      msg.ext_size = static_cast<std::uint16_t>(chunk.size());
      if (reserve_words(stage_words_, chunk.size())) ++stats_.inbox_reallocs;
      stage_words_.insert(stage_words_.end(), chunk.begin(), chunk.end());
    } else {
      Lane& l = lanes_[static_cast<size_t>(lane)];
      const size_t lane_off = l.words.size();
      LN_ASSERT_MSG(
          lane_off + chunk.size() <= static_cast<size_t>(kLaneOffsetMask) + 1,
          "lane word arena exceeds the packed-offset budget");
      msg.ext_offset = (static_cast<std::uint32_t>(lane) << kLaneShift) |
                       static_cast<std::uint32_t>(lane_off);
      msg.ext_size = static_cast<std::uint16_t>(chunk.size());
      if (reserve_words(l.words, chunk.size())) ++l.reallocs;
      l.words.insert(l.words.end(), chunk.begin(), chunk.end());
    }
    enqueue_resolved(lane, from, to, edge, dir_slot, msg);
  }
}

void Scheduler::flush_edge_loads() {
  const size_t stride = edge_load_.size();
  // Hoisted so single-channel runs pay one check, not one per touched edge
  // (the stores into edge_load_ below would otherwise force a reload of the
  // size every iteration).
  const size_t num_channels = channel_totals_.size();
  for (EdgeId e : touched_edges_) {
    const size_t base = static_cast<size_t>(e) * 2;
    const std::uint64_t load =
        std::max(edge_load_[base], edge_load_[base + 1]);
    stats_.max_edge_load = std::max(stats_.max_edge_load, load);
    edge_load_[base] = 0;
    edge_load_[base + 1] = 0;
    // Channel windows share the touched list: a channel slot can only be
    // nonzero when its untagged slot is.
    for (size_t ch = 0; ch < num_channels; ++ch) {
      const size_t ch_base = ch * stride + base;
      const std::uint64_t ch_load =
          std::max(edge_load_ch_[ch_base], edge_load_ch_[ch_base + 1]);
      if (ch_load == 0) continue;
      channel_totals_[ch].max_edge_load =
          std::max(channel_totals_[ch].max_edge_load, ch_load);
      edge_load_ch_[ch_base] = 0;
      edge_load_ch_[ch_base + 1] = 0;
    }
  }
  touched_edges_.clear();
}

void Scheduler::deliver_stage(int round) {
  // Whether stage_ was filled with recipient-list bookkeeping suppressed
  // (the flag's value while last round's sends were staged).
  const bool receiver_scan = stage_skiplist_;

  // Close out the spans consumed last round; inbox_len_ is all-zero outside
  // the entries of the round's recipients.
  for (VertexId v : current_mail_) inbox_len_[static_cast<size_t>(v)] = 0;
  current_mail_.clear();

  // Flip the double buffer: last round's sends become this round's
  // deliveries, and the (empty, capacity-retaining) spent buffers become the
  // fill side. Batched payloads flip with them: ext offsets assigned at
  // stage time stay valid because the whole arena moves as one block.
  std::swap(stage_, deliver_buf_);
  // Ext-word arenas only move when a batched program actually staged long
  // payloads; the common standard-message round skips the swap entirely.
  if (!stage_words_.empty() || !deliver_words_.empty()) {
    std::swap(stage_words_, deliver_words_);
    stage_words_.clear();
    words_flipped_ = !words_flipped_;
  }
  std::swap(current_mail_, mail_nodes_);
  for (VertexId v : current_mail_) has_mail_[static_cast<size_t>(v)] = 0;

  // Every staged message leaves flight now, whether or not the adversary
  // lets it reach its inbox.
  in_flight_ -= deliver_buf_.size();
  if (fault_) apply_faults(round);
  const size_t delivered = deliver_buf_.size();

  const size_t old_capacity = arena_.capacity();
  arena_.resize(delivered);
  if (arena_.capacity() != old_capacity) ++stats_.inbox_reallocs;

  // Counting-sort scatter, stable per recipient so inbox order matches send
  // order (what the sequential full sweep produced). Offsets come either
  // from walking the recipient list (sparse rounds) or from a linear scan of
  // the vertex range (dense rounds, where the scan is cheaper than having
  // maintained the list at enqueue time) — the receiver-scan direction
  // rebuilds current_mail_ in ascending order as it goes. Recipient wake
  // marks ride the same pass, except when a transport must strip its frames
  // first (run() marks after process_inbound in that case).
  const bool mark_inline = !options_.full_sweep && !transport_;
  std::uint32_t offset = 0;
  if (receiver_scan) {
    ++stats_.rounds_receiver_scan;
    const VertexId n = num_nodes_;
    for (VertexId v = 0; v < n; ++v) {
      const size_t vi = static_cast<size_t>(v);
      const std::uint32_t count = recv_count_[vi];
      if (count == 0) continue;
      inbox_start_[vi] = offset;
      inbox_len_[vi] = count;
      offset += count;
      recv_count_[vi] = 0;  // reused as the scatter cursor below
      current_mail_.push_back(v);
      if (mark_inline) mark_frontier(v);
    }
  } else {
    for (VertexId v : current_mail_) {
      const size_t vi = static_cast<size_t>(v);
      const std::uint32_t count = recv_count_[vi];
      inbox_start_[vi] = offset;
      inbox_len_[vi] = count;
      offset += count;
      recv_count_[vi] = 0;  // reused as the scatter cursor below
      if (mark_inline && count != 0) mark_frontier(v);
    }
  }
  for (const Pending& p : deliver_buf_) {
    const size_t ti = static_cast<size_t>(p.to);
    arena_[inbox_start_[ti] + recv_count_[ti]++] = p.delivery;
  }
  for (VertexId v : current_mail_) recv_count_[static_cast<size_t>(v)] = 0;

  deliver_buf_.clear();
  if (fault_ && fault_->plan().reorder) apply_reorder(round);

  // Delivery direction switch for the round about to stage: a pure function
  // of this round's delivered volume, so the mode sequence is deterministic.
  // Fault plans need per-recipient lists for drop accounting and reorder,
  // and the reliable transport walks current_mail_ eagerly, so both pin the
  // sparse direction. The volume test leads: sparse workloads (tiny
  // frontiers over huge vertex ranges, e.g. path BFS) fail it in one
  // comparison and never touch the fault/transport fields.
  stage_skiplist_ =
      delivered * 4 >= static_cast<size_t>(num_nodes_) && delivered != 0 &&
      !fault_ && !transport_;
}

void Scheduler::apply_faults(int round) {
  const WeightedGraph& g = network_->graph();
  size_t w = 0;
  for (const Pending& p : deliver_buf_) {
    const EdgeId e = p.delivery.edge;
    const int dir = p.delivery.from == g.edge(e).u ? 0 : 1;
    const size_t slot = static_cast<size_t>(e) * 2 + static_cast<size_t>(dir);
    if (fault_seq_[slot] == 0)
      fault_touched_.push_back(static_cast<std::uint32_t>(slot));
    const std::uint32_t msg_index = fault_seq_[slot]++;
    const bool lost = node_down_[static_cast<size_t>(p.to)] ||
                      fault_->link_down(round, e) ||
                      fault_->drop_message(round, e, dir, msg_index);
    if (lost) {
      ++stats_.dropped;
      --recv_count_[static_cast<size_t>(p.to)];
      continue;
    }
    deliver_buf_[w++] = p;
  }
  deliver_buf_.resize(w);
  for (std::uint32_t slot : fault_touched_) fault_seq_[slot] = 0;
  fault_touched_.clear();
}

void Scheduler::shuffle_inbox(int round, VertexId v) {
  const size_t vi = static_cast<size_t>(v);
  const std::uint32_t len = inbox_len_[vi];
  if (len < 2) return;
  Delivery* span = arena_.data() + inbox_start_[vi];
  std::uint64_t state = fault_->shuffle_key(round, v);
  for (std::uint32_t i = len - 1; i > 0; --i) {
    const std::uint32_t j = static_cast<std::uint32_t>(
        splitmix64(state) % static_cast<std::uint64_t>(i + 1));
    std::swap(span[i], span[j]);
  }
}

void Scheduler::apply_reorder(int round) {
  // Seeded Fisher-Yates over each inbox span: a CONGEST-legal adversary may
  // pick any within-round delivery order, so order-robust programs must
  // produce identical output under any shuffle_key.
  for (VertexId v : current_mail_) shuffle_inbox(round, v);
}

void Scheduler::apply_crash_events(int round) {
  while (next_crash_event_ < crash_events_.size() &&
         crash_events_[next_crash_event_].round <= round) {
    const CrashEvent& ev = crash_events_[next_crash_event_++];
    const size_t vi = static_cast<size_t>(ev.v);
    if (ev.down) {
      node_down_[vi] = 1;
      ++stats_.crashed_nodes;
      if (options_.fault.restart_after > 0) ++waiting_restarts_;
    } else {
      node_down_[vi] = 0;
      --waiting_restarts_;
      // Wake the survivor: it is invoked this round (state intact) so it
      // can resume announcing / retransmitting.
      mark_frontier(ev.v);
    }
  }
}

void Scheduler::reliable_send(VertexId from, int link_base, int link_index,
                              std::span<const Incidence> links,
                              const Message& msg) {
  LN_ASSERT_MSG(
      link_index >= 0 && static_cast<size_t>(link_index) < links.size(),
      "link index out of range");
  LN_REQUIRE(!options_.strict_congest,
             "reliable transport frames exceed the strict one-message "
             "budget; run with strict_congest = false");
  LN_REQUIRE(!pool_,
             "the reliable transport's per-link state machine is serial; "
             "run with threads = 1");
  LN_ASSERT_MSG(msg.ext_size == 0, "reliable sends must be standard messages");
  if (!transport_) transport_ = std::make_unique<ReliableTransport>(*this);
  transport_->send(from, link_base + link_index, link_index, msg);
}

void Scheduler::build_active_set(int round) {
  active_.start_window();
  const VertexId n = num_nodes_;
  if (options_.full_sweep || round == 0) {
    for (VertexId v = 0; v < n; ++v)
      if (!fault_ || !node_down_[static_cast<size_t>(v)]) active_.push(v);
    return;
  }
  // Ascending bit scan over the words marked since the last scan: yields
  // the sorted invocation order directly, which keeps send interleaving —
  // and therefore inbox order and every stat — identical to the full sweep.
  if (frontier_min_word_ == SIZE_MAX) return;
  for (size_t i = frontier_min_word_; i <= frontier_max_word_; ++i) {
    std::uint64_t bits = frontier_.word(i);
    if (bits == 0) continue;
    frontier_.clear_word(i);
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const VertexId v = static_cast<VertexId>((i << 6) + static_cast<size_t>(b));
      if (!fault_ || !node_down_[static_cast<size_t>(v)]) active_.push(v);
    } while (bits != 0);
  }
  frontier_min_word_ = SIZE_MAX;
  frontier_max_word_ = 0;
}

CostStats Scheduler::run() {
  NodeContext ctx;
  ctx.network_ = network_;
  ctx.scheduler_ = this;
  const bool parallel = pool_ != nullptr;

  for (int round = 0;; ++round) {
    if (round >= options_.max_rounds) {
      // Graceful abort: callers get the ledger and whatever partial state
      // the programs hold; api::run_with_outcome turns this into
      // RunOutcome::aborted instead of tearing the process down.
      stats_.rounds_capped = 1;
      break;
    }

    // Fold the previous round's congestion window into the stats (parallel
    // rounds fold it inside delivery).
    if (!parallel) flush_edge_loads();

    if (fault_) apply_crash_events(round);
    wake_this_round_ = false;

    if (parallel) {
      run_round_parallel(round);
    } else {
      ctx.round_ = round;

      // Deliver messages queued last round (recipient wake marks ride the
      // delivery pass when no transport is attached).
      deliver_stage(round);
      if (transport_) {
        transport_->process_inbound(round);
        // Wake recipients only after the transport has stripped its frames,
        // so a node whose whole inbox was dropped or consumed stays asleep
        // (identical to what a fault-free run with those sends missing
        // would do).
        if (!options_.full_sweep)
          for (VertexId v : current_mail_)
            if (inbox_len_[static_cast<size_t>(v)] != 0) mark_frontier(v);
      }
      if (!options_.full_sweep)
        for (VertexId v : idle_riders_) mark_frontier(v);

      build_active_set(round);
      if (round > 0 && active_.size() == 0 && (fault_ || transport_))
        ++stats_.rounds_lost;  // clock ticks spent only on timers / restarts
      for (VertexId v : active_.window()) {
        const size_t vi = static_cast<size_t>(v);
        ctx.self_ = v;
        ctx.links_ = network_->links(v);
        ctx.link_base_ = network_->link_base(v);
        const std::uint32_t len = inbox_len_[vi];
        const Delivery* inbox =
            len != 0 ? arena_.data() + inbox_start_[vi] : nullptr;
        NodeProgram* program = programs_[vi].get();
        program->on_round(ctx, std::span<const Delivery>(inbox, len));
        if (!program->quiescent()) {
          wake_this_round_ = true;
          if (!options_.full_sweep) mark_frontier(v);
        }
      }
      if (transport_) transport_->tick();
    }

    stats_.rounds = static_cast<std::uint64_t>(round) + 1;
    if (!wake_this_round_ && in_flight_ == 0 && waiting_restarts_ == 0 &&
        (!transport_ || !transport_->pending()))
      break;
  }
  // Account the final round's congestion window: the sends of the last
  // round of a max_rounds-capped run were never delivered (a run that ends
  // quiescent has none in flight).
  if (parallel)
    merge_shard_windows();
  else
    flush_edge_loads();
  if (!channel_totals_.empty()) stats_.per_channel = channel_totals_;
  return stats_;
}

void Scheduler::run_round_parallel(int round) {
  const int t = pool_->threads();
  const VertexId n = num_nodes_;

  // --- serial point: flip lane double buffers, slice the arena ---
  for (Lane& lane : lanes_) {
    lane.out.swap(lane.dout);
    lane.words.swap(lane.dwords);
    lane.words.clear();
  }
  std::uint64_t deliver_total = 0;
  std::uint64_t busiest = 0;
  for (int s = 0; s < t; ++s) {
    std::uint64_t count = 0;
    for (const Lane& lane : lanes_) count += lane.dout[static_cast<size_t>(s)].size();
    shard_totals_[static_cast<size_t>(s)] = count;
    deliver_total += count;
    busiest = std::max(busiest, count);
  }
  in_flight_ -= deliver_total;
  if (deliver_total != 0) {
    const std::uint64_t average =
        (deliver_total + static_cast<std::uint64_t>(t) - 1) /
        static_cast<std::uint64_t>(t);
    if (busiest > average)
      stats_.max_shard_skew = std::max(stats_.max_shard_skew, busiest - average);
  }
  const size_t old_capacity = arena_.capacity();
  arena_.resize(deliver_total);
  if (arena_.capacity() != old_capacity) ++stats_.inbox_reallocs;
  std::uint32_t arena_base = 0;
  for (int s = 0; s < t; ++s) {
    shard_arena_base_[static_cast<size_t>(s)] = arena_base;
    arena_base += static_cast<std::uint32_t>(shard_totals_[static_cast<size_t>(s)]);
  }

  // Delivery direction for this round, decided up front (the parallel path
  // has the full volume in hand before assembling inboxes). Dense rounds
  // scan each shard's vertex range instead of tracking first-touch
  // recipient lists. Fault plans pin the sparse direction (drop accounting
  // builds the recipient lists anyway).
  const bool dense = !fault_ && !options_.full_sweep && deliver_total != 0 &&
                     deliver_total * 4 >= static_cast<std::uint64_t>(n);
  if (dense) ++stats_.rounds_receiver_scan;

  // Idle riders are marked before the delivery job, whose frontier scan
  // consumes them.
  if (!options_.full_sweep)
    for (VertexId v : idle_riders_) frontier_.set(v);

  // --- hand-off 1: per-shard inbox assembly, window fold, frontier scan ---
  stats_.barrier_wait_ns +=
      pool_->run([&](int shard) { deliver_shard(shard, round, dense); });

  // --- serial point: the invocation order. The shard scans concatenated in
  // shard order are the global ascending order ---
  for (ShardScratch& shard : shards_) {
    stats_.dropped += shard.dropped;
    shard.dropped = 0;
  }
  active_.start_window();
  if (options_.full_sweep || round == 0) {
    for (VertexId v = 0; v < n; ++v)
      if (!fault_ || !node_down_[static_cast<size_t>(v)]) active_.push(v);
  } else {
    for (const ShardScratch& shard : shards_) {
      if (shard.active.empty()) continue;
      VertexId* dst = active_.claim(shard.active.size());
      std::memcpy(dst, shard.active.data(),
                  shard.active.size() * sizeof(VertexId));
    }
  }
  if (round > 0 && active_.size() == 0 && fault_)
    ++stats_.rounds_lost;

  // Invocation chunks: an even split of the ascending active array, so lane
  // l owns a contiguous run of senders and draining lanes in order at the
  // next delivery reproduces the serial send interleaving exactly.
  const size_t active_count = active_.size();
  for (int l = 0; l <= t; ++l)
    chunk_bounds_[static_cast<size_t>(l)] =
        active_count * static_cast<size_t>(l) / static_cast<size_t>(t);

  // --- hand-off 2: invocation ---
  stats_.barrier_wait_ns +=
      pool_->run([&](int lane) { invoke_chunk(lane, round); });

  // --- serial point: fold lane accumulators ---
  std::uint64_t staged = 0;
  for (Lane& lane : lanes_) {
    staged += lane.messages;
    stats_.messages += lane.messages;
    lane.messages = 0;
    stats_.words += lane.words_sent;
    lane.words_sent = 0;
    for (size_t ch = 0; ch < lane.channels.size(); ++ch) {
      channel_totals_[ch].messages += lane.channels[ch].messages;
      channel_totals_[ch].words += lane.channels[ch].words;
      lane.channels[ch] = {};
    }
    stats_.inbox_reallocs += lane.reallocs;
    lane.reallocs = 0;
    if (lane.wake_any) {
      wake_this_round_ = true;
      lane.wake_any = 0;
    }
  }
  in_flight_ += staged;
  ++stats_.rounds_parallel;
}

void Scheduler::fold_window(ShardScratch& shard, const Pending& p) {
  std::uint32_t& load = edge_load_[p.slot];
  if (load != 0) {
    shard.max_edge_load = std::max<std::uint64_t>(shard.max_edge_load, load);
    load = 0;
  }
  // Channel windows are checked on their own: two messages on one slot may
  // ride different channels, and the first fold clears only its own.
  if (edge_load_ch_.empty()) return;
  const std::uint8_t ch = p.delivery.msg.channel;
  std::uint32_t& ch_load =
      edge_load_ch_[static_cast<size_t>(ch) * edge_load_.size() + p.slot];
  if (ch_load != 0) {
    std::uint64_t& max = shard.channel_max_load[ch];
    max = std::max<std::uint64_t>(max, ch_load);
    ch_load = 0;
  }
}

void Scheduler::merge_shard_windows() {
  for (Lane& lane : lanes_)
    for (size_t s = 0; s < shards_.size(); ++s)
      for (const Pending& p : lane.out[s]) fold_window(shards_[s], p);
  for (const ShardScratch& shard : shards_) {
    stats_.max_edge_load = std::max(stats_.max_edge_load, shard.max_edge_load);
    for (size_t ch = 0; ch < shard.channel_max_load.size(); ++ch)
      channel_totals_[ch].max_edge_load = std::max(
          channel_totals_[ch].max_edge_load, shard.channel_max_load[ch]);
  }
}

void Scheduler::fault_filter_bucket(ShardScratch& shard,
                                    std::vector<Pending>& bucket, int round) {
  size_t w = 0;
  for (const Pending& p : bucket) {
    const EdgeId e = p.delivery.edge;
    const int dir = static_cast<int>(p.slot & 1);
    if (fault_seq_[p.slot] == 0) shard.fault_touched.push_back(p.slot);
    const std::uint32_t msg_index = fault_seq_[p.slot]++;
    const bool lost = node_down_[static_cast<size_t>(p.to)] ||
                      fault_->link_down(round, e) ||
                      fault_->drop_message(round, e, dir, msg_index);
    if (lost) {
      // A dropped message was still sent: its window is folded here, the
      // delivered ones' at the scatter.
      fold_window(shard, p);
      ++shard.dropped;
      continue;
    }
    bucket[w++] = p;
  }
  bucket.resize(w);
}

void Scheduler::deliver_shard(int shard_index, int round, bool dense) {
  ShardScratch& shard = shards_[static_cast<size_t>(shard_index)];

  // 1. Close out the spans this shard's recipients consumed last round.
  for (VertexId v : shard.mail) inbox_len_[static_cast<size_t>(v)] = 0;
  shard.mail.clear();

  // 2. Drain the lanes' buckets for this shard in lane order — the serial
  // send order restricted to the shard, because each lane owns a contiguous
  // ascending run of the round's senders. Fault filtering runs here so
  // per-slot message indices match the serial delivery order exactly (a
  // directed slot's receiver is fixed, so its fault_seq_ entry belongs to
  // exactly this shard).
  for (Lane& lane : lanes_) {
    std::vector<Pending>& bucket = lane.dout[static_cast<size_t>(shard_index)];
    if (fault_) fault_filter_bucket(shard, bucket, round);
    if (dense) {
      for (const Pending& p : bucket) ++recv_count_[static_cast<size_t>(p.to)];
    } else {
      for (const Pending& p : bucket) {
        const size_t ti = static_cast<size_t>(p.to);
        if (recv_count_[ti]++ == 0) shard.mail.push_back(p.to);
      }
    }
  }
  if (fault_) {
    for (std::uint32_t slot : shard.fault_touched) fault_seq_[slot] = 0;
    shard.fault_touched.clear();
  }

  // 3. Offsets into this shard's arena slice, plus the recipient wake marks
  // (plain bit sets: shard boundaries are 64-aligned, so no other worker
  // ever writes these words). Dense rounds rebuild the shard's recipient
  // list ascending as a byproduct of the range scan; recipients whose whole
  // inbox was dropped never entered shard.mail, so they stay asleep.
  std::uint32_t offset = shard_arena_base_[static_cast<size_t>(shard_index)];
  if (dense) {
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      const size_t vi = static_cast<size_t>(v);
      const std::uint32_t count = recv_count_[vi];
      if (count == 0) continue;
      inbox_start_[vi] = offset;
      inbox_len_[vi] = count;
      offset += count;
      recv_count_[vi] = 0;  // reused as the scatter cursor below
      shard.mail.push_back(v);
      frontier_.set(v);  // dense implies !full_sweep
    }
  } else {
    for (VertexId v : shard.mail) {
      const size_t vi = static_cast<size_t>(v);
      inbox_start_[vi] = offset;
      inbox_len_[vi] = recv_count_[vi];
      offset += recv_count_[vi];
      recv_count_[vi] = 0;  // reused as the scatter cursor below
      if (!options_.full_sweep) frontier_.set(v);
    }
  }

  // 4. Counting-sort scatter, stable per recipient (lane order again), with
  // the congestion window of each delivered message folded on the way.
  for (Lane& lane : lanes_) {
    for (const Pending& p : lane.dout[static_cast<size_t>(shard_index)]) {
      const size_t ti = static_cast<size_t>(p.to);
      arena_[inbox_start_[ti] + recv_count_[ti]++] = p.delivery;
      fold_window(shard, p);
    }
  }
  for (VertexId v : shard.mail) recv_count_[static_cast<size_t>(v)] = 0;

  // 5. Adversarial reorder, seeded per (round, recipient) — shard-local.
  if (fault_ && fault_->plan().reorder)
    for (VertexId v : shard.mail) shuffle_inbox(round, v);

  for (Lane& lane : lanes_) lane.dout[static_cast<size_t>(shard_index)].clear();

  // 6. The shard's slice of this round's invocation order (the full range
  // under full_sweep and in round 0, which the serial point lists itself).
  if (!options_.full_sweep && round != 0) scan_shard_frontier(shard);
}

void Scheduler::scan_shard_frontier(ShardScratch& shard) {
  shard.active.clear();
  // The shard's bitmap words (disjoint from every other shard's, by the
  // 64-aligned boundaries) were written only by this delivery, by the
  // previous round's invocation and serially before the job, all ordered
  // before this point by the pool's hand-offs. The ascending scan is the
  // shard's slice of the invocation order.
  const size_t word_begin = static_cast<size_t>(shard.begin) >> 6;
  const size_t word_end = (static_cast<size_t>(shard.end) + 63) >> 6;
  for (size_t i = word_begin; i < word_end; ++i) {
    std::uint64_t bits = frontier_.word(i);
    if (bits == 0) continue;
    frontier_.clear_word(i);
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const VertexId v =
          static_cast<VertexId>((i << 6) + static_cast<size_t>(b));
      if (!fault_ || !node_down_[static_cast<size_t>(v)])
        shard.active.push_back(v);
    } while (bits != 0);
  }
}

void Scheduler::invoke_chunk(int lane_index, int round) {
  NodeContext ctx;
  ctx.network_ = network_;
  ctx.scheduler_ = this;
  ctx.round_ = round;
  ctx.lane_ = lane_index;
  Lane& lane = lanes_[static_cast<size_t>(lane_index)];
  const std::span<const VertexId> window = active_.window();
  const size_t begin = chunk_bounds_[static_cast<size_t>(lane_index)];
  const size_t end = chunk_bounds_[static_cast<size_t>(lane_index) + 1];
  for (size_t i = begin; i < end; ++i) {
    const VertexId v = window[i];
    const size_t vi = static_cast<size_t>(v);
    ctx.self_ = v;
    ctx.links_ = network_->links(v);
    ctx.link_base_ = network_->link_base(v);
    const std::uint32_t len = inbox_len_[vi];
    const Delivery* inbox =
        len != 0 ? arena_.data() + inbox_start_[vi] : nullptr;
    programs_[vi]->on_round(ctx, std::span<const Delivery>(inbox, len));
    if (!programs_[vi]->quiescent()) {
      lane.wake_any = 1;
      // Cross-shard mark: any lane may wake any vertex.
      if (!options_.full_sweep) frontier_.set_atomic(v);
    }
  }
}

}  // namespace lightnet::congest

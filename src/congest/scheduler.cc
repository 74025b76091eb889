#include "congest/scheduler.h"

#include <algorithm>
#include <bit>
#include <climits>

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

std::span<const std::uint64_t> NodeContext::payload(const Message& msg) const {
  return scheduler_->payload(msg);
}

Scheduler::Scheduler(const Network& network, NodeProgram& program,
                     SchedulerOptions options)
    : network_(&network),
      num_nodes_(network.num_nodes()),
      program_(&program),
      options_(options) {
  LN_REQUIRE(options_.channels >= 1 && options_.channels <= 256,
             "channels must fit the message's 8-bit channel tag");
  const size_t n = static_cast<size_t>(num_nodes_);
  const size_t channels = static_cast<size_t>(options_.channels);

  // One lane and one recipient shard per thread; threads = 1 has no pool.
  options_.threads = std::clamp(options_.threads, 1, kMaxLanes);
  const size_t t = static_cast<size_t>(options_.threads);
  if (t > 1) {
    pool_ = std::make_unique<WorkerPool>(options_.threads);
    shard_of_.assign(n, 0);
  }
  active_.reserve(n);
  const auto views = network.shard_views(options_.threads);
  shards_.resize(t);
  for (size_t s = 0; s < t; ++s) {
    shards_[s].begin = views[s].begin;
    shards_[s].end = views[s].end;
    if (t > 1)
      for (VertexId v = views[s].begin; v < views[s].end; ++v)
        shard_of_[static_cast<size_t>(v)] = static_cast<std::uint8_t>(s);
    if (channels > 1) shards_[s].channel_max_load.assign(channels, 0);
  }
  lanes_.resize(t);
  if (channels > 1)
    for (Lane& lane : lanes_) lane.channels.assign(channels, {});
  shard_arena_base_.resize(t);
  chunk_bounds_.assign(t + 1, 0);

  adopt_scratch();
  inbox_start_.assign(n, 0);
  inbox_len_.assign(n, 0);
  recv_count_.assign(n, 0);
  frontier_.reset(static_cast<int>(n));
  const size_t slots = static_cast<size_t>(network.graph().num_edges()) * 2;
  edge_load_.assign(slots, 0);

  if (channels > 1) {
    channel_totals_.assign(channels, {});
    edge_load_ch_.assign(channels * slots, 0);
  }

  if (options_.fault.enabled()) {
    fault_ = std::make_unique<FaultModel>(options_.fault);
    fault_seq_.assign(slots, 0);
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
  Lane& lane = lanes_[0];
  ShardScratch& shard = shards_[0];
  lane.out[0] = std::move(s->stage);
  lane.out[0].clear();
  lane.dout[0] = std::move(s->deliver_buf);
  lane.dout[0].clear();
  lane.words = std::move(s->stage_words);
  lane.words.clear();
  lane.dwords = std::move(s->deliver_words);
  lane.dwords.clear();
  arena_ = std::move(s->arena);
  arena_.clear();
  inbox_start_ = std::move(s->inbox_start);
  inbox_len_ = std::move(s->inbox_len);
  recv_count_ = std::move(s->recv_count);
  shard.mail = std::move(s->mail);
  shard.mail.clear();
  shard.active = std::move(s->active);
  shard.active.clear();
  edge_load_ = std::move(s->edge_load);
}

void Scheduler::return_scratch() {
  if (scratch_ == nullptr) return;
  SchedulerScratch* s = scratch_;
  scratch_ = nullptr;
  Lane& lane = lanes_[0];
  ShardScratch& shard = shards_[0];
  s->stage = std::move(lane.out[0]);
  s->deliver_buf = std::move(lane.dout[0]);
  // The word arenas go back in the roles they were adopted in, so every
  // run stages its round 0 (an exploration wave's shell burst, usually its
  // widest round) into the same arena and the other one stays small.
  if (words_flipped_) std::swap(lane.words, lane.dwords);
  s->stage_words = std::move(lane.words);
  s->deliver_words = std::move(lane.dwords);
  s->arena = std::move(arena_);
  s->inbox_start = std::move(inbox_start_);
  s->inbox_len = std::move(inbox_len_);
  s->recv_count = std::move(recv_count_);
  s->mail = std::move(shard.mail);
  s->active = std::move(shard.active);
  s->edge_load = std::move(edge_load_);
  s->in_use = false;
}

void Scheduler::enqueue_resolved(int lane_index, VertexId from, VertexId to,
                                 EdgeId edge, std::uint32_t dir_slot,
                                 const Message& msg) {
  LN_ASSERT_MSG(msg.size <= kMaxWords, "message exceeds word budget");
  // A w-word message occupies ceil(w / kMaxWords) standard-message slots of
  // the per-round edge budget (1 for every standard message, so the strict
  // check and max_edge_load are unchanged for non-batched programs). A
  // directed slot has a single sender, so lanes update its load without
  // synchronization; the receiver's shard folds it at the next delivery.
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
  Lane& lane = lanes_[static_cast<size_t>(lane_index)];
  if (!edge_load_ch_.empty()) {
    // Multi-channel accounting (options_.channels > 1). The channel window
    // shares edge_load_'s single-sender-per-slot argument; message/word
    // counters go to the lane's run totals.
    LN_ASSERT_MSG(msg.channel < options_.channels,
                  "message channel out of range");
    edge_load_ch_[static_cast<size_t>(msg.channel) * edge_load_.size() +
                  dir_slot] += units;
    ChannelCost& cc = lane.channels[msg.channel];
    ++cc.messages;
    cc.words += static_cast<std::uint64_t>(total);
  }
  // Staged into this worker's lane, bucketed by the recipient's shard so
  // the owning delivery worker can drain it without contention. Counters
  // are lane-local; folded when the run ends.
  std::vector<Pending>& bucket =
      lane.out[shard_of_.empty() ? 0 : shard_of_[static_cast<size_t>(to)]];
  if (bucket.size() == bucket.capacity()) ++lane.reallocs;
  bucket.push_back({to, dir_slot, {from, edge, msg}});
  ++lane.messages;
  lane.words_sent += static_cast<std::uint64_t>(total);
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

void Scheduler::enqueue_words(int lane_index, VertexId from, VertexId to,
                              EdgeId edge, std::uint32_t dir_slot,
                              std::uint32_t tag, std::uint8_t channel,
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
    } else {
      Lane& lane = lanes_[static_cast<size_t>(lane_index)];
      const size_t lane_off = lane.words.size();
      LN_ASSERT_MSG(
          lane_off + chunk.size() <= static_cast<size_t>(kLaneOffsetMask) + 1,
          "lane word arena exceeds the packed-offset budget");
      msg.ext_offset = (static_cast<std::uint32_t>(lane_index) << kLaneShift) |
                       static_cast<std::uint32_t>(lane_off);
      msg.ext_size = static_cast<std::uint16_t>(chunk.size());
      if (reserve_words(lane.words, chunk.size())) ++lane.reallocs;
      lane.words.insert(lane.words.end(), chunk.begin(), chunk.end());
    }
    enqueue_resolved(lane_index, from, to, edge, dir_slot, msg);
  }
}

std::span<const std::uint64_t> Scheduler::payload(const Message& msg) const {
  if (msg.ext_size == 0)
    return {msg.words.data(), static_cast<size_t>(msg.size)};
  const Lane& lane = lanes_[msg.ext_offset >> kLaneShift];
  return {lane.dwords.data() + (msg.ext_offset & kLaneOffsetMask),
          static_cast<size_t>(msg.ext_size)};
}

void Scheduler::shuffle_inbox(int round, VertexId v) {
  // Seeded Fisher-Yates over one inbox span: a CONGEST-legal adversary may
  // pick any within-round delivery order, so order-robust programs must
  // produce identical output under any shuffle_key.
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

CostStats Scheduler::run() {
  for (int round = 0;; ++round) {
    if (round >= options_.max_rounds) {
      // Graceful abort: callers get the ledger and whatever partial state
      // the programs hold; api::run_with_outcome turns this into
      // RunOutcome::aborted instead of tearing the process down.
      stats_.rounds_capped = 1;
      break;
    }
    if (fault_) apply_crash_events(round);
    run_round(round);
    stats_.rounds = static_cast<std::uint64_t>(round) + 1;
    if (!busy_ && waiting_restarts_ == 0) break;
  }
  // Lanes and shards count over the whole run.
  for (const ShardScratch& shard : shards_) stats_.dropped += shard.dropped;
  for (const Lane& lane : lanes_) {
    stats_.messages += lane.messages;
    stats_.words += lane.words_sent;
    stats_.inbox_reallocs += lane.reallocs;
    for (size_t ch = 0; ch < lane.channels.size(); ++ch) {
      channel_totals_[ch].messages += lane.channels[ch].messages;
      channel_totals_[ch].words += lane.channels[ch].words;
    }
  }
  // Account the final round's congestion window: the sends of the last
  // round of a max_rounds-capped run were never delivered (a run that ends
  // quiescent has none in flight).
  merge_shard_windows();
  if (!channel_totals_.empty()) stats_.per_channel = channel_totals_;
  return stats_;
}

void Scheduler::run_round(int round) {
  const size_t t = shards_.size();

  // --- flip the lanes' double buffers, slice the arena by shard ---
  for (size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = lanes_[l];
    for (size_t s = 0; s < t; ++s) lane.out[s].swap(lane.dout[s]);
    // Word arenas only move when a batched program staged long payloads;
    // the common standard-message round skips the swap entirely.
    if (!lane.words.empty() || !lane.dwords.empty()) {
      lane.words.swap(lane.dwords);
      lane.words.clear();
      if (l == 0) words_flipped_ = !words_flipped_;
    }
  }
  std::uint64_t deliver_total = 0;
  std::uint64_t busiest = 0;
  for (size_t s = 0; s < t; ++s) {
    std::uint64_t count = 0;
    for (const Lane& lane : lanes_) count += lane.dout[s].size();
    shard_arena_base_[s] = static_cast<std::uint32_t>(deliver_total);
    deliver_total += count;
    busiest = std::max(busiest, count);
  }
  if (t > 1 && deliver_total != 0) {
    const std::uint64_t average = (deliver_total + t - 1) / t;
    if (busiest > average)
      stats_.max_shard_skew = std::max(stats_.max_shard_skew, busiest - average);
  }
  const size_t old_capacity = arena_.capacity();
  arena_.resize(deliver_total);
  if (arena_.capacity() != old_capacity) ++stats_.inbox_reallocs;

  // Delivery direction, a pure function of the round's volume: dense
  // rounds scan each shard's vertex range instead of listing recipients as
  // the buckets drain. Fault plans pin the sparse direction (drop
  // accounting builds the recipient lists anyway).
  const bool dense = deliver_total != 0 &&
                     deliver_total * 4 >= static_cast<std::uint64_t>(num_nodes_) &&
                     !fault_ && !options_.full_sweep;
  if (dense) ++stats_.rounds_receiver_scan;

  // --- job 1: per-shard inbox assembly, window fold, frontier scan ---
  if (pool_)
    stats_.barrier_wait_ns +=
        pool_->run([&](int shard) { deliver_shard(shard, round, dense); });
  else
    deliver_shard(0, round, dense);

  // --- the invocation order: every live vertex under full_sweep and in
  // round 0, else the shard scans concatenated in shard order (the global
  // ascending order; at threads = 1 the one scan is used as is) ---
  if (options_.full_sweep || round == 0) {
    active_.clear();
    for (VertexId v = 0; v < num_nodes_; ++v)
      if (!fault_ || !node_down_[static_cast<size_t>(v)]) active_.push_back(v);
    order_ = active_;
  } else if (t == 1) {
    marks_ = {};  // the scans consumed every mark made so far
    order_ = shards_[0].active;
  } else {
    marks_ = {};
    active_.clear();
    for (const ShardScratch& shard : shards_)
      active_.insert(active_.end(), shard.active.begin(), shard.active.end());
    order_ = active_;
  }
  if (round > 0 && order_.empty() && fault_)
    ++stats_.rounds_lost;  // the plan left no vertex to run

  // --- job 2: invocation. An even split of the ascending order, so lane l
  // owns a contiguous run of senders and draining lanes in order at the
  // next delivery reproduces the ascending send interleaving exactly ---
  chunk_bounds_[t] = order_.size();
  if (pool_) {
    for (size_t l = 1; l < t; ++l) chunk_bounds_[l] = order_.size() * l / t;
    stats_.barrier_wait_ns +=
        pool_->run([&](int lane) { invoke_chunk(lane, round); });
    ++stats_.rounds_parallel;
  } else {
    invoke_chunk(0, round);
  }

  // --- what the round left behind: wake-ups, their marks, sends ---
  bool busy = false;
  for (Lane& lane : lanes_) {
    busy |= lane.wake_any != 0 || lane.messages != lane.messages_seen;
    lane.wake_any = 0;
    lane.messages_seen = lane.messages;
    marks_.widen(lane.marks);
    lane.marks = {};
  }
  busy_ = busy;
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
  const size_t s = static_cast<size_t>(shard_index);

  // 1. Close out the spans this shard's recipients consumed last round.
  for (VertexId v : shard.mail) inbox_len_[static_cast<size_t>(v)] = 0;
  shard.mail.clear();

  // 2. Drain the lanes' buckets for this shard in lane order — the
  // ascending send order restricted to the shard, because each lane owns a
  // contiguous ascending run of the round's senders. Fault filtering runs
  // here so per-slot message indices follow the send order exactly (a
  // directed slot's receiver is fixed, so its fault_seq_ entry belongs to
  // exactly this shard).
  for (Lane& lane : lanes_) {
    std::vector<Pending>& bucket = lane.dout[s];
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
  std::uint32_t offset = shard_arena_base_[s];
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
    if (!shard.mail.empty()) {
      shard.marks.widen(shard.mail.front());
      shard.marks.widen(shard.mail.back());
    }
  } else {
    const bool wake = !options_.full_sweep;
    for (VertexId v : shard.mail) {
      const size_t vi = static_cast<size_t>(v);
      inbox_start_[vi] = offset;
      inbox_len_[vi] = recv_count_[vi];
      offset += recv_count_[vi];
      recv_count_[vi] = 0;  // reused as the scatter cursor below
      if (wake) {
        frontier_.set(v);
        shard.marks.widen(v);
      }
    }
  }

  // 4. Counting-sort scatter, stable per recipient (lane order again), with
  // the congestion window of each delivered message folded on the way.
  for (Lane& lane : lanes_) {
    std::vector<Pending>& bucket = lane.dout[s];
    for (const Pending& p : bucket) {
      const size_t ti = static_cast<size_t>(p.to);
      arena_[inbox_start_[ti] + recv_count_[ti]++] = p.delivery;
      fold_window(shard, p);
    }
    bucket.clear();
  }
  for (VertexId v : shard.mail) recv_count_[static_cast<size_t>(v)] = 0;

  // 5. Adversarial reorder, seeded per (round, recipient) — shard-local.
  if (fault_ && fault_->plan().reorder)
    for (VertexId v : shard.mail) shuffle_inbox(round, v);

  // 6. The shard's slice of this round's invocation order (the whole range
  // under full_sweep and in round 0 is listed after the job), by a frontier
  // scan.
  if (!options_.full_sweep && round != 0) scan_shard_frontier(shard);
}

void Scheduler::scan_shard_frontier(ShardScratch& shard) {
  shard.active.clear();
  // The shard's bitmap words (disjoint from every other shard's, by the
  // 64-aligned boundaries) were written only by this delivery, by the
  // previous round's invocation and outside the jobs, all ordered before
  // this point by the pool's hand-offs. Every mark since the last scan lies
  // in the window of the marks made outside this job (marks_, the lanes'
  // folded in) or of this shard's recipient marks. The ascending scan is
  // the shard's slice of the invocation order.
  MarkWindow window = marks_;
  window.widen(shard.marks);
  shard.marks = {};
  const size_t word_begin =
      std::max(window.lo, static_cast<size_t>(shard.begin) >> 6);
  const size_t word_end = std::min(
      window.hi + 1, (static_cast<size_t>(shard.end) + 63) >> 6);
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
  NodeProgram& program = *program_;
  Lane& lane = lanes_[static_cast<size_t>(lane_index)];
  const bool wake = !options_.full_sweep;
  // Any lane may wake any vertex, so with a pool the marks are atomic.
  const bool shared = pool_ != nullptr;
  const size_t begin = chunk_bounds_[static_cast<size_t>(lane_index)];
  const size_t end = chunk_bounds_[static_cast<size_t>(lane_index) + 1];
  for (size_t i = begin; i < end; ++i) {
    const VertexId v = order_[i];
    const size_t vi = static_cast<size_t>(v);
    ctx.self_ = v;
    ctx.links_ = network_->links(v);
    ctx.link_base_ = network_->link_base(v);
    const std::uint32_t len = inbox_len_[vi];
    const Delivery* inbox =
        len != 0 ? arena_.data() + inbox_start_[vi] : nullptr;
    program.on_round(ctx, std::span<const Delivery>(inbox, len));
    if (!program.quiescent(v)) {
      lane.wake_any = 1;
      if (!wake) continue;
      if (shared)
        frontier_.set_atomic(v);
      else
        frontier_.set(v);
      lane.marks.widen(v);
    }
  }
}

}  // namespace lightnet::congest

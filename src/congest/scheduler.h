// Synchronous round scheduler for the CONGEST model.
//
// An algorithm is one local rule that every vertex runs: a NodeProgram.
// Each round the scheduler delivers the previous round's messages and
// invokes the program at the due vertices; outgoing messages appear in
// neighbors' inboxes next round. Execution ends when every vertex is
// quiescent and no messages are in flight (the simulator plays the role of
// a termination detector; a real deployment would add an O(D)
// termination-detection phase, which is dominated by every phase cost in
// this library). Three rules bind a program:
//  - One object per run. The program holds its read-only inputs once and
//    its per-vertex state in vertex-indexed arrays; on_round learns its
//    vertex from NodeContext::self().
//  - quiescent(v) reads only v's state, and that state changes only inside
//    v's own on_round (a skipped vertex's answer is assumed stable).
//  - Lanes call on_round for different vertices at once (threads > 1), so
//    a call writes only its own vertex's slots of the program's arrays and
//    of shared result arrays: no shared mutable scalars, and never a
//    std::vector<bool>, whose neighbouring vertices share a word. Scratch
//    that lives for one call is kept once per lane (NodeContext::lane()).
//
// Hot paths (the structures that make large-n simulation cheap):
//  - O(1) send resolution: NodeContext::send_on_link addresses a neighbor by
//    its local link index, hitting a precomputed (edge, direction) slot
//    table in Network. NodeContext::send(neighbor, ...) resolves the
//    neighbor through the Network's sorted sidecar in O(log deg) — never
//    the O(deg) WeightedGraph::find_edge scan.
//  - Frontier rounds: the per-round active set lives in a frontier bitmap
//    (congest/frontier.h). Waking a node is one OR; the ascending bit scan
//    yields the sorted invocation order for free, so no per-round sort is
//    needed and executions stay bit-identical to the full sweep
//    (SchedulerOptions::full_sweep). The scan reads only the bitmap words
//    marked since the last scan, so a sleeping frontier costs nothing.
//  - Flat message arena: inboxes live in one double-buffered flat Delivery
//    array, counting-sorted by recipient at delivery time. Steady state
//    performs zero per-round heap allocations (CostStats::inbox_reallocs
//    instruments this). Delivery switches per round, on the round's
//    delivered volume, between listing recipients as the buckets drain
//    (sparse rounds) and scanning the receiver range directly (dense
//    rounds) — the top-down/bottom-up direction switch of the hybrid-BFS
//    literature, applied to inbox assembly.
//  - One round, sharded: node programs within a round are independent by
//    construction, so a round is two jobs over vertex shards. Invocation
//    splits the ascending active set into one contiguous chunk per lane; a
//    lane stages its nodes' sends into per-recipient-shard buckets plus a
//    private word arena. Delivery gives each worker one contiguous,
//    64-aligned vertex shard, whose inboxes it assembles by draining the
//    lanes' buckets in lane order — a stable merge that reproduces the
//    ascending send interleaving exactly — while folding the shard's
//    congestion window and scanning its frontier words. With
//    SchedulerOptions::threads > 1 a persistent worker pool runs each job
//    (two hand-offs per round); threads = 1 runs the same round with one
//    lane and one shard and calls both jobs inline. Artifacts, ledgers and
//    stats are bit-identical at every thread count; tests/round_oracle.h is
//    the naive round loop they are all checked against.
//  - No side layer: the round is delivery plus invocation and nothing else.
//    Recovery from a fault plan's losses is program state (the reliable BFS
//    of congest/bfs.cc keeps its own stop-and-wait per link), so a faulty
//    run takes the same sharded round at any thread count.
//
// Congestion: the scheduler counts messages per (edge, direction) per round.
// In strict mode, more than one message on a directed edge in a round —
// i.e., exceeding the O(log n)-bit budget — aborts the run. Primitives in
// this library are written to pass strict mode; the max_edge_load stat
// proves it per execution.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "congest/fault.h"
#include "congest/frontier.h"
#include "congest/message.h"
#include "congest/network.h"
#include "congest/stats.h"

namespace lightnet::congest {

class NodeContext;
class WorkerPool;

class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  // Runs vertex ctx.self() for one round on the messages delivered to it.
  // Under active-set scheduling a vertex is invoked only when it has mail,
  // was non-quiescent after its previous invocation, restarted from a
  // crash, or it is round 0 (every round under full_sweep).
  virtual void on_round(NodeContext& ctx, std::span<const Delivery> inbox) = 0;
  // True when vertex v has no more work to initiate. Asked right after v's
  // on_round, by the lane that ran it. The run ends when every vertex is
  // quiescent AND no messages are in flight.
  virtual bool quiescent(VertexId v) const = 0;
};

class Scheduler;

// Per-node handle passed into on_round.
class NodeContext {
 public:
  VertexId self() const { return self_; }
  int round() const { return round_; }
  // Staging lane of the invoking worker, in [0, Scheduler::kMaxLanes). No
  // two concurrent on_round calls share a lane, so a program keeps its
  // call-local scratch once per lane, indexed by this.
  int lane() const { return lane_; }
  const Network& network() const { return *network_; }
  std::span<const Incidence> links() const { return links_; }

  // Queues a message to a neighbor for delivery next round. O(log deg).
  void send(VertexId neighbor, const Message& msg);

  // Fast path: queues a message on links()[link_index]. O(1). Programs that
  // iterate their links (floods, frontier announcements) should use this.
  void send_on_link(int link_index, const Message& msg);

  // Batched fast path: queues one message carrying `words` on
  // links()[link_index] (payloads wider than an arena record are split
  // into in-order chunks of Scheduler::kBatchChunkWords). Up to kMaxWords
  // words ride inline; longer payloads live in the scheduler's
  // double-buffered word arena. The congestion window is charged
  // ceil(words / kMaxWords) standard-message units, so strict_congest
  // rejects any batch wider than one standard message and max_edge_load
  // reports the honest bandwidth multiple of a relaxed run. `channel` tags
  // the message's logical flow (Message::channel); with
  // SchedulerOptions::channels > 1 the flow's costs are additionally
  // accounted in CostStats::per_channel. There is no flood form: a
  // program announcing on every link calls this once per link, so each
  // link's payload can leave out what its far end would reject.
  void send_words_on_link(int link_index, std::uint32_t tag,
                          std::span<const std::uint64_t> words,
                          std::uint8_t channel = 0);

  // Full payload of a delivered message: the inline words for standard
  // messages, the arena-resident span for batched ones. Valid only during
  // the round the message was delivered in.
  std::span<const std::uint64_t> payload(const Message& msg) const;

 private:
  friend class Scheduler;
  VertexId self_ = kNoVertex;
  int round_ = 0;
  int link_base_ = 0;  // flat offset of self's links in the Network index
  int lane_ = 0;       // staging lane of the invoking worker
  std::span<const Incidence> links_;
  const Network* network_ = nullptr;
  Scheduler* scheduler_ = nullptr;
};

// Staged outgoing message: recipient plus the Delivery it will see. `slot`
// is the directed slot (2*edge + direction) the message was charged to; it
// rides in what would otherwise be alignment padding before `delivery`.
struct Pending {
  VertexId to;
  std::uint32_t slot;
  Delivery delivery;
};
static_assert(sizeof(Pending) == 8 + sizeof(Delivery),
              "the slot must fit the padding before the delivery");

// Cross-run arena pool. A Scheduler's flat message buffers (staging
// buckets, word arenas, inbox index, edge loads, ...) reach steady-state
// capacity within a run. Every Scheduler adopts a pool's capacity at
// construction and returns it — grown — at destruction, so back-to-back
// runs skip the warm-up allocations. The pool is the one donated via
// SchedulerOptions::scratch (a long-lived server such as lightnetd owns one
// and reports its `adoptions`), or else the calling thread's own
// thread_local pool, shared by every run on that thread (so a Scheduler is
// destroyed on the thread that constructed it). Contents are opaque
// capacity: the scheduler clears every adopted vector before use, so
// execution is bit-identical with or without a pool. The batched-payload
// word arenas grow straight to the power of two a round needs and return
// in the roles they were adopted in, so their capacities depend only on the
// largest rounds they held, not on which runs came first. `in_use` guards
// nesting: a kernel started from inside another kernel's run on the same
// pool builds private buffers instead. The pool lends lane 0's and shard
// 0's buffers (all of them at threads = 1, where those are the only lane
// and shard) plus the per-vertex and per-slot arrays; the other lanes' and
// shards' buffers are per-pool-size and stay privately owned.
struct SchedulerScratch {
  std::vector<Pending> stage;          // lane 0's fill-side bucket 0
  std::vector<Pending> deliver_buf;    // lane 0's delivery-side bucket 0
  std::vector<std::uint64_t> stage_words;
  std::vector<std::uint64_t> deliver_words;
  std::vector<Delivery> arena;
  std::vector<std::uint32_t> inbox_start;
  std::vector<std::uint32_t> inbox_len;
  std::vector<std::uint32_t> recv_count;
  std::vector<VertexId> mail;          // shard 0's recipients
  std::vector<VertexId> active;        // shard 0's frontier scan
  std::vector<std::uint32_t> edge_load;
  bool in_use = false;
  std::uint64_t adoptions = 0;
};

struct SchedulerOptions {
  // Hard cap on rounds. Exceeding it stops the execution gracefully: the
  // run returns whatever the programs computed so far and the cost ledger,
  // with CostStats::rounds_capped set so callers can surface an aborted
  // RunOutcome instead of dying mid-experiment.
  int max_rounds = 1'000'000;
  // Deterministic fault injection (congest/fault.h). The zero plan is the
  // fault-free fast path — no per-delivery overhead at all.
  FaultPlan fault;
  // Worker threads for round execution. 1 (the default) runs the round's
  // two jobs inline with one lane and one shard and no pool at all; values
  // > 1 are clamped to Scheduler::kMaxLanes. Outputs, artifacts and all
  // model costs are bit-identical across every thread count — parallelism
  // only changes wall-clock time and the rounds_parallel/max_shard_skew/
  // barrier_wait_ns instrumentation. Composes with fault plans: a lossy
  // run makes the same drops, crashes and restarts at every thread count.
  int threads = 1;
  // Abort if any directed edge carries more than one message in one round.
  bool strict_congest = true;
  // Invoke every program every round instead of only the active set. The
  // execution (deliveries, stats) is identical either way; this is the
  // reference mode tests compare against and benchmarks measure.
  bool full_sweep = false;
  // Number of logical channels sharing this execution (Message::channel).
  // 1 (the default) adds no accounting at all; values > 1 allocate
  // per-channel message/word counters and a channel-strided congestion
  // window, reported in CostStats::per_channel. Channel ids on messages
  // must be < channels.
  int channels = 1;
  // The doubling pipeline's reference mode: close the exploration wave
  // after every scale (one scheduler pass per scale) and thin the next
  // scale's seeds from that wave's tables, instead of fusing consecutive
  // scales into concurrent-scale waves fed by a seed-filter chain
  // (core/doubling_spanner.cc). Spanners are bit-identical either way;
  // bench_doubling checks the waves against it.
  bool sequential_scales = false;
  // Optional donated arena pool (see SchedulerScratch above). Null means the
  // Scheduler adopts its thread's own pool.
  SchedulerScratch* scratch = nullptr;
};

class Scheduler {
 public:
  // `program` runs at every vertex of `network`; it must outlive run().
  Scheduler(const Network& network, NodeProgram& program,
            SchedulerOptions options = {});
  ~Scheduler();  // out of line: WorkerPool is incomplete here

  // Runs rounds until global quiescence; returns the cost.
  CostStats run();

  // Payloads wider than one arena record (ext_size is 16-bit) are split
  // into chunks of this many words, each shipped as its own message and
  // delivered in order. 65532 is the largest multiple of 6 below 2^16, so
  // any framing of fixed tuples of ≤ 3 words survives the split intact.
  static constexpr size_t kBatchChunkWords = 65532;

  // Max worker lanes. 16 lanes leaves 28 bits of Message::ext_offset for
  // the lane-local word-arena offset (256M words per lane per round).
  static constexpr int kMaxLanes = 16;

 private:
  friend class NodeContext;

  static constexpr std::uint32_t kLaneShift = 28;
  static constexpr std::uint32_t kLaneOffsetMask = (1u << kLaneShift) - 1;

  // The frontier-bitmap words marked since the last scan, as one range, so
  // a sparse frontier on a huge graph scans a handful of words, not n/64.
  struct MarkWindow {
    size_t lo = SIZE_MAX;
    size_t hi = 0;
    void widen(VertexId v) {
      const size_t w = static_cast<size_t>(v) >> 6;
      if (w < lo) lo = w;
      if (w > hi) hi = w;
    }
    void widen(const MarkWindow& o) {
      if (o.lo < lo) lo = o.lo;
      if (o.hi > hi) hi = o.hi;
    }
  };

  // Per-worker staging state. Each lane owns the messages its worker's
  // nodes send during a round: bucketed by recipient shard (so delivery
  // workers can drain them without contention) plus a private word arena
  // for batched payloads. Cache-line aligned so two workers' hot counters
  // never share a line.
  struct alignas(64) Lane {
    // Buckets by recipient shard (the first `threads` are used), held in
    // the lane so that reaching one takes no pointer chase.
    std::array<std::vector<Pending>, kMaxLanes> out;   // fill side
    std::array<std::vector<Pending>, kMaxLanes> dout;  // delivery side
    std::vector<std::uint64_t> words;         // fill-side batched payloads
    std::vector<std::uint64_t> dwords;        // delivery-side payloads
    // Run totals of the lane's sends, folded into the stats when the run
    // ends, and the per-round wake-up state, folded after each invocation.
    std::uint64_t messages = 0;
    std::uint64_t messages_seen = 0;  // `messages` at the last fold
    std::uint64_t words_sent = 0;
    std::uint64_t reallocs = 0;
    std::uint8_t wake_any = 0;
    MarkWindow marks;  // this lane's wake marks of non-quiescent nodes
    // Lane-local per-channel message/word totals (channels > 1 only).
    std::vector<ChannelCost> channels;
  };

  // Per-recipient-shard scratch owned by exactly one delivery worker.
  struct alignas(64) ShardScratch {
    VertexId begin = 0;
    VertexId end = 0;
    std::vector<VertexId> mail;     // this round's recipients in the shard
    std::vector<VertexId> active;   // the shard's slice of the invocation order
    std::vector<std::uint32_t> fault_touched;  // dir slots to reset
    std::uint64_t dropped = 0;      // run total
    MarkWindow marks;  // this shard's recipient wake marks
    // Running maxima of the congestion windows folded while draining (the
    // untagged one, and per channel when channels > 1); merged into the
    // stats once the run ends.
    std::uint64_t max_edge_load = 0;
    std::vector<std::uint64_t> channel_max_load;
  };

  void enqueue_resolved(int lane, VertexId from, VertexId to, EdgeId edge,
                        std::uint32_t dir_slot, const Message& msg);
  void enqueue_words(int lane, VertexId from, VertexId to, EdgeId edge,
                     std::uint32_t dir_slot, std::uint32_t tag,
                     std::uint8_t channel,
                     std::span<const std::uint64_t> words);
  // Full payload of a delivered message: the inline words, or the span of
  // the staging lane's delivery-side word arena that ext_offset packs (lane
  // in the top bits, lane-local offset below).
  std::span<const std::uint64_t> payload(const Message& msg) const;
  // Marks a vertex for invocation from a point of the round where no job
  // runs (restarts).
  void mark_frontier(VertexId v) {
    frontier_.set(v);
    marks_.widen(v);
  }
  void shuffle_inbox(int round, VertexId v);  // fault plan's reorder
  void apply_crash_events(int round);  // crash/restart transitions

  // --- the round: delivery job, invocation job ---
  void run_round(int round);
  // The delivery job of one recipient shard: inbox assembly, the window
  // fold, then the shard's slice of the invocation order into shard.active
  // by a frontier scan (none in round 0 and under full_sweep, which invoke
  // every live vertex).
  void deliver_shard(int shard, int round, bool dense);
  // Ascending scan of the shard's bitmap words inside the mark windows.
  void scan_shard_frontier(ShardScratch& shard);
  // Reads, clears and keeps the max of the congestion windows (untagged
  // and channel) of p's directed slot. Only the slot's receiver shard
  // calls this, so each slot has one writer per delivery.
  void fold_window(ShardScratch& shard, const Pending& p);
  // End of a run: folds the windows of messages still staged (the last
  // round of a max_rounds-capped run) and merges the shard maxima.
  void merge_shard_windows();
  void invoke_chunk(int lane, int round);
  // Compacts one lane bucket under the fault plan; the shard owner calls
  // this for each lane in lane order so per-slot message indices follow
  // the send order exactly.
  void fault_filter_bucket(ShardScratch& shard, std::vector<Pending>& bucket,
                           int round);

  const Network* network_;
  VertexId num_nodes_ = 0;  // cached: read every round by the hot loop
  NodeProgram* program_;
  SchedulerOptions options_;

  // --- flat inboxes (rebuilt every round from the lanes' buckets) ---
  std::vector<Delivery> arena_;             // deliveries grouped by recipient
  std::vector<std::uint32_t> inbox_start_;  // per-node arena offset
  std::vector<std::uint32_t> inbox_len_;    // per-node count; 0 unless mail
  std::vector<std::uint32_t> recv_count_;   // drain counts / scatter cursor

  // --- frontier (active-set) tracking ---
  FrontierBitmap frontier_;     // vertices to invoke next round
  // The full range (round 0, full_sweep) or the concatenated shard scans
  // (threads > 1).
  std::vector<VertexId> active_;
  std::span<const VertexId> order_;  // this round's invocation order
  MarkWindow marks_;  // marks made outside the jobs, plus folded lane marks
  // The round left a program non-quiescent or a message in flight.
  bool busy_ = false;
  bool words_flipped_ = false;  // lane 0's word arenas swapped roles

  CostStats stats_;
  // Per-round congestion tracking: messages sent on each directed edge.
  // A directed slot has a single sender, so lanes add to it without
  // synchronization during invocation, and a single receiver, whose shard
  // owner reads and clears it during the next delivery (fold_window).
  std::vector<std::uint32_t> edge_load_;  // indexed by 2*edge + direction

  // --- per-channel accounting (allocated only when options_.channels > 1;
  //     a single-channel run never touches any of this) ---
  std::vector<ChannelCost> channel_totals_;  // running message/word counts
  // Channel-strided congestion windows, indexed channel * (2E) + dir_slot.
  // Like edge_load_, each directed slot has a single sender and a single
  // receiver per round, and the windows are folded alongside the untagged
  // one.
  std::vector<std::uint32_t> edge_load_ch_;

  // --- lanes and shards (one each at threads = 1, which has no pool) ---
  std::unique_ptr<WorkerPool> pool_;
  std::vector<Lane> lanes_;
  std::vector<ShardScratch> shards_;
  std::vector<std::uint8_t> shard_of_;        // vertex -> recipient shard
  std::vector<std::uint32_t> shard_arena_base_;  // per-shard arena slice
  std::vector<size_t> chunk_bounds_;          // invocation chunks over order_

  // --- fault injection (allocated only when options_.fault.enabled()) ---
  std::unique_ptr<FaultModel> fault_;
  std::vector<std::uint32_t> fault_seq_;  // per-dir-slot msg_index counters
  std::vector<std::uint8_t> node_down_;       // crashed right now
  struct CrashEvent {
    int round;
    VertexId v;
    bool down;  // false = restart
  };
  std::vector<CrashEvent> crash_events_;  // sorted by (round, v)
  size_t next_crash_event_ = 0;
  int waiting_restarts_ = 0;  // down nodes that will come back

  // --- cross-run arena pool (see SchedulerScratch) ---
  SchedulerScratch* scratch_ = nullptr;  // non-null only while adopted
  void adopt_scratch();   // ctor: take a pool's capacity, cleared
  void return_scratch();  // dtor: hand the grown buffers back
};

}  // namespace lightnet::congest

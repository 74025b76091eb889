// Cost accounting for CONGEST executions.
//
// The paper's results are round-complexity statements; every lightnet
// algorithm therefore returns a CostStats alongside its output. Phased
// algorithms (SLT, light spanner, ...) accumulate their phases in a
// RoundLedger, mirroring how the paper sums the costs of its building
// blocks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lightnet::congest {

// Minimal JSON string escaping (quotes, backslashes, control characters);
// phase names are ASCII identifiers today, but the emitters below must never
// produce invalid JSON regardless of what a caller names a phase.
std::string json_escape(const std::string& s);

// Per-channel slice of an execution's model costs (SchedulerOptions::
// channels > 1). max_edge_load is the channel's own congestion window: the
// max number of message units the channel alone put on one directed edge in
// one round, so Σ channel messages == the untagged total while the channel
// loads bound each flow's bandwidth share.
struct ChannelCost {
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t max_edge_load = 0;
};

struct CostStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  // Max number of messages crossing a single directed edge in one round; 1
  // means the execution was strictly CONGEST-legal round by round.
  std::uint64_t max_edge_load = 0;
  // Simulator instrumentation (not a model cost): number of buffer-growth
  // events in the scheduler's message arena (a cold round may count several
  // as a staging vector grows geometrically). After the arena warms up to
  // the execution's peak round volume this stays flat — the arena-reuse
  // tests assert exactly that.
  std::uint64_t inbox_reallocs = 0;

  // Robustness counters — all zero on a fault-free run (and then omitted
  // from the JSON, so fault-free records keep their historical schema).
  std::uint64_t dropped = 0;        // deliveries lost to fault injection
  std::uint64_t retransmitted = 0;  // frames a program sent again (timeout)
  std::uint64_t rounds_lost = 0;    // rounds the plan left no vertex to run
  std::uint64_t crashed_nodes = 0;  // crash events applied
  std::uint64_t rounds_capped = 0;  // 1 if the run hit max_rounds (aborted)

  // Parallel-execution instrumentation (SchedulerOptions::threads > 1).
  // Like inbox_reallocs these are simulator internals, NEVER emitted in the
  // JSON: the parallel path's contract is that its records stay byte-equal
  // to serial ones, so only fields whose values are identical across thread
  // counts may reach an emitter. rounds_parallel, rounds_receiver_scan and
  // max_shard_skew are deterministic per (run, threads); barrier_wait_ns is
  // wall-clock and differs between invocations.
  std::uint64_t rounds_parallel = 0;  // rounds executed by the worker pool
  // Rounds whose delivery ran in receiver-scan ("bottom-up") mode: inbox
  // offsets assigned by a linear scan over the vertex range instead of by
  // listing recipients as the staged messages drain. Decided per round from
  // the volume that round delivers (at least one message per four
  // vertices, with no fault plan), so the count is the same at every
  // thread count.
  std::uint64_t rounds_receiver_scan = 0;
  // Max over parallel rounds of (messages into the busiest recipient shard)
  // minus the per-shard average that round: how unevenly the deterministic
  // sharding split delivery work in the worst round.
  std::uint64_t max_shard_skew = 0;
  // Nanoseconds the coordinating thread spent waiting for stragglers at
  // phase barriers (summed over all phases of all parallel rounds).
  std::uint64_t barrier_wait_ns = 0;

  // Per-channel accounting, populated only when the execution ran with
  // SchedulerOptions::channels > 1 (empty otherwise, and then omitted from
  // the JSON so single-channel records keep their historical schema).
  // Invariant: Σ per_channel[i].messages == messages and likewise for
  // words — the channel tag partitions the untagged totals.
  std::vector<ChannelCost> per_channel;

  CostStats& operator+=(const CostStats& o) {
    rounds += o.rounds;
    messages += o.messages;
    words += o.words;
    max_edge_load = max_edge_load > o.max_edge_load ? max_edge_load
                                                    : o.max_edge_load;
    inbox_reallocs += o.inbox_reallocs;
    dropped += o.dropped;
    retransmitted += o.retransmitted;
    rounds_lost += o.rounds_lost;
    crashed_nodes += o.crashed_nodes;
    rounds_capped += o.rounds_capped;
    rounds_parallel += o.rounds_parallel;
    rounds_receiver_scan += o.rounds_receiver_scan;
    max_shard_skew = max_shard_skew > o.max_shard_skew ? max_shard_skew
                                                       : o.max_shard_skew;
    barrier_wait_ns += o.barrier_wait_ns;
    // per_channel is deliberately NOT merged: channel i of one execution and
    // channel i of another are unrelated flows (the doubling pipeline maps
    // channels to different scales per wave), so the slices stay phase-local
    // and aggregated totals keep their historical single-channel schema.
    return *this;
  }
};

// {"rounds":..,"messages":..,"words":..,"max_edge_load":..} — the model
// costs only; inbox_reallocs and the parallel-execution instrumentation are
// simulator internals and stay out of the experiment records (which keeps
// parallel records byte-equal to serial ones). The robustness counters are
// appended only when nonzero, so fault-free output is byte-identical to
// what it always was.
std::string to_json(const CostStats& cost);

// Named phase costs; `total()` is what benches report, the per-phase
// breakdown is what EXPERIMENTS.md tables show.
class RoundLedger {
 public:
  void add(std::string phase, const CostStats& cost) {
    phases_.emplace_back(std::move(phase), cost);
    total_ += cost;
  }

  // Lemma 1 (pipelined broadcast/convergecast of M messages over the BFS
  // tree): O(M + D) rounds. The message-level primitive in tree_ops.* is
  // implemented and tested; phases that the paper describes as "broadcast
  // these M items" charge its cost through this helper.
  void charge_global_broadcast(std::string phase, std::uint64_t num_items,
                               std::uint64_t hop_diameter) {
    CostStats c;
    c.rounds = num_items + 2 * hop_diameter + 1;
    c.messages = num_items * (hop_diameter + 1);
    c.words = c.messages * 2;
    c.max_edge_load = 1;
    add(std::move(phase), c);
  }

  // Folds another ledger's phases into this one under a prefix; used by the
  // top-level constructions (SLT, light spanner, ...) to keep the full
  // per-phase breakdown of their substrates.
  void absorb(const RoundLedger& other, const std::string& prefix) {
    for (const auto& [name, cost] : other.phases_)
      add(prefix + "/" + name, cost);
  }

  const CostStats& total() const { return total_; }
  const std::vector<std::pair<std::string, CostStats>>& phases() const {
    return phases_;
  }

 private:
  std::vector<std::pair<std::string, CostStats>> phases_;
  CostStats total_;
};

// {"total":{...},"phases":[{"name":...,"rounds":...,...},...]} — the full
// per-phase breakdown, shared by the lightnet_cli JSON-lines emitter and the
// construction bench.
std::string to_json(const RoundLedger& ledger);

}  // namespace lightnet::congest

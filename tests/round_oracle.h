// A naive synchronous CONGEST round loop: the reference congest::Scheduler
// is checked against (tests/scheduler_fuzz_test.cc).
//
// Nothing here shares code with the scheduler's round. Each round the
// oracle decides crashes and restarts from the fault plan, delivers last
// round's sends (stable-sorted by recipient, faults applied in send order
// through FaultModel's decisions, inboxes shuffled with the same seeded
// Fisher-Yates the plan prescribes), invokes the due vertices in ascending
// order, and recounts every cost from the round's sends: messages, words,
// the per-round load of each directed slot in ceil(w / kMaxWords) units,
// and the same per channel. A vertex is due when it has mail, stayed
// non-quiescent after its last invocation, restarted this round, or it is
// round 0 (every round under full_sweep), and it is not down.
//
// Programs are a Model with
//   bool on_round(VertexId v, int round, std::span<const OracleMessage>,
//                 OracleOutbox& out);  // returns quiescent(v)
#pragma once

#include <algorithm>
#include <climits>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/fault.h"
#include "congest/message.h"
#include "congest/scheduler.h"
#include "congest/stats.h"
#include "graph/graph.h"
#include "support/rng.h"

namespace lightnet::testing {

// One message as the oracle carries it: the whole (chunk) payload inline.
struct OracleMessage {
  VertexId from = kNoVertex;
  VertexId to = kNoVertex;
  EdgeId edge = kNoEdge;
  std::uint32_t tag = 0;
  std::uint8_t channel = 0;
  std::vector<std::uint64_t> words;
};

// Where an invoked vertex's sends go: the round's send list, in call order.
class OracleOutbox {
 public:
  OracleOutbox(const WeightedGraph& g, VertexId self,
               std::vector<OracleMessage>& sent)
      : g_(g), self_(self), sent_(sent) {}

  std::span<const Incidence> links() const { return g_.incident(self_); }

  // One standard message (NodeContext::send / send_on_link).
  void send_on_link(int link, std::uint32_t tag, std::uint8_t channel,
                    std::span<const std::uint64_t> words) {
    const Incidence& inc = links()[static_cast<size_t>(link)];
    sent_.push_back({self_, inc.neighbor, inc.edge, tag, channel,
                     {words.begin(), words.end()}});
  }

  // NodeContext::send_words_on_link: one message per chunk of at most
  // kBatchChunkWords words, an empty payload being one empty message.
  void send_words_on_link(int link, std::uint32_t tag, std::uint8_t channel,
                          std::span<const std::uint64_t> words) {
    constexpr size_t kChunk = congest::Scheduler::kBatchChunkWords;
    size_t sent = 0;
    do {
      const size_t len = std::min(kChunk, words.size() - sent);
      send_on_link(link, tag, channel, words.subspan(sent, len));
      sent += len;
    } while (sent < words.size());
  }

 private:
  const WeightedGraph& g_;
  VertexId self_;
  std::vector<OracleMessage>& sent_;
};

struct OracleOptions {
  int max_rounds = 1'000'000;
  bool strict_congest = true;
  bool full_sweep = false;
  int channels = 1;
  congest::FaultPlan fault;
};

struct OracleRun {
  congest::CostStats cost;
  // Round in which some directed slot first carried more than one unit
  // (the run stops there, as a strict scheduler run aborts); -1 if none.
  int strict_violation_round = -1;
};

template <typename Model>
OracleRun run_round_oracle(const WeightedGraph& g, Model& model,
                           const OracleOptions& options) {
  const int n = g.num_vertices();
  const size_t slots = static_cast<size_t>(g.num_edges()) * 2;
  const size_t channels = static_cast<size_t>(options.channels);
  const bool faulty = options.fault.enabled();
  const congest::FaultModel faults(options.fault);
  std::vector<int> crash_at(static_cast<size_t>(n), INT_MAX);
  std::vector<int> restart_at(static_cast<size_t>(n), INT_MAX);
  for (VertexId v = 0; v < n && faulty; ++v)
    faults.crash_schedule(v, &crash_at[static_cast<size_t>(v)],
                          &restart_at[static_cast<size_t>(v)]);

  OracleRun run;
  congest::CostStats& cost = run.cost;
  if (channels > 1) cost.per_channel.assign(channels, {});
  std::vector<OracleMessage> in_flight;  // last round's sends, in order
  std::vector<char> awake(static_cast<size_t>(n), 0);
  for (int round = 0;; ++round) {
    if (round >= options.max_rounds) {
      cost.rounds_capped = 1;
      break;
    }
    std::vector<char> down(static_cast<size_t>(n), 0);
    int waiting_restarts = 0;
    for (VertexId v = 0; v < n; ++v) {
      const size_t vi = static_cast<size_t>(v);
      if (crash_at[vi] == round) ++cost.crashed_nodes;
      down[vi] = crash_at[vi] <= round && round < restart_at[vi];
      if (down[vi] && restart_at[vi] != INT_MAX) ++waiting_restarts;
    }

    // Delivery: faults in send order (msg_index counts the directed slot's
    // messages this round), then a stable sort by recipient.
    std::vector<std::uint32_t> slot_seq(slots, 0);
    std::vector<OracleMessage> delivered;
    for (OracleMessage& m : in_flight) {
      const int dir = g.edge(m.edge).u == m.from ? 0 : 1;
      const std::uint32_t index =
          slot_seq[static_cast<size_t>(m.edge) * 2 + static_cast<size_t>(dir)]++;
      if (faulty && (down[static_cast<size_t>(m.to)] ||
                     faults.link_down(round, m.edge) ||
                     faults.drop_message(round, m.edge, dir, index))) {
        ++cost.dropped;
        continue;
      }
      delivered.push_back(std::move(m));
    }
    std::stable_sort(delivered.begin(), delivered.end(),
                     [](const OracleMessage& a, const OracleMessage& b) {
                       return a.to < b.to;
                     });
    std::vector<std::vector<OracleMessage>> inbox(static_cast<size_t>(n));
    for (OracleMessage& m : delivered)
      inbox[static_cast<size_t>(m.to)].push_back(std::move(m));
    if (options.fault.reorder) {
      for (VertexId v = 0; v < n; ++v) {
        auto& box = inbox[static_cast<size_t>(v)];
        std::uint64_t state = faults.shuffle_key(round, v);
        for (size_t i = box.size(); i > 1; --i)
          std::swap(box[i - 1], box[splitmix64(state) % i]);
      }
    }

    // Invocation in ascending vertex order.
    std::vector<OracleMessage> sent;
    bool any_awake = false;
    size_t invoked = 0;
    for (VertexId v = 0; v < n; ++v) {
      const size_t vi = static_cast<size_t>(v);
      const bool due = round == 0 || options.full_sweep ||
                       !inbox[vi].empty() || awake[vi] != 0 ||
                       restart_at[vi] == round;
      awake[vi] = 0;
      if (!due || down[vi]) continue;
      ++invoked;
      OracleOutbox out(g, v, sent);
      if (!model.on_round(v, round, inbox[vi], out)) {
        awake[vi] = 1;
        any_awake = true;
      }
    }
    if (faulty && round > 0 && invoked == 0) ++cost.rounds_lost;

    // Costs of the round's sends, recounted from scratch.
    std::vector<std::uint64_t> load(slots * channels, 0);
    std::vector<std::uint64_t> untagged(slots, 0);
    for (const OracleMessage& m : sent) {
      const std::uint64_t w = m.words.size();
      const std::uint64_t units =
          std::max<std::uint64_t>(1, (w + congest::kMaxWords - 1) /
                                         congest::kMaxWords);
      const size_t slot = static_cast<size_t>(m.edge) * 2 +
                          (g.edge(m.edge).u == m.from ? 0 : 1);
      ++cost.messages;
      cost.words += w;
      untagged[slot] += units;
      cost.max_edge_load = std::max(cost.max_edge_load, untagged[slot]);
      if (channels > 1) {
        congest::ChannelCost& cc = cost.per_channel[m.channel];
        ++cc.messages;
        cc.words += w;
        std::uint64_t& l = load[m.channel * slots + slot];
        l += units;
        cc.max_edge_load = std::max(cc.max_edge_load, l);
      }
    }
    cost.rounds = static_cast<std::uint64_t>(round) + 1;
    if (options.strict_congest && cost.max_edge_load > 1) {
      run.strict_violation_round = round;
      break;
    }
    in_flight = std::move(sent);
    if (!any_awake && in_flight.empty() && waiting_restarts == 0) break;
  }
  return run;
}

}  // namespace lightnet::testing

// Reliable transport over faulty CONGEST links.
//
// Programs opt in per send: NodeContext::reliable_send_on_link frames the
// message with a sequence number and ships it through this per-link
// stop-and-wait protocol instead of the raw link. The receiving program
// needs no changes at all — accepted frames are unwrapped back into the
// original Message and appear in its inbox like any other delivery
// (transport frames themselves are invisible to programs).
//
// Protocol, per directed link (sender v -> neighbor u):
//  - every reliable send is assigned the next sequence number and queued;
//    at most one frame is outstanding (window 1), so a link never carries
//    more than one data frame per round and FIFO order is inherent;
//  - the receiver accepts exactly the next expected sequence number
//    (duplicates are discarded) and answers every data frame with a
//    cumulative ack carrying its next expected number;
//  - an unacked frame is retransmitted when its timer expires, with
//    exponential backoff (kInitialRto doubling to kMaxRto); the ack resets
//    the backoff. After kMaxRetries consecutive retransmissions the link is
//    declared dead and its queue discarded — the peer is unreachable
//    (permanently crashed or partitioned) and the construction degrades
//    instead of spinning to the round cap.
//
// Cost honesty: frames and acks are real scheduler messages — they count
// into CostStats::messages/words and the per-edge congestion window (a
// 3-word payload frames to 5 words = 2 standard-message units), and every
// retransmission increments CostStats::retransmitted. Reliable runs
// therefore require strict_congest = false; the ledger states exactly what
// reliability cost.
//
// Everything here is deterministic: state transitions depend only on the
// delivery schedule, which is itself a pure function of the run and fault
// seeds.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "congest/message.h"
#include "graph/graph.h"

namespace lightnet::congest {

class Scheduler;

// Reserved transport tags; programs must not send these themselves.
inline constexpr std::uint32_t kTagReliableData = 0xFFFF0001u;
inline constexpr std::uint32_t kTagReliableAck = 0xFFFF0002u;

class ReliableTransport {
 public:
  static constexpr int kInitialRto = 3;  // > the 2-round lossless RTT
  static constexpr int kMaxRto = 32;
  static constexpr int kMaxRetries = 10;

  explicit ReliableTransport(Scheduler& scheduler);

  // Sender side: queue `msg` for the flat link `flat` (owner's link_base +
  // local link index); transmits immediately when the window is free.
  void send(VertexId owner, int flat, int local, const Message& msg);

  // Receiver side: strips transport frames out of the inbox spans of the
  // round's recipients (in place — frames never reach programs), advances
  // receive state, unwraps in-order data frames, and enqueues acks in
  // recipient order.
  void process_inbound(std::span<const VertexId> recipients);

  // Timer tick, run after program invocation: retransmits expired frames,
  // transmits newly unblocked queue heads, expires dead links.
  void tick();

  // True while any link has queued or outstanding frames — the scheduler
  // must keep running rounds (timers need the clock) even if every program
  // is quiescent.
  bool pending() const { return pending_links_ != 0; }

 private:
  struct LinkState {
    VertexId owner = kNoVertex;  // sender endpoint of this flat link
    std::int32_t local = -1;     // owner's local link index
    // Sender side.
    std::deque<std::pair<std::uint32_t, Message>> queue;  // (seq, payload)
    std::uint32_t next_seq = 0;
    bool in_flight = false;   // head frame transmitted, awaiting ack
    bool sent_this_round = false;
    int timer = 0;
    int rto = kInitialRto;
    int retries = 0;
    bool dead = false;
    bool listed = false;  // membership in work_links_
    // Receiver side (for the peer's frames arriving over this link).
    std::uint32_t recv_next = 0;

    bool has_work() const { return in_flight || !queue.empty(); }
  };

  LinkState& state(VertexId owner, int flat, int local);
  void transmit_head(LinkState& st, int flat);
  void list_link(LinkState& st, int flat);

  Scheduler* scheduler_;
  std::vector<LinkState> states_;       // indexed by flat link position
  std::vector<std::int32_t> work_links_;  // flat links with sender work
  int pending_links_ = 0;
};

}  // namespace lightnet::congest

#include "congest/reliable.h"

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet::congest {

ReliableTransport::ReliableTransport(Scheduler& scheduler)
    : scheduler_(&scheduler) {
  // One state per flat directed link (the Network's incidence positions).
  states_.resize(static_cast<size_t>(scheduler.network_->graph().num_edges()) *
                 2);
}

ReliableTransport::LinkState& ReliableTransport::state(VertexId owner, int flat,
                                                       int local) {
  LinkState& st = states_[static_cast<size_t>(flat)];
  if (st.owner == kNoVertex) {
    st.owner = owner;
    st.local = local;
  }
  return st;
}

void ReliableTransport::list_link(LinkState& st, int flat) {
  if (!st.listed) {
    st.listed = true;
    work_links_.push_back(flat);
  }
}

void ReliableTransport::transmit_head(LinkState& st, int flat) {
  const auto& [seq, msg] = st.queue.front();
  const Incidence& inc = scheduler_->network_->links(st.owner)[
      static_cast<size_t>(st.local)];
  // Frame: [seq, size<<32 | tag, payload...]; wider than kMaxWords for any
  // payload of 2+ words, so it rides the batched arena path and is charged
  // the honest ceil((size + 2) / kMaxWords) units of the edge budget.
  std::uint64_t words[2 + kMaxWords];
  words[0] = seq;
  words[1] = (static_cast<std::uint64_t>(msg.size) << 32) | msg.tag;
  for (int i = 0; i < msg.size; ++i) words[2 + i] = msg.words[i];
  scheduler_->enqueue_words(/*lane=*/0, st.owner, inc.neighbor, inc.edge,
                            scheduler_->network_->dir_slot(flat),
                            kTagReliableData, /*channel=*/0,
                            {words, static_cast<size_t>(2 + msg.size)});
  st.in_flight = true;
  st.sent_this_round = true;
  st.timer = st.rto;
}

void ReliableTransport::send(VertexId owner, int flat, int local,
                             const Message& msg) {
  LinkState& st = state(owner, flat, local);
  if (st.dead) return;  // peer unreachable; the construction degrades
  const bool had_work = st.has_work();
  st.queue.emplace_back(st.next_seq++, msg);
  if (!had_work) ++pending_links_;
  list_link(st, flat);
  if (!st.in_flight) transmit_head(st, flat);
}

void ReliableTransport::process_inbound(
    std::span<const VertexId> recipients) {
  const Network& net = *scheduler_->network_;
  const auto& node_down = scheduler_->node_down_;
  for (VertexId v : recipients) {
    const size_t vi = static_cast<size_t>(v);
    const std::uint32_t len = scheduler_->inbox_len_[vi];
    if (len == 0) continue;
    Delivery* span = scheduler_->arena_.data() + scheduler_->inbox_start_[vi];
    std::uint32_t w = 0;
    for (std::uint32_t i = 0; i < len; ++i) {
      const Delivery& d = span[i];
      if (d.msg.tag != kTagReliableData && d.msg.tag != kTagReliableAck) {
        span[w++] = d;  // ordinary traffic passes through untouched
        continue;
      }
      const int local = net.link_index(v, d.from);
      const int flat = net.link_base(v) + local;
      LinkState& st = state(v, flat, local);
      const std::uint64_t* words = scheduler_->payload(d.msg).data();
      if (d.msg.tag == kTagReliableAck) {
        const std::uint32_t acked = static_cast<std::uint32_t>(words[0]);
        if (st.in_flight && st.queue.front().first < acked) {
          st.queue.pop_front();
          st.in_flight = false;
          st.retries = 0;
          st.rto = kInitialRto;
          if (!st.has_work()) --pending_links_;
          // A freshly unblocked head is transmitted in tick().
        }
        continue;  // acks never reach programs
      }
      // Data frame: accept exactly the next expected sequence number,
      // discard duplicates; either way answer with a cumulative ack (a
      // crashed receiver never gets here — its deliveries were dropped).
      const std::uint32_t seq = static_cast<std::uint32_t>(words[0]);
      const bool accept = seq == st.recv_next;
      if (accept) {
        ++st.recv_next;
        Message m;
        m.tag = static_cast<std::uint32_t>(words[1] & 0xffffffffULL);
        const int size = static_cast<int>(words[1] >> 32);
        LN_ASSERT(size <= kMaxWords);
        for (int k = 0; k < size; ++k) m.words[m.size++] = words[2 + k];
        span[w++] = Delivery{d.from, d.edge, m};
      }
      Message ack;
      ack.tag = kTagReliableAck;
      ack.words[ack.size++] = st.recv_next;
      if (node_down.empty() || !node_down[vi]) {
        scheduler_->enqueue_resolved(/*lane=*/0, v, d.from, d.edge,
                                     net.dir_slot(flat), ack);
      }
    }
    scheduler_->inbox_len_[vi] = w;
  }
}

void ReliableTransport::tick() {
  const auto& node_down = scheduler_->node_down_;
  for (size_t i = 0; i < work_links_.size();) {
    const int flat = work_links_[i];
    LinkState& st = states_[static_cast<size_t>(flat)];
    if (!st.has_work() || st.dead) {
      st.listed = false;
      work_links_[i] = work_links_.back();
      work_links_.pop_back();
      continue;
    }
    ++i;
    // A crashed sender's clock is frozen until it restarts.
    if (!node_down.empty() && node_down[static_cast<size_t>(st.owner)])
      continue;
    if (!st.in_flight) {
      transmit_head(st, flat);  // head unblocked by an ack this round
      continue;
    }
    if (st.sent_this_round) {
      st.sent_this_round = false;  // timer starts running next round
      continue;
    }
    if (--st.timer > 0) continue;
    if (st.retries >= kMaxRetries) {
      // Peer unreachable: give up so the run terminates. The messages are
      // lost for good — validators downstream decide whether the output
      // still stands on the surviving part of the network.
      st.dead = true;
      st.queue.clear();
      st.in_flight = false;
      --pending_links_;
      continue;
    }
    ++st.retries;
    st.rto = st.rto * 2 < kMaxRto ? st.rto * 2 : kMaxRto;
    ++scheduler_->stats_.retransmitted;
    transmit_head(st, flat);
  }
}

}  // namespace lightnet::congest

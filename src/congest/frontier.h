// Frontier machinery for the round scheduler.
//
// Mirrors the frontier of the hybrid (top-down / bottom-up) BFS
// literature: a word-packed bitmap marking the vertices that must be
// invoked next round, scanned ascending into flat reusable vectors.
// Marking a vertex is one OR, and the ascending scan produces the sorted
// invocation order for free, so executions stay bit-identical to the full
// sweep without any per-round sort.
//
// Concurrency contract: FrontierBitmap::set is a plain RMW for
// single-writer phases (the round's points outside its jobs, invocation at
// threads = 1, or a delivery worker marking recipients inside its own
// 64-aligned vertex shard, where no two workers ever share a word).
// set_atomic is the cross-shard form used by invocation workers of a
// pooled round marking non-quiescent nodes — any worker may wake any
// vertex, so those marks go through a relaxed fetch_or (the phase barrier
// orders them before the scan reads the words).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace lightnet::congest {

class FrontierBitmap {
 public:
  static size_t words_for(int n) {
    return (static_cast<size_t>(n) + 63) / 64;
  }

  void reset(int n) { bits_.assign(words_for(n), 0); }

  // Single-writer mark (no concurrent marker, or a shard-local delivery
  // pass).
  void set(VertexId v) {
    bits_[static_cast<size_t>(v) >> 6] |= 1ull << (v & 63);
  }

  // Cross-shard mark: any thread, any vertex. Relaxed is enough — the scan
  // that consumes the words runs after a phase barrier.
  void set_atomic(VertexId v) {
    std::atomic_ref<std::uint64_t> word(bits_[static_cast<size_t>(v) >> 6]);
    word.fetch_or(1ull << (v & 63), std::memory_order_relaxed);
  }

  bool test(VertexId v) const {
    return (bits_[static_cast<size_t>(v) >> 6] >> (v & 63)) & 1;
  }

  std::uint64_t word(size_t i) const { return bits_[i]; }
  void clear_word(size_t i) { bits_[i] = 0; }
  size_t num_words() const { return bits_.size(); }

 private:
  std::vector<std::uint64_t> bits_;
};

}  // namespace lightnet::congest

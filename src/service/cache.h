// Bounded caches for the lightnetd service.
//
// LruCache is the bounded LRU both cache layers are built on:
//   - the artifact cache maps a canonical run key to the finished record
//     line (sized by length), behind a cost-weighted admission filter
//     (ArtifactCache below);
//   - the scenario cache maps a canonical scenario key to the materialized
//     graph + its SubstratePool (value = shared_ptr to an immovable entry,
//     sized by an accounting estimate) and admits every entry.
//
// Among the entries it holds, LruCache evicts strictly by recency, over a
// doubly-linked list with an unordered_map index; both an entry count and a
// byte budget bound residency, and every insertion evicts from the cold end
// until both hold. A value larger than the byte budget is kept alone (the
// cache holds just it) rather than being unstorable — the budget is a
// steady-state bound. Hit/miss/eviction counters feed the `stats` request.
//
// Why only the artifact layer filters admission: at one n the paper's
// constructions differ in recompute cost by more than an order of magnitude,
// and on a skewed request stream plain LRU keeps trading a popular,
// expensive record for a one-off cheap one. A record never changes once
// stored and its recompute cost is known then, so it can be weighed against
// the entry it would evict. A scenario entry grows after insertion
// (substrates are built into its pool on demand), so keeping hot scenarios
// resident longer costs memory the insertion-time byte figure hides:
// admitting them the same way raised the service benchmark's peak RSS by
// 15% (EXPERIMENTS.md "Cost-weighted admission").
//
// Not thread-safe; the service handles requests sequentially.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lightnet::service {

template <typename Value, typename SizeOf>
class LruCache {
 public:
  struct Entry {
    std::string key;
    Value value;
  };

  LruCache(std::size_t max_entries, std::size_t max_bytes, SizeOf size_of)
      : max_entries_(max_entries), max_bytes_(max_bytes),
        size_of_(std::move(size_of)) {}

  // Returns the cached value and promotes it to most-recently-used, or
  // nullptr on miss. The pointer is valid until the next insert().
  const Value* get(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  // Inserts (or overwrites) `key` and evicts from the LRU end until both
  // budgets hold again. Returns a pointer valid until the next insert().
  const Value* insert(const std::string& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= size_of_(it->second->value);
      order_.erase(it->second);
      index_.erase(it);
    }
    order_.push_front(Entry{key, std::move(value)});
    index_[key] = order_.begin();
    bytes_ += size_of_(order_.front().value);
    while (index_.size() > 1 &&
           (index_.size() > max_entries_ || bytes_ > max_bytes_)) {
      const Entry& cold = order_.back();
      bytes_ -= size_of_(cold.value);
      index_.erase(cold.key);
      order_.pop_back();
      ++evictions_;
    }
    return &order_.front().value;
  }

  // The entry the next eviction would remove (the least recently used), or
  // nullptr when the cache is empty. Does not promote it.
  const Entry* coldest() const {
    return order_.empty() ? nullptr : &order_.back();
  }

  // Visits every resident entry, most-recent first, without promoting.
  // The stats surface uses this to aggregate live per-entry figures (e.g.
  // substrate-pool counters) that change after insertion.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Entry& e : order_) fn(e.key, e.value);
  }

  std::size_t entries() const { return index_.size(); }
  std::size_t resident_bytes() const { return bytes_; }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t evictions() const { return evictions_; }
  std::size_t max_entries() const { return max_entries_; }
  std::size_t max_bytes() const { return max_bytes_; }

 private:
  std::size_t max_entries_;
  std::size_t max_bytes_;
  SizeOf size_of_;
  std::list<Entry> order_;  // front = most recent
  std::unordered_map<std::string, typename std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

// Count-min sketch of artifact lookups: the frequency half of the admission
// rule (TinyLFU's filter; Einziger, Friedman & Manes, ACM TOS 2017). Its
// size follows from the cache's entry budget alone (taken between 1 and
// 2^17), so its footprint is fixed for the server's life: kRows rows of
// 16-bit saturating counters, each row the power of two ≥ 8 × entries wide,
// and every counter halved after each 32 × entries recorded lookups, so the
// counts follow recent popularity rather than all-time totals. A key's
// column in each row is drawn from a splitmix64 stream seeded with its
// 64-bit FNV-1a (api::canonical_run_fnv1a), so the counts are the same
// under every compiler. Within one aging period an estimate is never below
// the key's true count.
class FrequencySketch {
 public:
  static constexpr std::size_t kRows = 4;

  explicit FrequencySketch(std::size_t entries);

  void record(std::uint64_t key_hash);
  std::uint32_t estimate(std::uint64_t key_hash) const;

  // Recorded lookups between two halvings.
  std::size_t sample_size() const { return sample_size_; }
  std::size_t footprint_bytes() const {
    return counters_.size() * sizeof(std::uint16_t);
  }

 private:
  std::size_t width_;
  std::size_t sample_size_;
  std::size_t recorded_ = 0;  // lookups since the last halving
  std::vector<std::uint16_t> counters_;  // kRows × width_, row-major
};

// The artifact layer: an LruCache of finished record lines behind a
// cost-weighted admission filter. Every lookup is counted in the sketch. A
// record computed after a miss is stored unless storing it would evict (by
// entry count or bytes) and its estimate × cost does not beat the LRU
// victim's, the frequency-and-cost weighing of GreedyDual-Size-Frequency
// (Cherkasova, 1998). The cost is 1 + the run's total simulated messages:
// over the service benchmark's specs it follows recompute time much more
// closely than record bytes or rounds do (EXPERIMENTS.md "Cost-weighted
// admission"). Among admitted entries eviction stays LRU.
class ArtifactCache {
 public:
  struct Record {
    std::string json;
    std::uint64_t key_hash = 0;
    std::uint64_t cost = 1;
  };
  struct SizeOfRecord {
    std::size_t operator()(const Record& r) const { return r.json.size(); }
  };
  using Lru = LruCache<Record, SizeOfRecord>;

  ArtifactCache(std::size_t max_entries, std::size_t max_bytes);

  // Counts the lookup, then returns the cached record line (promoted to
  // most recent) or nullptr. The pointer is valid until the next offer().
  const std::string* get(const std::string& key, std::uint64_t key_hash);

  // Offers the record line of a run that missed under `key`, with the
  // run's total simulated messages. Returns whether it was stored; a
  // refusal counts in rejected().
  bool offer(const std::string& key, std::uint64_t key_hash,
             const std::string& json, std::uint64_t messages);

  const Lru& lru() const { return lru_; }
  const FrequencySketch& sketch() const { return sketch_; }
  std::size_t rejected() const { return rejected_; }

 private:
  Lru lru_;
  FrequencySketch sketch_;
  std::size_t rejected_ = 0;
};

}  // namespace lightnet::service

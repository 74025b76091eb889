// Pipelined tree communication primitives over the BFS tree τ (Lemma 1).
//
// Three message-level building blocks the paper uses constantly:
//  - gather_to_root:   convergecast M items to the root in O(M + D) rounds,
//                      optionally deduplicating by key en route (used for
//                      spanner-edge collection, where each vertex "will
//                      forward only a single such edge" per cluster pair);
//  - broadcast_from_root: pipeline M items down to every vertex, O(M + D);
//  - keyed_max_aggregate: per-key max over all vertices' contributions,
//                      computed bottom-up with en-route combining ("each
//                      vertex ... will only forward the one with maximum
//                      m(A)"), O(K + D) rounds for K dense keys.
//
// All of them run in strict CONGEST mode: at most one message per directed
// edge per round, each message ≤ 3 words.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/bfs.h"
#include "congest/stats.h"
#include "graph/graph.h"

namespace lightnet::congest {

// A (key, payload) item moved along the tree: exactly one CONGEST message.
struct TreeItem {
  std::uint64_t key = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

struct GatherResult {
  std::vector<TreeItem> items;  // as collected at the root (deterministic)
  CostStats cost;
};

// Convergecast every node's items to the root. If `dedupe_by_key`, each
// node forwards at most one item per key (first seen wins), and the root
// keeps one per key. `sched` pins the scheduler mode (results and stats are
// identical in every mode); phase code receives it from its RunContext.
GatherResult gather_to_root(const WeightedGraph& g, const BfsTreeResult& tree,
                            const std::vector<std::vector<TreeItem>>& items,
                            bool dedupe_by_key, SchedulerOptions sched = {});

struct BroadcastResult {
  CostStats cost;
  // received[v] == items for every v (verified); kept implicit to avoid an
  // n*M copy — the caller already has the item list.
};

// Pipelines `items` from the root to every vertex.
BroadcastResult broadcast_from_root(const WeightedGraph& g,
                                    const BfsTreeResult& tree,
                                    const std::vector<TreeItem>& items,
                                    SchedulerOptions sched = {});

struct KeyedAggregateResult {
  // best[k] = item with max `a` (interpreted as an encoded Weight) among all
  // contributions with key k; contributions carry an auxiliary word in `b`.
  std::vector<TreeItem> best;
  CostStats cost;
};

// Bottom-up max-aggregation over dense keys [0, num_keys): every vertex may
// contribute values for some keys; the result is the global per-key max.
// Values are Message::encode_weight-encoded; absent keys yield -infinity.
KeyedAggregateResult keyed_max_aggregate(
    const WeightedGraph& g, const BfsTreeResult& tree, int num_keys,
    const std::vector<std::vector<TreeItem>>& contributions,
    SchedulerOptions sched = {});

}  // namespace lightnet::congest

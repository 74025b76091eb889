// Distributed BFS tree construction (the tree τ of §2).
//
// Flood-fill from the root: O(D) rounds, one message per edge direction.
// Every phase in the paper assumes τ is available; we build it once per
// algorithm and charge its cost.
#pragma once

#include <vector>

#include "congest/scheduler.h"
#include "congest/stats.h"
#include "graph/graph.h"

namespace lightnet::congest {

struct BfsTreeResult {
  VertexId root = kNoVertex;
  std::vector<VertexId> parent;  // kNoVertex at root
  std::vector<int> depth;        // hops from root
  int height = 0;                // max depth among reached vertices
  int reached = 0;               // vertices with depth >= 0 (root included)
  CostStats cost;
};

// `sched_options` is exposed so tests and benchmarks can pin the scheduler
// mode (e.g. full_sweep as the active-set reference); the result is
// identical in every mode.
BfsTreeResult build_bfs_tree(const WeightedGraph& g, VertexId root,
                             SchedulerOptions sched_options = {});

// Retransmit-aware BFS: the program runs its own per-link stop-and-wait
// (sequence numbers, cumulative acks, timed retransmissions; congest/bfs.cc),
// and nodes keep the canonical fixpoint (minimum depth, ties to the minimum
// parent id) instead of "first delivery wins". On a connected graph this
// converges to bit-the-same tree as the fault-free build_bfs_tree — the
// plain program's deterministic inbox order picks exactly that canonical
// parent — while surviving any drop/reorder plan. Unreachable vertices
// (crashed, or cut off by links it gave up on) keep depth -1; no
// connectivity requirement. Forces strict_congest = false (an ack and a
// frame may share a directed slot in a round); runs at any thread count.
BfsTreeResult build_bfs_tree_reliable(const WeightedGraph& g, VertexId root,
                                      SchedulerOptions sched_options = {});

}  // namespace lightnet::congest

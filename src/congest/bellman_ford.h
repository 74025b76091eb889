// Distributed synchronous Bellman-Ford.
//
// After t rounds every vertex holds the exact min over ≤t-hop paths from the
// source set, so running to quiescence yields exact distances. A distance
// bound Δ prunes the exploration ball, which is what "Δ-bounded shortest
// paths" means in the paper.
#pragma once

#include <span>
#include <vector>

#include "congest/scheduler.h"
#include "congest/stats.h"
#include "graph/graph.h"
#include "graph/shortest_paths.h"

namespace lightnet::congest {

struct BellmanFordOptions {
  Weight distance_bound = kInfiniteDistance;  // ignore paths longer than this
};

struct BellmanFordResult {
  std::vector<Weight> dist;        // infinity if outside bound / unreachable
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<VertexId> owner;     // nearest source (kNoVertex if none)
  CostStats cost;
};

// `sched_options` pins the scheduler mode (full_sweep is the active-set
// reference); the distances and stats are identical in every mode.
BellmanFordResult distributed_bellman_ford(const WeightedGraph& g,
                                           std::span<const VertexId> sources,
                                           BellmanFordOptions options = {},
                                           SchedulerOptions sched_options = {});

// Variant over a prebuilt communication Network (distances are w.r.t.
// net.graph()); multi-phase callers hoist the Network out of their loops.
BellmanFordResult distributed_bellman_ford(const Network& net,
                                           std::span<const VertexId> sources,
                                           BellmanFordOptions options = {},
                                           SchedulerOptions sched_options = {});

}  // namespace lightnet::congest

// Sequential shortest-path routines.
//
// These are the *reference oracles* the test suite and metrics use to verify
// the distributed algorithms (exact Dijkstra distances vs. CONGEST
// Bellman-Ford, exact balls vs. LE-list decisions, ...). They are also used
// by the sequential baselines.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace lightnet {

inline constexpr Weight kInfiniteDistance =
    std::numeric_limits<Weight>::infinity();

struct ShortestPathTree {
  VertexId source = kNoVertex;
  std::vector<Weight> dist;        // kInfiniteDistance if unreachable
  std::vector<VertexId> parent;    // kNoVertex at source / unreachable
  std::vector<EdgeId> parent_edge; // kNoEdge at source / unreachable

  // Vertices of the path source -> target (inclusive), empty if unreachable.
  std::vector<VertexId> path_to(VertexId target) const;
  // Edge ids of that path.
  std::vector<EdgeId> path_edges_to(VertexId target) const;
};

// Single-source Dijkstra over the whole graph.
ShortestPathTree dijkstra(const WeightedGraph& g, VertexId source);

// Dijkstra that never settles vertices beyond distance `bound` from the
// source (vertices farther than bound keep dist = infinity).
ShortestPathTree dijkstra_bounded(const WeightedGraph& g, VertexId source,
                                  Weight bound);

// Multi-source Dijkstra: dist[v] = min over sources, parent links form a
// forest rooted at the sources; `owner[v]` identifies the nearest source.
struct MultiSourceResult {
  std::vector<Weight> dist;
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<VertexId> owner;
  // Heap entries popped after being superseded by a better relaxation — the
  // price of the decrease-key-free heap, exposed for benchmarking.
  std::uint64_t stale_entries = 0;
};
MultiSourceResult multi_source_dijkstra(const WeightedGraph& g,
                                        std::span<const VertexId> sources);
MultiSourceResult multi_source_dijkstra_bounded(
    const WeightedGraph& g, std::span<const VertexId> sources, Weight bound);

// Dijkstra state reused across many searches, as the quality verifiers run
// one search per source vertex. A search resets only the entries the
// previous one touched and keeps the heap's capacity, so a search that stops
// early costs what it explored rather than O(n). Every function above is one
// search on a fresh workspace.
class DijkstraWorkspace {
 public:
  // Searches `g` from `sources`, settling no vertex beyond `bound`. With a
  // nonempty `targets` (one flag per vertex) the search ends as soon as
  // `stop_after` flagged vertices have settled, and returns the last of them
  // (kNoVertex if it ran out first). Settled vertices carry their final
  // dist/parent/parent_edge/owner, bitwise equal to a full search's, because
  // the search up to the stop is that search's prefix; the other entries are
  // tentative.
  VertexId search(const WeightedGraph& g, std::span<const VertexId> sources,
                  Weight bound = kInfiniteDistance,
                  std::span<const char> targets = {}, size_t stop_after = 0);

  // The last search's arrays, one entry per vertex of its graph.
  const MultiSourceResult& result() const { return r_; }
  // The vertices the last search gave a finite dist. A search that ran to
  // the end (no stop) settled them all: exactly the vertices within
  // `bound` of the sources.
  std::span<const VertexId> reached() const { return touched_; }
  MultiSourceResult take_result() && { return std::move(r_); }

 private:
  struct QueueEntry {
    Weight dist;
    VertexId vertex;
    bool operator>(const QueueEntry& o) const { return dist > o.dist; }
  };

  MultiSourceResult r_;
  std::vector<VertexId> touched_;  // vertices whose dist is finite in r_
  std::vector<QueueEntry> heap_;   // min-heap under std::greater
};

// All-pairs distances via n Dijkstra runs; intended for n up to a few
// thousand (verification scale).
std::vector<std::vector<Weight>> all_pairs_distances(const WeightedGraph& g);

// Unweighted hop distances from a source.
std::vector<int> bfs_hops(const WeightedGraph& g, VertexId source);

// Shortest-path tree as a RootedTree (requires all vertices reachable).
RootedTree shortest_path_tree(const WeightedGraph& g, VertexId source);

}  // namespace lightnet

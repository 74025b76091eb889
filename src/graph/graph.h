// Core weighted-graph representation.
//
// lightnet graphs are immutable once built: an edge list plus a CSR adjacency
// index. Vertices are dense integers [0, n). Algorithms return subgraphs as
// vectors of EdgeIds into the parent graph, which keeps "the spanner is a
// subgraph of G" true by construction and makes lightness/stretch accounting
// exact.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace lightnet {

using VertexId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = double;

inline constexpr VertexId kNoVertex = -1;
inline constexpr EdgeId kNoEdge = -1;

struct Edge {
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  Weight w = 0.0;
};

// An (edge id, neighbor) pair as seen from some vertex; what adjacency
// iteration yields.
struct Incidence {
  EdgeId edge = kNoEdge;
  VertexId neighbor = kNoVertex;
};

class WeightedGraph {
 public:
  WeightedGraph() = default;

  // Builds a graph with vertices [0, n). Parallel edges and self-loops are
  // rejected (the paper's model assumes simple graphs). Weights must be
  // positive and finite.
  static WeightedGraph from_edges(int num_vertices, std::vector<Edge> edges);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(EdgeId e) const { return edges_[static_cast<size_t>(e)]; }
  std::span<const Edge> edges() const { return edges_; }

  std::span<const Incidence> incident(VertexId v) const {
    return std::span<const Incidence>(adjacency_)
        .subspan(static_cast<size_t>(offsets_[static_cast<size_t>(v)]),
                 static_cast<size_t>(offsets_[static_cast<size_t>(v) + 1] -
                                     offsets_[static_cast<size_t>(v)]));
  }

  int degree(VertexId v) const {
    return offsets_[static_cast<size_t>(v) + 1] -
           offsets_[static_cast<size_t>(v)];
  }

  VertexId other_endpoint(EdgeId e, VertexId from) const {
    const Edge& ed = edge(e);
    return ed.u == from ? ed.v : ed.u;
  }

  // Edge id of {u, v} if present, kNoEdge otherwise. O(deg(u)).
  EdgeId find_edge(VertexId u, VertexId v) const;

  Weight total_weight() const;
  bool is_connected() const;
  // Diameter ignoring weights, exact; throws std::invalid_argument on a
  // disconnected graph, returns 0 on an empty one. BoundingDiameters (Takes
  // & Kosters, CIKM 2011): BFS runs from vertices chosen alternately by the
  // largest upper and the smallest lower eccentricity bound, each run
  // tightening every vertex's bounds, until the diameter's bounds meet.
  // Each BFS is O(n + m); how many run depends on the family, at n = 16384
  // (the scenario defaults): 10 on grid, 3 on path, 2 on star, 6 on
  // lower_bound, 30 on geo, but 535 on ring-with-chords and 3490 on er,
  // whose eccentricities are nearly all equal.
  int hop_diameter() const;

  // Graph on the same vertex set containing only `edge_ids`.
  WeightedGraph edge_subgraph(std::span<const EdgeId> edge_ids) const;

  // Smallest / largest edge weight; graph must have at least one edge.
  Weight min_edge_weight() const;
  Weight max_edge_weight() const;

 private:
  int num_vertices_ = 0;
  std::vector<Edge> edges_;
  std::vector<int> offsets_;          // CSR offsets, size n+1
  std::vector<Incidence> adjacency_;  // CSR payload, size 2m
};

// A rooted spanning tree (or forest) over the vertices of some graph.
// parent[root] == kNoVertex; parent_edge[root] == kNoEdge. Children lists are
// materialized because tree algorithms in the paper (Euler tour, subtree
// aggregation) walk both directions.
struct RootedTree {
  VertexId root = kNoVertex;
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;       // edge id in the parent graph
  std::vector<Weight> parent_weight;     // weight of that edge (0 at root)
  std::vector<std::vector<VertexId>> children;

  int num_vertices() const { return static_cast<int>(parent.size()); }

  // Builds child lists and validates that every vertex reaches the root.
  static RootedTree from_parents(VertexId root, std::vector<VertexId> parent,
                                 std::vector<EdgeId> parent_edge,
                                 std::vector<Weight> parent_weight);

  // Convenience: orient a set of tree edges of `g` away from `root`.
  static RootedTree from_edge_set(const WeightedGraph& g, VertexId root,
                                  std::span<const EdgeId> tree_edges);

  // Sum of parent_weight over non-root vertices.
  Weight total_weight() const;

  // Distance from the root to every vertex along tree paths.
  std::vector<Weight> distances_from_root() const;

  // Vertices in a preorder (root first); children visited in id order
  // (matches the paper: "order between the children is determined by id").
  std::vector<VertexId> preorder() const;

  // Edge ids of the tree, for treating the tree as a subgraph.
  std::vector<EdgeId> edge_ids() const;
};

// Deduplicates and sorts an edge-id set (spanners are unions of phases that
// may propose the same edge twice).
std::vector<EdgeId> dedupe_edge_ids(std::vector<EdgeId> ids);

}  // namespace lightnet

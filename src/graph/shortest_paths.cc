#include "graph/shortest_paths.h"

#include <algorithm>
#include <deque>
#include <functional>

#include "support/assert.h"

namespace lightnet {

VertexId DijkstraWorkspace::search(const WeightedGraph& g,
                                   std::span<const VertexId> sources,
                                   Weight bound,
                                   std::span<const char> targets,
                                   size_t stop_after) {
  const size_t n = static_cast<size_t>(g.num_vertices());
  LN_REQUIRE(targets.empty() || targets.size() == n,
             "targets needs one flag per vertex");
  if (r_.dist.size() != n) {
    r_.dist.assign(n, kInfiniteDistance);
    r_.parent.assign(n, kNoVertex);
    r_.parent_edge.assign(n, kNoEdge);
    r_.owner.assign(n, kNoVertex);
    touched_.clear();
    touched_.reserve(n);
  }
  for (VertexId v : touched_) {
    r_.dist[static_cast<size_t>(v)] = kInfiniteDistance;
    r_.parent[static_cast<size_t>(v)] = kNoVertex;
    r_.parent_edge[static_cast<size_t>(v)] = kNoEdge;
    r_.owner[static_cast<size_t>(v)] = kNoVertex;
  }
  touched_.clear();
  r_.stale_entries = 0;

  // Reserve for the common case (every vertex settled once plus slack for
  // re-pushes); avoids the heap's geometric reallocation chain. The heap is
  // driven exactly as std::priority_queue drives it, so ties pop in the
  // same order.
  heap_.clear();
  heap_.reserve(n + sources.size());
  const auto push = [this](Weight d, VertexId v) {
    heap_.push_back({d, v});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<QueueEntry>{});
  };
  for (VertexId s : sources) {
    LN_REQUIRE(s >= 0 && s < g.num_vertices(), "source out of range");
    if (0.0 > bound) continue;  // degenerate bound: nothing is reachable
    if (r_.dist[static_cast<size_t>(s)] == kInfiniteDistance)
      touched_.push_back(s);
    r_.dist[static_cast<size_t>(s)] = 0.0;
    r_.owner[static_cast<size_t>(s)] = s;
    push(0.0, s);
  }
  size_t settled_targets = 0;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<QueueEntry>{});
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (d > r_.dist[static_cast<size_t>(v)]) {  // superseded, decrease-key-free
      ++r_.stale_entries;
      continue;
    }
    if (!targets.empty() && targets[static_cast<size_t>(v)] &&
        ++settled_targets == stop_after)
      return v;
    for (const Incidence& inc : g.incident(v)) {
      const Weight nd = d + g.edge(inc.edge).w;
      if (nd > bound) continue;
      const size_t u = static_cast<size_t>(inc.neighbor);
      if (nd < r_.dist[u]) {
        if (r_.dist[u] == kInfiniteDistance) touched_.push_back(inc.neighbor);
        r_.dist[u] = nd;
        r_.parent[u] = v;
        r_.parent_edge[u] = inc.edge;
        r_.owner[u] = r_.owner[static_cast<size_t>(v)];
        push(nd, inc.neighbor);
      }
    }
  }
  return kNoVertex;
}

namespace {

MultiSourceResult run_dijkstra(const WeightedGraph& g,
                               std::span<const VertexId> sources,
                               Weight bound) {
  DijkstraWorkspace ws;
  ws.search(g, sources, bound);
  return std::move(ws).take_result();
}

}  // namespace

std::vector<VertexId> ShortestPathTree::path_to(VertexId target) const {
  if (dist[static_cast<size_t>(target)] == kInfiniteDistance) return {};
  size_t hops = 0;
  for (VertexId v = target; v != kNoVertex; v = parent[static_cast<size_t>(v)])
    ++hops;
  std::vector<VertexId> path;
  path.reserve(hops);
  for (VertexId v = target; v != kNoVertex;
       v = parent[static_cast<size_t>(v)])
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<EdgeId> ShortestPathTree::path_edges_to(VertexId target) const {
  if (dist[static_cast<size_t>(target)] == kInfiniteDistance) return {};
  size_t hops = 0;
  for (VertexId v = target; parent[static_cast<size_t>(v)] != kNoVertex;
       v = parent[static_cast<size_t>(v)])
    ++hops;
  std::vector<EdgeId> path;
  path.reserve(hops);
  for (VertexId v = target; parent[static_cast<size_t>(v)] != kNoVertex;
       v = parent[static_cast<size_t>(v)])
    path.push_back(parent_edge[static_cast<size_t>(v)]);
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPathTree dijkstra(const WeightedGraph& g, VertexId source) {
  return dijkstra_bounded(g, source, kInfiniteDistance);
}

ShortestPathTree dijkstra_bounded(const WeightedGraph& g, VertexId source,
                                  Weight bound) {
  const VertexId sources[] = {source};
  MultiSourceResult r = run_dijkstra(g, sources, bound);
  ShortestPathTree t;
  t.source = source;
  t.dist = std::move(r.dist);
  t.parent = std::move(r.parent);
  t.parent_edge = std::move(r.parent_edge);
  return t;
}

MultiSourceResult multi_source_dijkstra(const WeightedGraph& g,
                                        std::span<const VertexId> sources) {
  return run_dijkstra(g, sources, kInfiniteDistance);
}

MultiSourceResult multi_source_dijkstra_bounded(
    const WeightedGraph& g, std::span<const VertexId> sources, Weight bound) {
  return run_dijkstra(g, sources, bound);
}

std::vector<std::vector<Weight>> all_pairs_distances(const WeightedGraph& g) {
  std::vector<std::vector<Weight>> all;
  all.reserve(static_cast<size_t>(g.num_vertices()));
  for (VertexId s = 0; s < g.num_vertices(); ++s)
    all.push_back(dijkstra(g, s).dist);
  return all;
}

std::vector<int> bfs_hops(const WeightedGraph& g, VertexId source) {
  LN_REQUIRE(source >= 0 && source < g.num_vertices(), "source out of range");
  std::vector<int> hops(static_cast<size_t>(g.num_vertices()), -1);
  std::deque<VertexId> queue{source};
  hops[static_cast<size_t>(source)] = 0;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    for (const Incidence& inc : g.incident(v)) {
      if (hops[static_cast<size_t>(inc.neighbor)] < 0) {
        hops[static_cast<size_t>(inc.neighbor)] =
            hops[static_cast<size_t>(v)] + 1;
        queue.push_back(inc.neighbor);
      }
    }
  }
  return hops;
}

RootedTree shortest_path_tree(const WeightedGraph& g, VertexId source) {
  ShortestPathTree t = dijkstra(g, source);
  std::vector<Weight> pw(t.parent.size(), 0.0);
  for (size_t v = 0; v < t.parent.size(); ++v) {
    LN_REQUIRE(t.dist[v] != kInfiniteDistance,
               "shortest_path_tree requires a connected graph");
    if (t.parent_edge[v] != kNoEdge) pw[v] = g.edge(t.parent_edge[v]).w;
  }
  return RootedTree::from_parents(source, std::move(t.parent),
                                  std::move(t.parent_edge), std::move(pw));
}

}  // namespace lightnet

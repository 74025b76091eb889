#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "support/assert.h"

namespace lightnet {

WeightedGraph WeightedGraph::from_edges(int num_vertices,
                                        std::vector<Edge> edges) {
  LN_REQUIRE(num_vertices >= 0, "negative vertex count");
  // Per-edge checks first: the CSR fill below indexes by endpoint.
  for (const Edge& e : edges) {
    LN_REQUIRE(e.u >= 0 && e.u < num_vertices && e.v >= 0 && e.v < num_vertices,
               "edge endpoint out of range");
    LN_REQUIRE(e.u != e.v, "self-loops are not allowed");
    LN_REQUIRE(std::isfinite(e.w) && e.w > 0.0,
               "edge weights must be positive and finite");
  }

  WeightedGraph g;
  g.num_vertices_ = num_vertices;
  g.edges_ = std::move(edges);
  g.offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.offsets_[static_cast<size_t>(e.u) + 1];
    ++g.offsets_[static_cast<size_t>(e.v) + 1];
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i)
    g.offsets_[i] += g.offsets_[i - 1];
  g.adjacency_.resize(g.edges_.size() * 2);
  std::vector<int> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId id = 0; id < static_cast<EdgeId>(g.edges_.size()); ++id) {
    const Edge& e = g.edges_[static_cast<size_t>(id)];
    g.adjacency_[static_cast<size_t>(cursor[static_cast<size_t>(e.u)]++)] = {
        id, e.v};
    g.adjacency_[static_cast<size_t>(cursor[static_cast<size_t>(e.v)]++)] = {
        id, e.u};
  }
  // A parallel edge lists one neighbour twice in an incidence list:
  // seen_from[w] == v once w was met in v's list.
  std::vector<VertexId> seen_from(static_cast<size_t>(num_vertices), kNoVertex);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (const Incidence& inc : g.incident(v)) {
      VertexId& seen = seen_from[static_cast<size_t>(inc.neighbor)];
      LN_REQUIRE(seen != v, "parallel edges are not allowed");
      seen = v;
    }
  }
  return g;
}

EdgeId WeightedGraph::find_edge(VertexId u, VertexId v) const {
  for (const Incidence& inc : incident(u))
    if (inc.neighbor == v) return inc.edge;
  return kNoEdge;
}

Weight WeightedGraph::total_weight() const {
  Weight sum = 0.0;
  for (const Edge& e : edges_) sum += e.w;
  return sum;
}

bool WeightedGraph::is_connected() const {
  if (num_vertices_ == 0) return true;
  std::vector<char> seen(static_cast<size_t>(num_vertices_), 0);
  std::deque<VertexId> queue{0};
  seen[0] = 1;
  int count = 1;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    for (const Incidence& inc : incident(v)) {
      if (!seen[static_cast<size_t>(inc.neighbor)]) {
        seen[static_cast<size_t>(inc.neighbor)] = 1;
        ++count;
        queue.push_back(inc.neighbor);
      }
    }
  }
  return count == num_vertices_;
}

int WeightedGraph::hop_diameter() const {
  // BoundingDiameters (Takes & Kosters, CIKM 2011). Every vertex w carries
  // bounds lo[w] <= ecc(w) <= hi[w]. A BFS from v with eccentricity e gives
  // each w, at d = dist(v, w), lo[w] >= max(e - d, d) and hi[w] <= e + d,
  // and gives the diameter 2e as an upper bound. The diameter's lower bound
  // is the largest lo over all vertices, its upper bound the largest hi
  // over the candidates still open. A candidate retires once hi <= the
  // lower bound (it cannot raise it) and 2 lo >= the upper bound (a BFS
  // from it cannot lower it), so the upper bound stays valid.
  const int n = num_vertices_;
  if (n == 0) return 0;
  const size_t nn = static_cast<size_t>(n);
  constexpr int kUnbounded = std::numeric_limits<int>::max();
  std::vector<int> lo(nn, 0), hi(nn, kUnbounded), dist(nn);
  std::vector<VertexId> open(nn), queue(nn);
  for (VertexId v = 0; v < n; ++v) open[static_cast<size_t>(v)] = v;
  int lower = 0, upper = kUnbounded;
  bool pick_high = true;
  while (true) {
    // Alternate between the largest upper bound (a likely periphery
    // vertex, raises `lower`) and the smallest lower bound (a likely
    // center, lowers `upper`). `open` stays in id order, so ties go to the
    // higher degree, then the lower id.
    const auto key = [&](VertexId w) {
      return pick_high ? hi[static_cast<size_t>(w)]
                       : -lo[static_cast<size_t>(w)];
    };
    VertexId s = open[0];
    for (VertexId w : open)
      if (key(w) > key(s) || (key(w) == key(s) && degree(w) > degree(s)))
        s = w;
    pick_high = !pick_high;

    std::fill(dist.begin(), dist.end(), -1);
    size_t head = 0, tail = 0;
    queue[tail++] = s;
    dist[static_cast<size_t>(s)] = 0;
    while (head < tail) {
      const VertexId v = queue[head++];
      for (const Incidence& inc : incident(v)) {
        const size_t u = static_cast<size_t>(inc.neighbor);
        if (dist[u] >= 0) continue;
        dist[u] = dist[static_cast<size_t>(v)] + 1;
        queue[tail++] = inc.neighbor;
      }
    }
    LN_REQUIRE(tail == nn, "hop_diameter requires a connected graph");
    const int ecc = dist[static_cast<size_t>(queue[tail - 1])];
    lower = std::max(lower, ecc);
    upper = std::min(upper, 2 * ecc);
    lo[static_cast<size_t>(s)] = hi[static_cast<size_t>(s)] = ecc;
    for (VertexId w : open) {
      const size_t wi = static_cast<size_t>(w);
      const int d = dist[wi];
      lo[wi] = std::max(lo[wi], std::max(ecc - d, d));
      hi[wi] = std::min(hi[wi], ecc + d);
      lower = std::max(lower, lo[wi]);
    }

    int open_hi = lower;
    size_t kept = 0;
    for (VertexId w : open) {
      const size_t wi = static_cast<size_t>(w);
      if (w == s || (hi[wi] <= lower && 2 * lo[wi] >= upper)) continue;
      open_hi = std::max(open_hi, hi[wi]);
      open[kept++] = w;
    }
    open.resize(kept);
    upper = std::min(upper, open_hi);
    if (lower == upper || open.empty()) return lower;
  }
}

WeightedGraph WeightedGraph::edge_subgraph(
    std::span<const EdgeId> edge_ids) const {
  std::vector<Edge> sub;
  sub.reserve(edge_ids.size());
  for (EdgeId id : edge_ids) {
    LN_REQUIRE(id >= 0 && id < num_edges(), "edge id out of range");
    sub.push_back(edge(id));
  }
  return from_edges(num_vertices_, std::move(sub));
}

Weight WeightedGraph::min_edge_weight() const {
  LN_REQUIRE(!edges_.empty(), "graph has no edges");
  Weight best = std::numeric_limits<Weight>::infinity();
  for (const Edge& e : edges_) best = std::min(best, e.w);
  return best;
}

Weight WeightedGraph::max_edge_weight() const {
  LN_REQUIRE(!edges_.empty(), "graph has no edges");
  Weight best = 0.0;
  for (const Edge& e : edges_) best = std::max(best, e.w);
  return best;
}

RootedTree RootedTree::from_parents(VertexId root,
                                    std::vector<VertexId> parent,
                                    std::vector<EdgeId> parent_edge,
                                    std::vector<Weight> parent_weight) {
  const int n = static_cast<int>(parent.size());
  LN_REQUIRE(root >= 0 && root < n, "root out of range");
  LN_REQUIRE(parent[static_cast<size_t>(root)] == kNoVertex,
             "root must have no parent");
  LN_REQUIRE(parent_edge.size() == parent.size() &&
                 parent_weight.size() == parent.size(),
             "parent arrays must have equal length");
  RootedTree t;
  t.root = root;
  t.parent = std::move(parent);
  t.parent_edge = std::move(parent_edge);
  t.parent_weight = std::move(parent_weight);
  t.children.assign(static_cast<size_t>(n), {});
  for (VertexId v = 0; v < n; ++v) {
    if (v == root) continue;
    VertexId p = t.parent[static_cast<size_t>(v)];
    LN_REQUIRE(p >= 0 && p < n, "non-root vertex with no parent");
    t.children[static_cast<size_t>(p)].push_back(v);
  }
  for (auto& ch : t.children) std::sort(ch.begin(), ch.end());
  // Validate acyclicity / reachability: walk up from every vertex.
  std::vector<int> depth(static_cast<size_t>(n), -1);
  depth[static_cast<size_t>(root)] = 0;
  for (VertexId v = 0; v < n; ++v) {
    std::vector<VertexId> stack;
    VertexId cur = v;
    while (depth[static_cast<size_t>(cur)] < 0) {
      stack.push_back(cur);
      cur = t.parent[static_cast<size_t>(cur)];
      LN_REQUIRE(cur != kNoVertex, "vertex does not reach root");
      LN_REQUIRE(static_cast<int>(stack.size()) <= n, "cycle in parent links");
    }
    int d = depth[static_cast<size_t>(cur)];
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      depth[static_cast<size_t>(*it)] = ++d;
  }
  return t;
}

RootedTree RootedTree::from_edge_set(const WeightedGraph& g, VertexId root,
                                     std::span<const EdgeId> tree_edges) {
  const int n = g.num_vertices();
  LN_REQUIRE(static_cast<int>(tree_edges.size()) == n - 1,
             "spanning tree must have n-1 edges");
  // Adjacency restricted to the tree edges.
  std::vector<std::vector<Incidence>> adj(static_cast<size_t>(n));
  for (EdgeId id : tree_edges) {
    const Edge& e = g.edge(id);
    adj[static_cast<size_t>(e.u)].push_back({id, e.v});
    adj[static_cast<size_t>(e.v)].push_back({id, e.u});
  }
  std::vector<VertexId> parent(static_cast<size_t>(n), kNoVertex);
  std::vector<EdgeId> parent_edge(static_cast<size_t>(n), kNoEdge);
  std::vector<Weight> parent_weight(static_cast<size_t>(n), 0.0);
  std::vector<char> seen(static_cast<size_t>(n), 0);
  std::deque<VertexId> queue{root};
  seen[static_cast<size_t>(root)] = 1;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    for (const Incidence& inc : adj[static_cast<size_t>(v)]) {
      if (seen[static_cast<size_t>(inc.neighbor)]) continue;
      seen[static_cast<size_t>(inc.neighbor)] = 1;
      parent[static_cast<size_t>(inc.neighbor)] = v;
      parent_edge[static_cast<size_t>(inc.neighbor)] = inc.edge;
      parent_weight[static_cast<size_t>(inc.neighbor)] = g.edge(inc.edge).w;
      queue.push_back(inc.neighbor);
    }
  }
  for (VertexId v = 0; v < n; ++v)
    LN_REQUIRE(seen[static_cast<size_t>(v)], "tree edges do not span graph");
  return from_parents(root, std::move(parent), std::move(parent_edge),
                      std::move(parent_weight));
}

Weight RootedTree::total_weight() const {
  Weight sum = 0.0;
  for (size_t v = 0; v < parent.size(); ++v)
    if (static_cast<VertexId>(v) != root) sum += parent_weight[v];
  return sum;
}

std::vector<Weight> RootedTree::distances_from_root() const {
  std::vector<Weight> dist(parent.size(), 0.0);
  for (VertexId v : preorder()) {
    if (v == root) continue;
    dist[static_cast<size_t>(v)] =
        dist[static_cast<size_t>(parent[static_cast<size_t>(v)])] +
        parent_weight[static_cast<size_t>(v)];
  }
  return dist;
}

std::vector<VertexId> RootedTree::preorder() const {
  std::vector<VertexId> order;
  order.reserve(parent.size());
  std::vector<VertexId> stack{root};
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    order.push_back(v);
    const auto& ch = children[static_cast<size_t>(v)];
    // Push in reverse so the smallest-id child is visited first.
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
  }
  return order;
}

std::vector<EdgeId> RootedTree::edge_ids() const {
  std::vector<EdgeId> ids;
  ids.reserve(parent.size() - 1);
  for (size_t v = 0; v < parent.size(); ++v)
    if (static_cast<VertexId>(v) != root) ids.push_back(parent_edge[v]);
  return ids;
}

std::vector<EdgeId> dedupe_edge_ids(std::vector<EdgeId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace lightnet

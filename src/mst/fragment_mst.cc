#include "mst/fragment_mst.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/mst.h"
#include "graph/union_find.h"
#include "support/assert.h"

namespace lightnet {

namespace {

// Hop-diameter bookkeeping for Borůvka cost charging: BFS over the current
// MST forest, per component.
int max_component_hop_diameter(const WeightedGraph& g,
                               const std::vector<EdgeId>& forest_edges,
                               int n) {
  std::vector<std::vector<VertexId>> adj(static_cast<size_t>(n));
  for (EdgeId id : forest_edges) {
    const Edge& e = g.edge(id);
    adj[static_cast<size_t>(e.u)].push_back(e.v);
    adj[static_cast<size_t>(e.v)].push_back(e.u);
  }
  // A BFS resets only the vertices the previous one reached (its queue), so
  // a phase costs O(n) even when every component is a single vertex.
  std::vector<int> dist(static_cast<size_t>(n), -1);
  std::vector<VertexId> queue;
  int worst = 0;
  // Eccentricity from every vertex is overkill; double sweep per component
  // is exact on trees.
  std::vector<char> visited(static_cast<size_t>(n), 0);
  auto bfs_far = [&](VertexId s) {
    for (VertexId v : queue) dist[static_cast<size_t>(v)] = -1;
    queue.assign(1, s);
    dist[static_cast<size_t>(s)] = 0;
    VertexId far = s;
    for (size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      visited[static_cast<size_t>(v)] = 1;
      if (dist[static_cast<size_t>(v)] > dist[static_cast<size_t>(far)])
        far = v;
      for (VertexId u : adj[static_cast<size_t>(v)]) {
        if (dist[static_cast<size_t>(u)] < 0) {
          dist[static_cast<size_t>(u)] = dist[static_cast<size_t>(v)] + 1;
          queue.push_back(u);
        }
      }
    }
    return std::pair{far, dist[static_cast<size_t>(far)]};
  };
  for (VertexId v = 0; v < n; ++v) {
    if (visited[static_cast<size_t>(v)]) continue;
    auto [far, d_unused] = bfs_far(v);
    (void)d_unused;
    auto [far2, diameter] = bfs_far(far);
    (void)far2;
    worst = std::max(worst, diameter);
  }
  return worst;
}

}  // namespace

int FragmentDecomposition::max_hop_depth() const {
  int worst = 0;
  for (int d : fragment_hop_depth) worst = std::max(worst, d);
  return worst;
}

FragmentDecomposition cut_tree_fragments(const RootedTree& tree, int target) {
  LN_REQUIRE(target >= 1, "fragment target size must be positive");
  const int n = tree.num_vertices();
  const VertexId rt = tree.root;
  FragmentDecomposition frags;
  frags.fragment_of.assign(static_cast<size_t>(n), -1);

  // Bottom-up subtree-size cutting: a vertex becomes a fragment root when
  // its pending (un-cut) subtree reaches the target size; pending child
  // subtrees each have < target hops of depth, so fragment hop-diameter
  // ≤ 2*target.
  std::vector<int> pending(static_cast<size_t>(n), 0);
  const std::vector<VertexId> order = tree.preorder();
  std::vector<VertexId> cut_roots;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const VertexId v = *it;
    int size = 1;
    for (VertexId child : tree.children[static_cast<size_t>(v)])
      size += pending[static_cast<size_t>(child)];
    if (size >= target || v == rt) {
      cut_roots.push_back(v);
      pending[static_cast<size_t>(v)] = 0;
    } else {
      pending[static_cast<size_t>(v)] = size;
    }
  }
  // Fragment 0 is rt's (paper: F_1 contains rt).
  std::reverse(cut_roots.begin(), cut_roots.end());
  auto rt_pos = std::find(cut_roots.begin(), cut_roots.end(), rt);
  LN_ASSERT(rt_pos != cut_roots.end());
  std::iter_swap(cut_roots.begin(), rt_pos);
  frags.num_fragments = static_cast<int>(cut_roots.size());
  frags.fragment_root = cut_roots;
  for (int f = 0; f < frags.num_fragments; ++f)
    frags.fragment_of[static_cast<size_t>(
        cut_roots[static_cast<size_t>(f)])] = f;
  // Non-root vertices inherit the fragment of their parent; preorder labels
  // parents first.
  for (VertexId v : order) {
    if (frags.fragment_of[static_cast<size_t>(v)] >= 0) continue;
    const VertexId p = tree.parent[static_cast<size_t>(v)];
    LN_ASSERT(p != kNoVertex);
    frags.fragment_of[static_cast<size_t>(v)] =
        frags.fragment_of[static_cast<size_t>(p)];
  }
  frags.parent_fragment.assign(static_cast<size_t>(frags.num_fragments), -1);
  for (int f = 1; f < frags.num_fragments; ++f) {
    const VertexId r = frags.fragment_root[static_cast<size_t>(f)];
    const VertexId p = tree.parent[static_cast<size_t>(r)];
    LN_ASSERT(p != kNoVertex);
    frags.parent_fragment[static_cast<size_t>(f)] =
        frags.fragment_of[static_cast<size_t>(p)];
  }
  frags.fragment_hop_depth.assign(static_cast<size_t>(frags.num_fragments),
                                  0);
  std::vector<int> hop_depth(static_cast<size_t>(n), 0);
  for (VertexId v : order) {
    const int f = frags.fragment_of[static_cast<size_t>(v)];
    if (frags.fragment_root[static_cast<size_t>(f)] == v) {
      hop_depth[static_cast<size_t>(v)] = 0;
    } else {
      const VertexId p = tree.parent[static_cast<size_t>(v)];
      LN_ASSERT(frags.fragment_of[static_cast<size_t>(p)] == f);
      hop_depth[static_cast<size_t>(v)] =
          hop_depth[static_cast<size_t>(p)] + 1;
    }
    frags.fragment_hop_depth[static_cast<size_t>(f)] =
        std::max(frags.fragment_hop_depth[static_cast<size_t>(f)],
                 hop_depth[static_cast<size_t>(v)]);
  }
  return frags;
}

DistributedMstResult build_distributed_mst(const WeightedGraph& g,
                                           VertexId rt,
                                           int target_fragment_size) {
  const int n = g.num_vertices();
  LN_REQUIRE(n >= 1, "empty graph");
  LN_REQUIRE(rt >= 0 && rt < n, "root out of range");
  if (target_fragment_size <= 0)
    target_fragment_size =
        std::max(1, static_cast<int>(std::ceil(std::sqrt(n))));

  DistributedMstResult result;

  // --- Borůvka merge loop (component level). Each phase: every component
  // finds its minimum-weight outgoing edge under the global (w, id) order
  // and all proposals are merged. Cost per phase mirrors GHS: a converge-
  // cast + broadcast inside each component tree, 2*max-hop-diameter + O(1).
  UnionFind uf(n);
  std::vector<EdgeId> forest;
  forest.reserve(static_cast<size_t>(n) - 1);
  while (uf.num_components() > 1) {
    std::vector<EdgeId> best(static_cast<size_t>(n), kNoEdge);  // per root
    for (EdgeId id = 0; id < g.num_edges(); ++id) {
      const Edge& e = g.edge(id);
      const int cu = uf.find(e.u), cv = uf.find(e.v);
      if (cu == cv) continue;
      for (int c : {cu, cv}) {
        EdgeId& slot = best[static_cast<size_t>(c)];
        if (slot == kNoEdge || mst_edge_less(g, id, slot)) slot = id;
      }
    }
    const int diameter_before = max_component_hop_diameter(g, forest, n);
    int merges = 0;
    std::uint64_t scanned = 0;
    for (VertexId c = 0; c < n; ++c) {
      const EdgeId id = best[static_cast<size_t>(c)];
      if (id == kNoEdge) continue;
      ++scanned;
      const Edge& e = g.edge(id);
      if (uf.unite(e.u, e.v)) {
        forest.push_back(id);
        ++merges;
      }
    }
    LN_ASSERT_MSG(merges > 0, "no progress; graph disconnected?");
    congest::CostStats phase;
    phase.rounds = 2 * static_cast<std::uint64_t>(diameter_before) + 3;
    phase.messages = static_cast<std::uint64_t>(g.num_edges()) * 2 + scanned;
    phase.words = phase.messages * 2;
    phase.max_edge_load = 1;
    result.ledger.add("boruvka-phase", phase);
  }
  LN_ASSERT(static_cast<int>(forest.size()) == n - 1);
  result.mst_edges = std::move(forest);
  result.tree = RootedTree::from_edge_set(g, rt, result.mst_edges);

  result.fragments = cut_tree_fragments(result.tree, target_fragment_size);
  const FragmentDecomposition& frags = result.fragments;

  // Decomposition cost: KP98's k-dominating-set decomposition runs in
  // O(target + D) rounds; we charge target + hop-depth of the MST capped by
  // n (the simulation's bottom-up wave).
  congest::CostStats decomp;
  decomp.rounds = static_cast<std::uint64_t>(target_fragment_size) +
                  static_cast<std::uint64_t>(frags.max_hop_depth()) + 2;
  decomp.messages = static_cast<std::uint64_t>(n) * 2;
  decomp.words = decomp.messages;
  decomp.max_edge_load = 1;
  result.ledger.add("fragment-decomposition", decomp);

  return result;
}

}  // namespace lightnet

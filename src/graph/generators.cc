#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "graph/union_find.h"
#include "support/assert.h"
#include "support/rng.h"

namespace lightnet {

namespace {

Weight draw_weight(Rng& rng, WeightLaw law, double max_weight) {
  switch (law) {
    case WeightLaw::kUnit:
      return 1.0;
    case WeightLaw::kUniform:
      return rng.next_uniform(1.0, max_weight);
    case WeightLaw::kHeavyTail: {
      const double u = rng.next_double();
      return std::clamp(1.0 / ((1.0 - u) * (1.0 - u) + 1e-12), 1.0,
                        max_weight);
    }
    case WeightLaw::kExponentialScales: {
      const int max_level = std::max(1, static_cast<int>(std::log2(
                                            std::max(2.0, max_weight))));
      const int level = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(max_level) + 1));
      return std::min(max_weight, std::ldexp(1.0, level));
    }
  }
  LN_ASSERT_MSG(false, "unknown weight law");
  return 1.0;
}

// Key for "has this undirected pair been used" maps.
std::uint64_t pair_key(VertexId a, VertexId b) {
  const std::uint64_t lo = static_cast<std::uint32_t>(std::min(a, b));
  const std::uint64_t hi = static_cast<std::uint32_t>(std::max(a, b));
  return (hi << 32) | lo;
}

double euclid(double ax, double ay, double bx, double by) {
  const double dx = ax - bx, dy = ay - by;
  return std::sqrt(dx * dx + dy * dy);
}

// Euclidean MST over point set via Prim (O(n^2)); used to guarantee
// connectivity of geometric graphs without distorting the metric when the
// radius graph alone does not.
std::vector<std::pair<VertexId, VertexId>> euclidean_mst(
    const std::vector<double>& x, const std::vector<double>& y) {
  const int n = static_cast<int>(x.size());
  std::vector<std::pair<VertexId, VertexId>> edges;
  if (n <= 1) return edges;
  std::vector<char> in_tree(static_cast<size_t>(n), 0);
  std::vector<double> best(static_cast<size_t>(n),
                           std::numeric_limits<double>::infinity());
  std::vector<VertexId> best_from(static_cast<size_t>(n), kNoVertex);
  in_tree[0] = 1;
  for (VertexId v = 1; v < n; ++v) {
    best[static_cast<size_t>(v)] = euclid(x[0], y[0], x[static_cast<size_t>(v)],
                                          y[static_cast<size_t>(v)]);
    best_from[static_cast<size_t>(v)] = 0;
  }
  for (int step = 1; step < n; ++step) {
    VertexId pick = kNoVertex;
    double pick_dist = std::numeric_limits<double>::infinity();
    for (VertexId v = 0; v < n; ++v) {
      if (!in_tree[static_cast<size_t>(v)] &&
          best[static_cast<size_t>(v)] < pick_dist) {
        pick = v;
        pick_dist = best[static_cast<size_t>(v)];
      }
    }
    LN_ASSERT(pick != kNoVertex);
    in_tree[static_cast<size_t>(pick)] = 1;
    edges.emplace_back(best_from[static_cast<size_t>(pick)], pick);
    for (VertexId v = 0; v < n; ++v) {
      if (in_tree[static_cast<size_t>(v)]) continue;
      const double d = euclid(x[static_cast<size_t>(pick)],
                              y[static_cast<size_t>(pick)],
                              x[static_cast<size_t>(v)],
                              y[static_cast<size_t>(v)]);
      if (d < best[static_cast<size_t>(v)]) {
        best[static_cast<size_t>(v)] = d;
        best_from[static_cast<size_t>(v)] = pick;
      }
    }
  }
  return edges;
}

}  // namespace

GeometricGraph geometric_graph(std::vector<double> x, std::vector<double> y,
                               double radius) {
  const int n = static_cast<int>(x.size());
  LN_REQUIRE(n >= 1, "need at least one vertex");
  LN_REQUIRE(y.size() == x.size(), "need one y coordinate per x coordinate");
  LN_REQUIRE(radius > 0.0, "radius must be positive");
  for (size_t i = 0; i < x.size(); ++i)
    LN_REQUIRE(x[i] >= 0.0 && x[i] <= 1.0 && y[i] >= 0.0 && y[i] <= 1.0,
               "points must lie in the unit square");

  // k x k cells of side 1/k. The side exceeds the radius by a relative 1e-9,
  // which absorbs the rounding of the distances and of the cell indices, so
  // every pair within the radius lies in the same or in adjacent cells. At
  // most about n cells: a radius below 1/sqrt(n) keeps sqrt(n) per side.
  const double fit = std::floor(1.0 / (radius * (1.0 + 1e-9)));
  const double cap =
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(n))));
  const int k = static_cast<int>(std::clamp(fit, 1.0, cap));
  const auto cell_of = [k](double c) {
    return std::min(k - 1, static_cast<int>(c * k));
  };
  // Counting sort by cell; ids ascend within a cell.
  std::vector<int> first(static_cast<size_t>(k * k) + 1, 0);
  std::vector<size_t> cell(static_cast<size_t>(n));
  for (size_t i = 0; i < cell.size(); ++i) {
    cell[i] = static_cast<size_t>(cell_of(y[i]) * k + cell_of(x[i]));
    ++first[cell[i] + 1];
  }
  for (size_t c = 1; c < first.size(); ++c) first[c] += first[c - 1];
  std::vector<VertexId> members(static_cast<size_t>(n));
  std::vector<int> cursor(first.begin(), first.end() - 1);
  for (VertexId v = 0; v < n; ++v)
    members[static_cast<size_t>(cursor[cell[static_cast<size_t>(v)]]++)] = v;

  // Pairs u < v within the radius, in (v, u) order.
  std::vector<Edge> edge_list;
  std::vector<Edge> row;
  bool coincident = false;
  for (VertexId v = 0; v < n; ++v) {
    const size_t vi = static_cast<size_t>(v);
    const int cx = cell_of(x[vi]), cy = cell_of(y[vi]);
    row.clear();
    for (int gy = std::max(0, cy - 1); gy <= std::min(k - 1, cy + 1); ++gy) {
      for (int gx = std::max(0, cx - 1); gx <= std::min(k - 1, cx + 1); ++gx) {
        const size_t c = static_cast<size_t>(gy * k + gx);
        for (int i = first[c]; i < first[c + 1]; ++i) {
          const VertexId u = members[static_cast<size_t>(i)];
          if (u >= v) break;
          const size_t ui = static_cast<size_t>(u);
          const double d = euclid(x[ui], y[ui], x[vi], y[vi]);
          if (!(d <= radius)) continue;
          if (d > 0.0)
            row.push_back({u, v, d});
          else
            coincident = true;
        }
      }
    }
    std::sort(row.begin(), row.end(),
              [](const Edge& a, const Edge& b) { return a.u < b.u; });
    edge_list.insert(edge_list.end(), row.begin(), row.end());
  }

  // Every Euclidean MST edge is a shortest edge across some cut, so when
  // the radius graph is connected it is no longer than the radius, and it
  // is a radius edge unless its endpoints coincide. Only otherwise does the
  // MST add edges.
  UnionFind components(n);
  for (const Edge& e : edge_list) components.unite(e.u, e.v);
  if (coincident || components.num_components() > 1) {
    std::map<std::uint64_t, Edge> edges;
    for (const Edge& e : edge_list) edges.emplace(pair_key(e.u, e.v), e);
    for (auto [u, v] : euclidean_mst(x, y)) {
      const double d =
          euclid(x[static_cast<size_t>(u)], y[static_cast<size_t>(u)],
                 x[static_cast<size_t>(v)], y[static_cast<size_t>(v)]);
      edges.try_emplace(pair_key(u, v), Edge{u, v, std::max(d, 1e-9)});
    }
    edge_list.clear();
    for (auto& [key, e] : edges) edge_list.push_back(e);
  }
  GeometricGraph out;
  out.graph = WeightedGraph::from_edges(n, std::move(edge_list));
  out.x = std::move(x);
  out.y = std::move(y);
  return out;
}

GeometricGraph random_geometric(int n, double radius, std::uint64_t seed) {
  LN_REQUIRE(n >= 1, "need at least one vertex");
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.next_double();
    y[i] = rng.next_double();
  }
  return geometric_graph(std::move(x), std::move(y), radius);
}

WeightedGraph erdos_renyi(int n, double p, WeightLaw law, double max_weight,
                          std::uint64_t seed) {
  LN_REQUIRE(n >= 1, "need at least one vertex");
  LN_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  Rng rng(seed);
  std::map<std::uint64_t, Edge> edges;
  // Random spanning tree first (random attachment), guarantees connectivity.
  for (VertexId v = 1; v < n; ++v) {
    const VertexId u = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(v)));
    edges[pair_key(u, v)] = {u, v, draw_weight(rng, law, max_weight)};
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.next_bernoulli(p))
        edges.try_emplace(pair_key(u, v),
                          Edge{u, v, draw_weight(rng, law, max_weight)});
    }
  }
  std::vector<Edge> edge_list;
  edge_list.reserve(edges.size());
  for (auto& [key, e] : edges) edge_list.push_back(e);
  return WeightedGraph::from_edges(n, std::move(edge_list));
}

WeightedGraph ring_with_chords(int n, int num_chords, double chord_weight,
                               std::uint64_t seed) {
  LN_REQUIRE(n >= 3, "ring needs at least 3 vertices");
  LN_REQUIRE(chord_weight > 0.0, "chord weight must be positive");
  Rng rng(seed);
  std::map<std::uint64_t, Edge> edges;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId u = static_cast<VertexId>((v + 1) % n);
    edges[pair_key(v, u)] = {std::min(v, u), std::max(v, u), 1.0};
  }
  int added = 0;
  int attempts = 0;
  while (added < num_chords && attempts < num_chords * 50 + 100) {
    ++attempts;
    const VertexId u = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    const VertexId v = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (edges.count(pair_key(u, v))) continue;
    edges[pair_key(u, v)] = {std::min(u, v), std::max(u, v), chord_weight};
    ++added;
  }
  std::vector<Edge> edge_list;
  for (auto& [key, e] : edges) edge_list.push_back(e);
  return WeightedGraph::from_edges(n, std::move(edge_list));
}

WeightedGraph grid(int rows, int cols, bool perturb, std::uint64_t seed) {
  LN_REQUIRE(rows >= 1 && cols >= 1, "grid dimensions must be positive");
  Rng rng(seed);
  auto id = [cols](int r, int c) {
    return static_cast<VertexId>(r * cols + c);
  };
  std::vector<Edge> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const Weight jitter_r = perturb ? rng.next_uniform(1.0, 1.001) : 1.0;
      const Weight jitter_d = perturb ? rng.next_uniform(1.0, 1.001) : 1.0;
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1), jitter_r});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c), jitter_d});
    }
  }
  return WeightedGraph::from_edges(rows * cols, std::move(edges));
}

WeightedGraph random_tree(int n, WeightLaw law, double max_weight,
                          std::uint64_t seed) {
  LN_REQUIRE(n >= 1, "need at least one vertex");
  Rng rng(seed);
  std::vector<Edge> edges;
  if (n >= 2) {
    // Prüfer sequence -> uniform random labeled tree.
    std::vector<int> prufer(static_cast<size_t>(std::max(0, n - 2)));
    for (auto& p : prufer)
      p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    std::vector<int> degree(static_cast<size_t>(n), 1);
    for (int p : prufer) ++degree[static_cast<size_t>(p)];
    std::vector<char> used(static_cast<size_t>(n), 0);
    // Standard decode with a min-leaf pointer.
    int leaf_ptr = 0;
    while (degree[static_cast<size_t>(leaf_ptr)] != 1) ++leaf_ptr;
    int leaf = leaf_ptr;
    for (int p : prufer) {
      edges.push_back({static_cast<VertexId>(leaf), static_cast<VertexId>(p),
                       draw_weight(rng, law, max_weight)});
      if (--degree[static_cast<size_t>(p)] == 1 && p < leaf_ptr) {
        leaf = p;
      } else {
        ++leaf_ptr;
        while (leaf_ptr < n && degree[static_cast<size_t>(leaf_ptr)] != 1)
          ++leaf_ptr;
        leaf = leaf_ptr;
      }
    }
    // The final edge connects the last leaf with vertex n-1.
    edges.push_back({static_cast<VertexId>(leaf),
                     static_cast<VertexId>(n - 1),
                     draw_weight(rng, law, max_weight)});
  }
  return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph path_graph(int n, WeightLaw law, double max_weight,
                         std::uint64_t seed) {
  LN_REQUIRE(n >= 1, "need at least one vertex");
  Rng rng(seed);
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<VertexId>(v + 1),
                     draw_weight(rng, law, max_weight)});
  return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph star_graph(int n, WeightLaw law, double max_weight,
                         std::uint64_t seed) {
  LN_REQUIRE(n >= 1, "need at least one vertex");
  Rng rng(seed);
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v)
    edges.push_back({0, v, draw_weight(rng, law, max_weight)});
  return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph lower_bound_family(int num_paths, int path_len,
                                 double tree_edge_weight, std::uint64_t seed) {
  LN_REQUIRE(num_paths >= 1 && path_len >= 2, "family dimensions too small");
  LN_REQUIRE(tree_edge_weight > 0.0, "tree edge weight must be positive");
  (void)seed;  // deterministic topology; seed kept for interface uniformity
  // Layout: vertex 0..T-1 = balanced binary tree over `path_len` columns
  // (heap order, root 0); then num_paths*path_len path vertices.
  // Tree leaf for column c connects to the first path's column-c vertex, so
  // hop-diameter is O(log path_len + num_paths)… to keep D small we connect
  // the leaf to *every* path's column-c vertex with heavy edges.
  int tree_size = 1;
  while (tree_size < path_len) tree_size *= 2;
  const int tree_nodes = 2 * tree_size - 1;  // full binary tree, heap order
  const int n = tree_nodes + num_paths * path_len;
  auto path_vertex = [&](int p, int c) {
    return static_cast<VertexId>(tree_nodes + p * path_len + c);
  };
  std::vector<Edge> edges;
  for (int t = 1; t < tree_nodes; ++t)
    edges.push_back({static_cast<VertexId>((t - 1) / 2),
                     static_cast<VertexId>(t), tree_edge_weight});
  for (int p = 0; p < num_paths; ++p)
    for (int c = 0; c + 1 < path_len; ++c)
      edges.push_back({path_vertex(p, c), path_vertex(p, c + 1), 1.0});
  // Leaves of the heap-ordered tree are nodes [tree_size-1, 2*tree_size-1).
  for (int c = 0; c < path_len; ++c) {
    const VertexId leaf = static_cast<VertexId>(tree_size - 1 + c);
    for (int p = 0; p < num_paths; ++p)
      edges.push_back({leaf, path_vertex(p, c), tree_edge_weight});
  }
  return WeightedGraph::from_edges(n, std::move(edges));
}

GeometricGraph complete_euclidean(int n, std::uint64_t seed) {
  LN_REQUIRE(n >= 1, "need at least one vertex");
  Rng rng(seed);
  GeometricGraph out;
  out.x.resize(static_cast<size_t>(n));
  out.y.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.x[static_cast<size_t>(i)] = rng.next_double();
    out.y[static_cast<size_t>(i)] = rng.next_double();
  }
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v)
      edges.push_back(
          {u, v,
           std::max(euclid(out.x[static_cast<size_t>(u)],
                           out.y[static_cast<size_t>(u)],
                           out.x[static_cast<size_t>(v)],
                           out.y[static_cast<size_t>(v)]),
                    1e-9)});
  out.graph = WeightedGraph::from_edges(n, std::move(edges));
  return out;
}

}  // namespace lightnet

// Workload generators for the experiments.
//
// The paper evaluates nothing empirically (pure theory), so the graph
// families here are chosen to exercise each theorem where it matters:
//  - random geometric graphs: constant doubling dimension (Theorem 5),
//  - Erdős–Rényi with various weight laws: general graphs (Theorems 1-3),
//  - ring + heavy chords: adversarial for lightness (Baswana–Sen alone
//    blows up; the paper's Theorem 2 must not),
//  - grid: bounded growth + large hop-diameter,
//  - Das-Sarma-style family: the Ω̃(√n) lower-bound topology (§8),
//  - trees/paths/stars: degenerate structure for Euler-tour (§3) edge cases.
//
// All generators return connected graphs and take an explicit seed.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace lightnet {

enum class WeightLaw {
  kUnit,          // all weights 1
  kUniform,       // uniform in [1, max_weight]
  kHeavyTail,     // Pareto-ish: 1 / U^2 clamped to [1, max_weight]
  kExponentialScales,  // weight = 2^j for uniform j; spreads across buckets
};

struct GeometricGraph {
  WeightedGraph graph;
  std::vector<double> x, y;  // vertex coordinates in the unit square
};

// Random geometric graph: n uniform points in the unit square, edges between
// points within `radius` (Euclidean weights). If the radius graph is
// disconnected, the Euclidean MST edges are added, so the result is always
// connected and remains a doubling (ddim ~= 2) metric.
GeometricGraph random_geometric(int n, double radius, std::uint64_t seed);

// The same graph on given points (coordinates in [0, 1]); random_geometric
// draws its points and calls this. Pairs are found by bucketing the points
// into square cells of side just above `radius` (at most about n cells) and
// comparing each point with the points of its own and the 8 neighbouring
// cells, so the cost is O(n + pairs compared) rather than O(n^2). The
// O(n^2) Prim pass over all points runs only as a fallback: when the
// radius graph is disconnected or two points coincide (a zero distance is
// no radius edge, but it is an MST edge). Otherwise every MST edge is
// already a radius edge. Edges are ordered by (larger, smaller) endpoint.
GeometricGraph geometric_graph(std::vector<double> x, std::vector<double> y,
                               double radius);

// G(n, p) with weights from `law`; a uniformly random spanning tree is
// always included so the result is connected.
WeightedGraph erdos_renyi(int n, double p, WeightLaw law, double max_weight,
                          std::uint64_t seed);

// Cycle 0-1-...-n-1-0 with unit weights plus `num_chords` random chords of
// weight `chord_weight`. With heavy chords this is the canonical instance
// where sparsity does not imply lightness.
WeightedGraph ring_with_chords(int n, int num_chords, double chord_weight,
                               std::uint64_t seed);

// rows x cols grid; weights 1 or slightly perturbed (keeps MST unique).
WeightedGraph grid(int rows, int cols, bool perturb, std::uint64_t seed);

// Uniform random spanning tree on n vertices (random Prüfer sequence) with
// weights from `law`.
WeightedGraph random_tree(int n, WeightLaw law, double max_weight,
                          std::uint64_t seed);

// Path 0-1-...-n-1 with the given weight law.
WeightedGraph path_graph(int n, WeightLaw law, double max_weight,
                         std::uint64_t seed);

// Star with center 0.
WeightedGraph star_graph(int n, WeightLaw law, double max_weight,
                         std::uint64_t seed);

// Das-Sarma et al. style lower-bound family: `num_paths` disjoint paths of
// `path_len` unit-weight vertices each, plus a balanced binary tree over the
// columns (heavy edges) giving hop-diameter O(log n) while forcing Ω(√n)
// information across the tree root. Vertex 0 is the tree root.
WeightedGraph lower_bound_family(int num_paths, int path_len,
                                 double tree_edge_weight, std::uint64_t seed);

// Complete graph on n random points in the unit square (Euclidean weights);
// small n only. A doubling metric with full edge visibility.
GeometricGraph complete_euclidean(int n, std::uint64_t seed);

}  // namespace lightnet

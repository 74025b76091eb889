// Ablations — the design choices DESIGN.md calls out.
//
//  A1  SLT break-point machinery vs. just returning the approximate SPT or
//      the MST: quantifies what the two-phase BP selection buys.
//  A2  BFN16 reduction on/off: the §4.4 inverse tradeoff vs. running the
//      base construction at large ε.
//  A3  Light-spanner ε sweep: bucket count (≈ log_{1+ε} n) vs. lightness.
//  A4  Hopset on/off for the doubling spanner's bounded explorations:
//      rounds on a hop-deep (path-like) doubling graph.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_common.h"
#include "core/doubling_spanner.h"
#include "core/light_spanner.h"
#include "core/slt.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"

namespace {

using namespace lightnet;

// --- A1: SLT vs its two degenerate endpoints.
void BM_A1_SltVsEndpoints(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const WeightedGraph g = ring_with_chords(n, n / 2, 25.0, 42);
  SltResult r;
  for (auto _ : state) r = build_slt(g, 0, 0.25);
  state.counters["slt_stretch"] = root_stretch(g, r.tree_edges, 0);
  state.counters["slt_lightness"] = lightness(g, r.tree_edges);
  const auto spt = shortest_path_tree(g, 0).edge_ids();
  state.counters["spt_lightness"] = lightness(g, spt);
  const auto mst = kruskal_mst(g);
  state.counters["mst_stretch"] = root_stretch(g, mst, 0);
}

// --- A2: inverse tradeoff via BFN16 vs naive large-ε base run.
void BM_A2_Bfn16OnOff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double gamma = 0.25;
  const WeightedGraph g = ring_with_chords(n, n / 2, 25.0, 42);
  SltResult with_reduction, without;
  for (auto _ : state) {
    with_reduction = build_slt_light(g, 0, gamma);
    without = build_slt(g, 0, 1.0);  // the naive way to chase lightness
  }
  state.counters["bfn16_lightness"] =
      lightness(g, with_reduction.tree_edges);
  state.counters["bfn16_stretch"] =
      root_stretch(g, with_reduction.tree_edges, 0);
  state.counters["naive_lightness"] = lightness(g, without.tree_edges);
  state.counters["naive_stretch"] =
      root_stretch(g, without.tree_edges, 0);
  state.counters["target_lightness"] = 1.0 + gamma;
}

// --- A3: light spanner ε sweep (ε in hundredths).
void BM_A3_SpannerEpsilon(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double eps = static_cast<double>(state.range(1)) / 100.0;
  const WeightedGraph g =
      erdos_renyi(n, 8.0 / n, WeightLaw::kHeavyTail, 500.0, 42);
  LightSpannerParams params;
  params.k = 2;
  params.epsilon = eps;
  const api::RunContext ctx = api::RunContext{}.with_seed(7);
  LightSpannerResult r;
  for (auto _ : state) r = build_light_spanner(g, params, ctx);
  lightnet::bench::report_cost(state, r.ledger.total());
  state.counters["stretch"] = max_edge_stretch(g, r.spanner);
  state.counters["lightness"] = lightness(g, r.spanner);
  state.counters["buckets"] = static_cast<double>(r.buckets.size());
}

// --- A4: hopset acceleration on a hop-deep, small-D doubling graph.
//
// Hopsets pay a per-iteration hub broadcast of O(M + D) rounds, so they
// only win when shortest paths have many more hops than the hop-diameter.
// A unit-weight ring plus heavy spokes to a hub has D = 2 but Θ(n)-hop
// shortest paths — exactly that regime. (On a plain path, D = n-1 floors
// every algorithm and the hopset can only add overhead.)
WeightedGraph wheel(int n) {
  std::vector<Edge> edges;
  const VertexId hub = static_cast<VertexId>(n - 1);
  const double spoke = static_cast<double>(n);  // too heavy to shortcut
  for (VertexId v = 0; v + 1 < hub; ++v)
    edges.push_back({v, static_cast<VertexId>(v + 1), 1.0});
  edges.push_back({static_cast<VertexId>(hub - 1), 0, 1.0});
  for (VertexId v = 0; v < hub; ++v) edges.push_back({v, hub, spoke});
  return WeightedGraph::from_edges(n, std::move(edges));
}

void BM_A4_HopsetOnOff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool use_hopset = state.range(1) != 0;
  const WeightedGraph g = wheel(n);
  DoublingSpannerParams params;
  params.epsilon = 0.25;
  const api::RunContext ctx = api::RunContext{}.with_seed(7);
  params.use_hopset = use_hopset;
  DoublingSpannerResult r;
  for (auto _ : state) r = build_doubling_spanner(g, params, ctx);
  lightnet::bench::report_cost(state, r.ledger.total());
  state.counters["stretch"] = max_edge_stretch(g, r.spanner);
  state.counters["hopset"] = use_hopset ? 1.0 : 0.0;
}

void sizes(benchmark::internal::Benchmark* b) {
  for (int n : {128, 256, 512}) b->Args({n});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

void eps_args(benchmark::internal::Benchmark* b) {
  for (int n : {256})
    for (int eps_hundredths : {10, 25, 50, 75}) b->Args({n, eps_hundredths});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

void hopset_args(benchmark::internal::Benchmark* b) {
  for (int n : {64, 128})
    for (int use : {0, 1}) b->Args({n, use});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_A1_SltVsEndpoints)->Apply(sizes);
BENCHMARK(BM_A2_Bfn16OnOff)->Apply(sizes);
BENCHMARK(BM_A3_SpannerEpsilon)->Apply(eps_args);
BENCHMARK(BM_A4_HopsetOnOff)->Apply(hopset_args);

}  // namespace

BENCHMARK_MAIN();

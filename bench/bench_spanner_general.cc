// Experiment T1-row1 — light spanners for general graphs (Theorem 2, §5).
//
// Regenerates the first row of Table 1 empirically: for each (n, k) the
// distributed spanner's stretch, lightness, size and CONGEST rounds, next
// to the sequential greedy baseline [ADD+93] (existentially optimal
// lightness) and Baswana-Sen alone [BS07] (sparse but *not* light — the gap
// motivating the paper).
//
// Expected shape (not absolute numbers): stretch ≤ (2k-1)(1+ε); lightness
// within the O(k·n^{1/k}) band and ~n^{1/k}-factor above greedy;
// Baswana-Sen lightness blowing up on the heavy-chord family; rounds
// growing like n^{1/2+1/(4k+2)} + D rather than linearly.
#include <benchmark/benchmark.h>

#include <cmath>

#include "baseline/greedy_spanner.h"
#include "bench/bench_common.h"
#include "core/baswana_sen.h"
#include "core/light_spanner.h"
#include "graph/generators.h"
#include "graph/metrics.h"

namespace {

using namespace lightnet;

WeightedGraph instance(const std::string& family, int n,
                       std::uint64_t seed) {
  if (family == "er") {
    return erdos_renyi(n, 8.0 / n, WeightLaw::kHeavyTail, 500.0, seed);
  }
  if (family == "ring") {
    return ring_with_chords(n, n / 2, 30.0, seed);
  }
  return random_geometric(n, std::sqrt(8.0 / n), seed).graph;
}

void BM_LightSpanner(benchmark::State& state, const std::string& family) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const WeightedGraph g = instance(family, n, 42);
  LightSpannerParams params;
  params.k = k;
  params.epsilon = 0.25;
  const api::RunContext ctx = api::RunContext{}.with_seed(7);
  LightSpannerResult r;
  for (auto _ : state) r = build_light_spanner(g, params, ctx);
  lightnet::bench::report_cost(state, r.ledger.total());
  state.counters["stretch"] = max_edge_stretch(g, r.spanner);
  state.counters["stretch_bound"] = (2.0 * k - 1.0) * (1.0 + params.epsilon);
  state.counters["lightness"] = lightness(g, r.spanner);
  state.counters["lightness_band"] =
      k * std::pow(static_cast<double>(n), 1.0 / k);
  state.counters["edges"] = static_cast<double>(r.spanner.size());
  state.counters["D"] = static_cast<double>(g.hop_diameter());
  state.counters["n_pow"] =
      std::pow(static_cast<double>(n), 0.5 + 1.0 / (4.0 * k + 2.0));
}

void BM_GreedyBaseline(benchmark::State& state, const std::string& family) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const WeightedGraph g = instance(family, n, 42);
  std::vector<EdgeId> spanner;
  for (auto _ : state)
    spanner = greedy_spanner(g, (2.0 * k - 1.0) * 1.25);
  state.counters["stretch"] = max_edge_stretch(g, spanner);
  state.counters["lightness"] = lightness(g, spanner);
  state.counters["edges"] = static_cast<double>(spanner.size());
}

void BM_BaswanaSenAlone(benchmark::State& state, const std::string& family) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const WeightedGraph g = instance(family, n, 42);
  const std::vector<char> all(static_cast<size_t>(g.num_edges()), 1);
  BaswanaSenResult r;
  for (auto _ : state) r = baswana_sen_spanner(g, all, k, 7);
  lightnet::bench::report_cost(state, r.cost);
  state.counters["stretch"] = max_edge_stretch(g, r.spanner);
  state.counters["lightness"] = lightness(g, r.spanner);
  state.counters["edges"] = static_cast<double>(r.spanner.size());
}

void args(benchmark::internal::Benchmark* b) {
  for (int n : {64, 128, 256, 512, 1024})
    for (int k : {2, 3}) b->Args({n, k});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK_CAPTURE(BM_LightSpanner, er, std::string("er"))->Apply(args);
BENCHMARK_CAPTURE(BM_LightSpanner, ring, std::string("ring"))->Apply(args);
BENCHMARK_CAPTURE(BM_GreedyBaseline, er, std::string("er"))->Apply(args);
BENCHMARK_CAPTURE(BM_GreedyBaseline, ring, std::string("ring"))->Apply(args);
BENCHMARK_CAPTURE(BM_BaswanaSenAlone, er, std::string("er"))->Apply(args);
BENCHMARK_CAPTURE(BM_BaswanaSenAlone, ring, std::string("ring"))
    ->Apply(args);

}  // namespace

BENCHMARK_MAIN();

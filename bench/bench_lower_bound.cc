// Experiment §8 — the lower-bound reduction (Theorems 6 & 7).
//
// The paper's lower bound reduces MST-weight approximation to net
// construction: Ψ = Σ n_i·α·2^{i+1} over geometric scales satisfies
// w(MST) ≤ Ψ ≤ O(α·log n)·w(MST). This bench runs the reduction forward on
// the Das-Sarma-style hard family and on benign families, reporting the
// measured Ψ/w(MST) ratio (the executable witness of Theorem 7) and the
// round cost of net construction relative to √n + D.
//
// Expected shape: ratio always ≥ 1 and well inside the α·log n band; rounds
// on the hard family dominated by the √n convergecast bottleneck even
// though its hop-diameter is only O(log n).
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_common.h"
#include "core/mst_weight_estimator.h"
#include "graph/generators.h"

namespace {

using namespace lightnet;

WeightedGraph instance(const std::string& family, int n) {
  if (family == "lb") {
    const int side = std::max(2, static_cast<int>(std::sqrt(n)));
    return lower_bound_family(side, side, 8.0, 42);
  }
  if (family == "ring") return ring_with_chords(n, n / 4, 20.0, 42);
  return erdos_renyi(n, 8.0 / n, WeightLaw::kUniform, 50.0, 42);
}

void BM_MstEstimate(benchmark::State& state, const std::string& family) {
  const int n = static_cast<int>(state.range(0));
  const double delta = static_cast<double>(state.range(1)) / 100.0;
  const WeightedGraph g = instance(family, n);
  const api::RunContext ctx = api::RunContext{}.with_seed(7);
  MstEstimateResult r;
  for (auto _ : state) r = estimate_mst_weight(g, delta, ctx);
  lightnet::bench::report_cost(state, r.ledger.total());
  state.counters["psi_over_mst"] = r.ratio;
  state.counters["alpha"] = r.alpha;
  state.counters["band_upper"] =
      r.alpha * std::log2(static_cast<double>(g.num_vertices()) + 2.0);
  state.counters["scales"] = static_cast<double>(r.scales.size());
  state.counters["sqrt_n_plus_D"] =
      std::sqrt(static_cast<double>(g.num_vertices())) + g.hop_diameter();
  state.counters["D"] = static_cast<double>(g.hop_diameter());
}

void args(benchmark::internal::Benchmark* b) {
  for (int n : {64, 144, 256})
    for (int delta_hundredths : {25, 50}) b->Args({n, delta_hundredths});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK_CAPTURE(BM_MstEstimate, lower_bound, std::string("lb"))
    ->Apply(args);
BENCHMARK_CAPTURE(BM_MstEstimate, ring, std::string("ring"))->Apply(args);
BENCHMARK_CAPTURE(BM_MstEstimate, er, std::string("er"))->Apply(args);

}  // namespace

BENCHMARK_MAIN();

// Experiment T1-row3 — distributed net construction (Theorem 3, §6).
//
// Regenerates the net row of Table 1: for each (n, δ, Δ) the construction's
// rounds, iteration count (O(log n) w.h.p.), measured LE-list sizes
// ([KKM+12]'s O(log n)), and a covering/separation validity certificate;
// the sequential greedy net is the size baseline.
//
// Expected shape: valid ((1+δ)Δ, Δ/(1+δ))-nets on every instance;
// iterations flat in Δ and logarithmic in n; rounds dominated by the
// LE-list computations.
#include <benchmark/benchmark.h>

#include <cmath>

#include "baseline/sequential_net.h"
#include "bench/bench_common.h"
#include "core/nets.h"
#include "graph/generators.h"
#include "graph/metrics.h"

namespace {

using namespace lightnet;

WeightedGraph instance(const std::string& family, int n) {
  if (family == "geo")
    return random_geometric(n, std::sqrt(10.0 / n), 42).graph;
  if (family == "lb")
    return lower_bound_family(static_cast<int>(std::sqrt(n)),
                              static_cast<int>(std::sqrt(n)), 8.0, 42);
  return erdos_renyi(n, 8.0 / n, WeightLaw::kUniform, 50.0, 42);
}

void BM_DistributedNet(benchmark::State& state, const std::string& family) {
  const int n = static_cast<int>(state.range(0));
  const double delta = static_cast<double>(state.range(1)) / 100.0;
  const WeightedGraph g = instance(family, n);
  // Radius at a tenth of the MST scale so nets are non-trivial.
  NetParams params;
  params.radius = 0.1 * g.total_weight() / g.num_edges() * 10.0;
  params.delta = delta;
  const api::RunContext ctx = api::RunContext{}.with_seed(7);
  NetResult r;
  for (auto _ : state) r = build_net(g, params, ctx);
  lightnet::bench::report_cost(state, r.ledger.total());
  const NetCheck check =
      check_net(g, r.net, (1.0 + delta) * params.radius,
                params.radius / (1.0 + delta));
  state.counters["net_size"] = static_cast<double>(r.net.size());
  state.counters["iterations"] = static_cast<double>(r.iterations);
  state.counters["log2_n"] = std::log2(static_cast<double>(n));
  state.counters["max_le_list"] =
      static_cast<double>(r.max_le_list_size);
  state.counters["valid"] = (check.covering && check.separated) ? 1.0 : 0.0;
  state.counters["sqrt_n_plus_D"] =
      std::sqrt(static_cast<double>(n)) + g.hop_diameter();
}

void BM_GreedyNetBaseline(benchmark::State& state,
                          const std::string& family) {
  const int n = static_cast<int>(state.range(0));
  const WeightedGraph g = instance(family, n);
  const double radius = 0.1 * g.total_weight() / g.num_edges() * 10.0;
  std::vector<VertexId> net;
  for (auto _ : state) net = greedy_net(g, radius);
  state.counters["net_size"] = static_cast<double>(net.size());
}

void net_args(benchmark::internal::Benchmark* b) {
  for (int n : {64, 128, 256, 512})
    for (int delta_hundredths : {0, 10, 50}) b->Args({n, delta_hundredths});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

void greedy_args(benchmark::internal::Benchmark* b) {
  for (int n : {64, 128, 256, 512}) b->Args({n});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK_CAPTURE(BM_DistributedNet, er, std::string("er"))->Apply(net_args);
BENCHMARK_CAPTURE(BM_DistributedNet, geo, std::string("geo"))
    ->Apply(net_args);
BENCHMARK_CAPTURE(BM_DistributedNet, lower_bound, std::string("lb"))
    ->Apply(net_args);
BENCHMARK_CAPTURE(BM_GreedyNetBaseline, er, std::string("er"))
    ->Apply(greedy_args);
BENCHMARK_CAPTURE(BM_GreedyNetBaseline, geo, std::string("geo"))
    ->Apply(greedy_args);

}  // namespace

BENCHMARK_MAIN();

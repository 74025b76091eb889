// Scheduler per-round cost: raw simulator throughput (messages/sec,
// rounds/sec) for the two canonical CONGEST workloads — BFS flood and
// weighted Bellman–Ford — over the four topology regimes that stress
// different scheduler paths:
//  - path:   diameter Θ(n), tiny frontier → pure per-round overhead (one
//            message a round),
//  - grid:   diameter Θ(√n), frontier Θ(√n) → mixed,
//  - geo:    random geometric, small diameter, fat frontier → arena churn,
//  - clique: diameter 1, every edge busy every round → send resolution.
//
// Standalone driver: each row repeats its run until `min_seconds` have
// passed (at least three runs) and prints one JSON line with the median
// and fastest ms per run, messages and rounds per second at the median,
// and the run's model costs, which every repetition repeats exactly.
//
//   ./bench_scheduler [filter] [min_seconds]
//
// `filter` is an ECMAScript regex searched in row names such as
// "bfs/path/1024" (default: every row); `min_seconds` defaults to 0.2.
// perfbench times whole records; this times the scheduler alone. Compare
// two builds by interleaving their runs and reading medians per row.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/bellman_ford.h"
#include "congest/bfs.h"
#include "graph/generators.h"
#include "graph/graph.h"

using namespace lightnet;

namespace {

// n is the requested vertex count; grid rounds it down to a square.
WeightedGraph make_instance(const std::string& family, int n) {
  if (family == "path") return path_graph(n, WeightLaw::kUnit, 1.0, 1);
  if (family == "grid") {
    const int side = static_cast<int>(std::sqrt(static_cast<double>(n)));
    return grid(side, side, /*perturb=*/true, 2);
  }
  if (family == "geo")
    return random_geometric(n, std::sqrt(10.0 / static_cast<double>(n)), 3)
        .graph;
  if (family == "clique") return complete_euclidean(n, 4).graph;
  throw std::invalid_argument("unknown bench family " + family);
}

struct Row {
  const char* workload;  // "bfs" or "bellman_ford"
  const char* family;
  int n;
};

constexpr Row kRows[] = {
    {"bfs", "path", 1024},           {"bfs", "path", 16384},
    {"bfs", "path", 100000},         {"bfs", "grid", 64 * 64},
    {"bfs", "grid", 256 * 256},      {"bfs", "grid", 512 * 512},
    {"bfs", "geo", 10000},           {"bfs", "geo", 100000},
    {"bfs", "clique", 256},          {"bfs", "clique", 512},
    {"bellman_ford", "grid", 64 * 64}, {"bellman_ford", "grid", 128 * 128},
    {"bellman_ford", "geo", 10000},  {"bellman_ford", "clique", 256},
};

congest::CostStats run_once(const std::string& workload,
                            const WeightedGraph& g) {
  if (workload == "bfs") return congest::build_bfs_tree(g, 0).cost;
  const VertexId source = 0;
  return congest::distributed_bellman_ford(g, {&source, 1}).cost;
}

}  // namespace

int main(int argc, char** argv) {
  const std::regex filter(argc > 1 ? argv[1] : "");
  const double min_seconds = argc > 2 ? std::atof(argv[2]) : 0.2;
  for (const Row& row : kRows) {
    const std::string name = std::string(row.workload) + "/" + row.family +
                             "/" + std::to_string(row.n);
    if (!std::regex_search(name, filter)) continue;
    const WeightedGraph g = make_instance(row.family, row.n);
    std::vector<double> ms;
    congest::CostStats cost;
    double elapsed = 0.0;
    while (ms.size() < 3 || elapsed < min_seconds) {
      const auto start = std::chrono::steady_clock::now();
      cost = run_once(row.workload, g);
      const double dt = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      ms.push_back(dt * 1e3);
      elapsed += dt;
    }
    std::sort(ms.begin(), ms.end());
    const double median = ms[ms.size() / 2];
    std::printf(
        "{\"row\":\"%s\",\"vertices\":%d,\"edges\":%d,\"runs\":%zu,"
        "\"median_ms\":%.4f,\"min_ms\":%.4f,\"messages_per_s\":%.0f,"
        "\"rounds_per_s\":%.0f,\"rounds\":%llu,\"messages\":%llu,"
        "\"max_edge_load\":%llu}\n",
        name.c_str(), g.num_vertices(), g.num_edges(), ms.size(), median,
        ms.front(), static_cast<double>(cost.messages) / median * 1e3,
        static_cast<double>(cost.rounds) / median * 1e3,
        static_cast<unsigned long long>(cost.rounds),
        static_cast<unsigned long long>(cost.messages),
        static_cast<unsigned long long>(cost.max_edge_load));
    std::fflush(stdout);
  }
  return 0;
}

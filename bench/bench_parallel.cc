// Thread-scaling benchmark for the parallel round scheduler.
//
// Standalone driver: runs two workloads across a sweep of
// SchedulerOptions::threads values and writes BENCH_parallel.json, the
// committed scaling-curve trajectory for parallel round execution:
//   - bfs/grid: raw-scheduler BFS on an r×r grid (the large-hop-diameter,
//     frontier-wave regime the sharded delivery is built for), including
//     one n ≥ 1M point;
//   - doubling_spanner/er: a whole registry construction, so the curve
//     covers the batched multi-word path and repeated scheduler launches.
//
// Determinism gate: for every workload the deterministic fields (rounds,
// messages, words, max_edge_load, output checksum) must be identical across
// all thread counts — the driver exits nonzero on any mismatch, which is
// how CI asserts that parallel runs report identical message counts to
// serial. wall_ms and hardware_threads are the only fields that may differ
// between invocations; the CI byte-comparison strips exactly those.
//
//   ./bench_parallel [output.json] [threads_csv]
//
// threads_csv defaults to "1,2,4,8".
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "congest/bfs.h"
#include "support/rng.h"

using namespace lightnet;

namespace {

std::vector<int> parse_threads(const char* arg) {
  std::vector<int> out;
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        char* end = nullptr;
        const long t = std::strtol(token.c_str(), &end, 10);
        if (*end != '\0' || t <= 0) {
          std::fprintf(stderr, "invalid thread count '%s'\n", token.c_str());
          std::exit(1);
        }
        out.push_back(static_cast<int>(t));
      }
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "no thread counts in '%s'\n", arg);
    std::exit(1);
  }
  return out;
}

// Deterministic fields of one run; equality across thread counts is the
// gate this driver enforces.
struct RunCore {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t max_edge_load = 0;
  std::uint64_t checksum = 0;

  bool operator==(const RunCore&) const = default;
};

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ v;
  return splitmix64(x);
}

struct Workload {
  std::string name;
  std::string topology;
  int n;
  // Runs at `threads`, filling the deterministic core; returns wall ms.
  double (*run)(const WeightedGraph& g, int threads, RunCore& core);
};

double run_bfs_workload(const WeightedGraph& g, int threads, RunCore& core) {
  congest::SchedulerOptions sched;
  sched.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  const congest::BfsTreeResult r = congest::build_bfs_tree(g, 0, sched);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  core.rounds = r.cost.rounds;
  core.messages = r.cost.messages;
  core.words = r.cost.words;
  core.max_edge_load = r.cost.max_edge_load;
  std::uint64_t h = 0x6c69676874ull;
  for (VertexId p : r.parent) h = fold(h, static_cast<std::uint64_t>(p) + 1);
  for (int d : r.depth) h = fold(h, static_cast<std::uint64_t>(d) + 1);
  core.checksum = h;
  return wall_ms;
}

double run_spanner_workload(const WeightedGraph& g, int threads,
                            RunCore& core) {
  const api::Construction* c = api::find_construction("doubling_spanner");
  if (c == nullptr) {
    std::fprintf(stderr, "doubling_spanner not registered\n");
    std::exit(1);
  }
  api::RunContext ctx;
  ctx.seed = 1;
  ctx.sched.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  const api::Artifact artifact = c->run(g, api::ConstructionParams{}, ctx);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const congest::CostStats& total = artifact.ledger.total();
  core.rounds = total.rounds;
  core.messages = total.messages;
  core.words = total.words;
  core.max_edge_load = total.max_edge_load;
  std::uint64_t h = 0x7370616eull;
  for (EdgeId e : artifact.edges) h = fold(h, static_cast<std::uint64_t>(e));
  for (VertexId v : artifact.vertices)
    h = fold(h, static_cast<std::uint64_t>(v));
  core.checksum = h;
  return wall_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  const std::vector<int> thread_counts =
      parse_threads(argc > 2 ? argv[2] : "1,2,4,8");

  // grid n is forced to a square below it by the generator, so ask for the
  // exact squares: 512² for the mid point, 1024² for the ≥1M point.
  const std::vector<Workload> workloads = {
      {"bfs", "grid", 262144, run_bfs_workload},
      {"bfs", "grid", 1048576, run_bfs_workload},
      {"doubling_spanner", "er", 1024, run_spanner_workload},
  };

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\"benchmark\":\"parallel\",\"hardware_threads\":%u,",
               std::thread::hardware_concurrency());
  std::fprintf(out, "\"thread_counts\":[");
  for (size_t i = 0; i < thread_counts.size(); ++i)
    std::fprintf(out, "%s%d", i == 0 ? "" : ",", thread_counts[i]);
  std::fprintf(out, "],\"runs\":[\n");

  int mismatches = 0;
  bool first = true;
  for (const Workload& w : workloads) {
    api::ScenarioSpec scenario;
    scenario.family = w.topology;
    scenario.n = w.n;
    scenario.seed = 1;
    WeightedGraph g;
    try {
      g = api::materialize(scenario);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot materialize %s n=%d: %s\n",
                   w.topology.c_str(), w.n, e.what());
      return 1;
    }
    RunCore serial_core;
    bool have_serial = false;
    for (const int threads : thread_counts) {
      RunCore core;
      const double wall_ms = w.run(g, threads, core);
      if (threads == 1) {
        serial_core = core;
        have_serial = true;
      } else if (have_serial && !(core == serial_core)) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s/%s n=%d threads=%d differs "
                     "from serial (messages %llu vs %llu, checksum %llx vs "
                     "%llx)\n",
                     w.name.c_str(), w.topology.c_str(), w.n, threads,
                     static_cast<unsigned long long>(core.messages),
                     static_cast<unsigned long long>(serial_core.messages),
                     static_cast<unsigned long long>(core.checksum),
                     static_cast<unsigned long long>(serial_core.checksum));
        ++mismatches;
      }
      if (!first) std::fprintf(out, ",\n");
      first = false;
      std::fprintf(out,
                   "{\"workload\":\"%s\",\"topology\":\"%s\",\"n\":%d,"
                   "\"vertices\":%d,\"edges\":%d,\"threads\":%d,"
                   "\"wall_ms\":%s,\"rounds\":%llu,\"messages\":%llu,"
                   "\"words\":%llu,\"max_edge_load\":%llu,"
                   "\"checksum\":\"%016llx\"}",
                   w.name.c_str(), w.topology.c_str(), w.n, g.num_vertices(),
                   g.num_edges(), threads, api::json_number(wall_ms).c_str(),
                   static_cast<unsigned long long>(core.rounds),
                   static_cast<unsigned long long>(core.messages),
                   static_cast<unsigned long long>(core.words),
                   static_cast<unsigned long long>(core.max_edge_load),
                   static_cast<unsigned long long>(core.checksum));
      std::fprintf(stderr, "%-16s %-5s n=%-8d threads=%-2d %9.1f ms\n",
                   w.name.c_str(), w.topology.c_str(), w.n, threads, wall_ms);
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path);
  if (mismatches > 0) {
    std::fprintf(stderr, "%d determinism violation(s)\n", mismatches);
    return 1;
  }
  return 0;
}

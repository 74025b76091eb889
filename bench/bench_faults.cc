// Fault-sweep harness: constructions × drop rates under the deterministic
// fault-injection layer.
//
// A standalone driver, like every bench/bench_*.cc (the fault-free
// per-construction costs live in BENCH_table1.json, which bench/table1.py
// builds from lightnet_cli records): for every construction in the sweep it
// runs the graceful run_with_outcome path at each drop rate over several
// fault seeds, and
// writes BENCH_FAULTS.json — per-run records plus per-(construction, drop)
// curves of success rate and round/message overhead relative to the
// fault-free baseline. The file is committed at the repo root: every value
// in it is a pure function of the seeds (wall time is deliberately NOT
// recorded), so regenerating it on any machine reproduces it byte for byte.
//
//   ./bench_faults [output.json] [n]
//
// The driver exits nonzero if any run escapes the graceful path (an
// exception run_with_outcome failed to absorb) — the "no crashes under
// faults" gate CI runs.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "api/validate.h"

using namespace lightnet;

namespace {

struct FaultRecord {
  std::string construction;
  double drop = 0.0;
  std::uint64_t fault_seed = 0;
  api::RunOutcome outcome = api::RunOutcome::kAborted;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_FAULTS.json";
  int n = 96;
  if (argc > 1) out_path = argv[1];
  if (argc > 2) n = std::atoi(argv[2]);
  if (n <= 0) {
    std::fprintf(stderr, "invalid n\n");
    return 1;
  }

  // The sweep: the retransmit-aware tree construction plus a spread of
  // plain (fault-oblivious) constructions whose degradation curves are the
  // experiment — a net, a spanner with local decisions (baswana_sen), and
  // the paper's doubling pipeline.
  const std::vector<std::string> constructions = {
      "bfs_tree", "net", "baswana_sen", "doubling_spanner", "slt"};
  const std::vector<double> drops = {0.0, 0.01, 0.05, 0.10};
  const std::vector<std::uint64_t> fault_seeds = {1, 2, 3};

  api::ScenarioSpec scenario;
  scenario.family = "er";
  scenario.n = n;
  scenario.seed = 1;
  const WeightedGraph g = api::materialize(scenario);

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\"benchmark\":\"faults\",\"topology\":\"er\",\"n\":%d,"
               "\"runs\":[\n",
               n);

  std::vector<FaultRecord> records;
  int escaped = 0;
  bool first = true;
  for (const std::string& name : constructions) {
    const api::Construction* c = api::find_construction(name);
    if (c == nullptr) {
      std::fprintf(stderr, "unknown construction %s\n", name.c_str());
      return 1;
    }
    for (double drop : drops) {
      for (std::uint64_t fseed : fault_seeds) {
        api::RunContext ctx;
        ctx.seed = 1;
        ctx.sched.fault.seed = fseed;
        ctx.sched.fault.drop = drop;
        FaultRecord rec;
        rec.construction = name;
        rec.drop = drop;
        rec.fault_seed = fseed;
        try {
          const api::OutcomeRun run =
              api::run_with_outcome(*c, g, api::ConstructionParams{}, ctx);
          const congest::CostStats& total = run.artifact.ledger.total();
          rec.outcome = run.validation.outcome;
          rec.rounds = total.rounds;
          rec.messages = total.messages;
          if (!first) std::fprintf(out, ",\n");
          first = false;
          std::fprintf(
              out,
              "{\"construction\":\"%s\",\"drop\":%s,\"fault_seed\":%llu,"
              "\"outcome\":\"%s\",\"failures\":%zu,\"rounds\":%llu,"
              "\"messages\":%llu,\"dropped\":%llu,\"retransmitted\":%llu,"
              "\"rounds_lost\":%llu,\"output_edges\":%zu,"
              "\"output_vertices\":%zu}",
              name.c_str(), api::json_number(drop).c_str(),
              static_cast<unsigned long long>(fseed),
              api::outcome_name(rec.outcome), run.validation.failures.size(),
              static_cast<unsigned long long>(total.rounds),
              static_cast<unsigned long long>(total.messages),
              static_cast<unsigned long long>(total.dropped),
              static_cast<unsigned long long>(total.retransmitted),
              static_cast<unsigned long long>(total.rounds_lost),
              run.artifact.edges.size(), run.artifact.vertices.size());
          std::fprintf(stderr, "%-18s drop=%.2f seed=%llu %s\n", name.c_str(),
                       drop, static_cast<unsigned long long>(fseed),
                       api::outcome_name(rec.outcome));
        } catch (const std::exception& e) {
          // run_with_outcome absorbs construction exceptions; reaching here
          // means the graceful path itself broke — the gate this bench
          // exists to catch.
          ++escaped;
          std::fprintf(stderr, "%-18s drop=%.2f seed=%llu ESCAPED: %s\n",
                       name.c_str(), drop,
                       static_cast<unsigned long long>(fseed), e.what());
        }
        records.push_back(rec);
      }
    }
  }
  std::fprintf(out, "\n],\"curves\":[\n");

  // Per-(construction, drop) curves: success rate over the fault seeds and
  // mean round/message overhead vs the same construction's drop=0 mean.
  bool first_curve = true;
  for (const std::string& name : constructions) {
    double base_rounds = 0.0, base_messages = 0.0;
    int base_count = 0;
    for (const FaultRecord& r : records)
      if (r.construction == name && r.drop == 0.0) {
        base_rounds += static_cast<double>(r.rounds);
        base_messages += static_cast<double>(r.messages);
        ++base_count;
      }
    if (base_count > 0) {
      base_rounds /= base_count;
      base_messages /= base_count;
    }
    for (double drop : drops) {
      int completed = 0, total_runs = 0;
      double rounds = 0.0, messages = 0.0;
      for (const FaultRecord& r : records)
        if (r.construction == name && r.drop == drop) {
          ++total_runs;
          if (r.outcome == api::RunOutcome::kCompleted) ++completed;
          rounds += static_cast<double>(r.rounds);
          messages += static_cast<double>(r.messages);
        }
      if (total_runs == 0) continue;
      rounds /= total_runs;
      messages /= total_runs;
      const double success =
          static_cast<double>(completed) / static_cast<double>(total_runs);
      const double round_overhead =
          base_rounds > 0.0 ? rounds / base_rounds : 0.0;
      const double message_overhead =
          base_messages > 0.0 ? messages / base_messages : 0.0;
      if (!first_curve) std::fprintf(out, ",\n");
      first_curve = false;
      std::fprintf(out,
                   "{\"construction\":\"%s\",\"drop\":%s,"
                   "\"success_rate\":%s,\"round_overhead\":%s,"
                   "\"message_overhead\":%s}",
                   name.c_str(), api::json_number(drop).c_str(),
                   api::json_number(success).c_str(),
                   api::json_number(round_overhead).c_str(),
                   api::json_number(message_overhead).c_str());
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path);

  if (escaped > 0) {
    std::fprintf(stderr, "%d run(s) escaped the graceful path\n", escaped);
    return 1;
  }
  return 0;
}

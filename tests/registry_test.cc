// Registry contract tests: every registered construction
//  (1) runs on a small ER graph and a path graph producing a sane Artifact,
//  (2) is bit-deterministic across two runs with the same seed,
//  (3) produces the identical ledger under full_sweep and active-set
//      scheduling (the model costs; inbox_reallocs is simulator
//      instrumentation and exempt, matching scheduler_fast_path_test),
//  (4) produces the same artifact and ledger at threads 2/4/8 as serially,
//      fault-free and under a fault plan.
#include <gtest/gtest.h>

#include <cmath>

#include "api/registry.h"
#include "api/scenario.h"
#include "api/validate.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

using api::Artifact;
using api::ArtifactKind;
using api::Construction;
using api::ConstructionParams;
using api::RunContext;

std::vector<testing::NamedGraph> registry_graphs() {
  std::vector<testing::NamedGraph> graphs;
  graphs.push_back(
      {"er24", erdos_renyi(24, 0.25, WeightLaw::kUniform, 20.0, 17)});
  graphs.push_back({"path16", path_graph(16, WeightLaw::kUniform, 10.0, 11)});
  return graphs;
}

void expect_same_ledger(const congest::RoundLedger& a,
                        const congest::RoundLedger& b,
                        const std::string& context) {
  ASSERT_EQ(a.phases().size(), b.phases().size()) << context;
  for (size_t i = 0; i < a.phases().size(); ++i) {
    const auto& [name_a, cost_a] = a.phases()[i];
    const auto& [name_b, cost_b] = b.phases()[i];
    EXPECT_EQ(name_a, name_b) << context << " phase " << i;
    EXPECT_EQ(cost_a.rounds, cost_b.rounds) << context << " " << name_a;
    EXPECT_EQ(cost_a.messages, cost_b.messages) << context << " " << name_a;
    EXPECT_EQ(cost_a.words, cost_b.words) << context << " " << name_a;
    EXPECT_EQ(cost_a.max_edge_load, cost_b.max_edge_load)
        << context << " " << name_a;
  }
}

void expect_same_artifact(const Artifact& a, const Artifact& b,
                          const std::string& context) {
  EXPECT_EQ(a.edges, b.edges) << context;
  EXPECT_EQ(a.vertices, b.vertices) << context;
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size()) << context;
  for (size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].first, b.diagnostics[i].first) << context;
    EXPECT_EQ(a.diagnostics[i].second, b.diagnostics[i].second)
        << context << " " << a.diagnostics[i].first;
  }
  expect_same_ledger(a.ledger, b.ledger, context);
}

TEST(Registry, CoversAllConstructions) {
  const auto& all = api::all_constructions();
  EXPECT_EQ(all.size(), 12u);
  for (const char* name :
       {"slt", "slt_light", "light_spanner", "doubling_spanner", "net",
        "mst_weight_estimate", "baswana_sen", "elkin_neiman", "bfs_tree",
        "greedy_spanner", "kry_slt", "sequential_net"})
    EXPECT_NE(api::find_construction(name), nullptr) << name;
  EXPECT_EQ(api::find_construction("nope"), nullptr);
}

TEST(Registry, EveryConstructionProducesASaneArtifact) {
  for (const auto& [gname, g] : registry_graphs()) {
    for (const Construction* c : api::all_constructions()) {
      const std::string context = gname + "/" + std::string(c->name());
      RunContext ctx;
      ctx.seed = 7;
      const Artifact a = c->run(g, ConstructionParams{}, ctx);
      switch (c->kind()) {
        case ArtifactKind::kTree:
          // A spanning tree: exactly n-1 edges of g.
          EXPECT_EQ(a.edges.size(),
                    static_cast<size_t>(g.num_vertices()) - 1)
              << context;
          break;
        case ArtifactKind::kSpanner:
          EXPECT_GE(a.edges.size(),
                    static_cast<size_t>(g.num_vertices()) - 1)
              << context;
          break;
        case ArtifactKind::kNet:
          EXPECT_FALSE(a.vertices.empty()) << context;
          EXPECT_LE(a.vertices.size(),
                    static_cast<size_t>(g.num_vertices()))
              << context;
          break;
        case ArtifactKind::kEstimate:
          EXPECT_GE(api::diagnostic_or(a.diagnostics, "ratio", 0.0),
                    1.0 - 1e-9)
              << context;
          break;
      }
      for (EdgeId id : a.edges) {
        EXPECT_GE(id, 0) << context;
        EXPECT_LT(id, g.num_edges()) << context;
      }
      for (const auto& [key, value] : a.diagnostics)
        EXPECT_TRUE(std::isfinite(value)) << context << " " << key;
    }
  }
}

TEST(Registry, BitDeterministicAcrossRunsWithTheSameSeed) {
  for (const auto& [gname, g] : registry_graphs()) {
    for (const Construction* c : api::all_constructions()) {
      RunContext ctx;
      ctx.seed = 42;
      const Artifact first = c->run(g, ConstructionParams{}, ctx);
      const Artifact second = c->run(g, ConstructionParams{}, ctx);
      expect_same_artifact(first, second,
                           gname + "/" + std::string(c->name()));
    }
  }
}

TEST(Registry, DoublingSpannerDeterministicThroughBatchedFastPath) {
  // The batched exploration fast path must keep doubling_spanner artifacts
  // bit-deterministic per seed.
  const Construction* c = api::find_construction("doubling_spanner");
  ASSERT_NE(c, nullptr);
  for (const auto& [gname, g] : registry_graphs()) {
    RunContext fast;
    fast.seed = 7;
    const Artifact a = c->run(g, ConstructionParams{}, fast);
    const Artifact b = c->run(g, ConstructionParams{}, fast);
    expect_same_artifact(a, b, gname + "/doubling_spanner/rerun");
  }
}

TEST(Registry, SeedChangesRandomizedConstructions) {
  // Not a guarantee for every graph, but on er24 the randomized net should
  // differ between far-apart seeds; catching a construction that silently
  // ignores its RunContext seed.
  const WeightedGraph g =
      erdos_renyi(24, 0.25, WeightLaw::kUniform, 20.0, 17);
  const Construction* net = api::find_construction("net");
  ASSERT_NE(net, nullptr);
  RunContext a, b;
  a.seed = 1;
  b.seed = 999;
  const Artifact first = net->run(g, ConstructionParams{}, a);
  const Artifact second = net->run(g, ConstructionParams{}, b);
  EXPECT_NE(first.vertices, second.vertices);
}

TEST(Registry, FullSweepAndActiveSetLedgersAreIdentical) {
  for (const auto& [gname, g] : registry_graphs()) {
    for (const Construction* c : api::all_constructions()) {
      RunContext active;
      active.seed = 5;
      RunContext sweep;
      sweep.seed = 5;
      sweep.sched.full_sweep = true;
      const Artifact a = c->run(g, ConstructionParams{}, active);
      const Artifact b = c->run(g, ConstructionParams{}, sweep);
      expect_same_artifact(a, b, gname + "/" + std::string(c->name()));
    }
  }
}

TEST(Registry, ThreadSweepIsBitIdenticalForEveryConstruction) {
  // The scheduler's parallel determinism contract, enforced registry-wide:
  // every construction run at threads ∈ {2, 4, 8} must produce the same
  // outcome, artifact (edges, vertices, diagnostics) and model-cost ledger
  // as the serial run — including the serialized form, since records and
  // ledgers are what the sweep driver byte-compares. Fault plans run at the
  // requested thread count too: their drops, crashes, restarts and
  // reorders land identically at every count.
  RunContext faulty;
  faulty.sched.fault.seed = 9;
  faulty.sched.fault.drop = 0.05;
  faulty.sched.fault.crash = 0.1;
  faulty.sched.fault.crash_horizon = 8;
  faulty.sched.fault.restart_after = 4;
  faulty.sched.fault.reorder = true;
  for (const RunContext& base : {RunContext{}, faulty}) {
    const bool clean = !base.sched.fault.enabled();
    const RunContext serial = base.with_seed(5);
    for (const auto& [gname, g] : registry_graphs()) {
      for (const Construction* c : api::all_constructions()) {
        const api::OutcomeRun a =
            api::run_with_outcome(*c, g, ConstructionParams{}, serial);
        if (clean) EXPECT_EQ(a.error, "") << gname << "/" << c->name();
        const std::string serial_json = congest::to_json(a.artifact.ledger);
        for (int threads : {2, 4, 8}) {
          const std::string context =
              std::string(clean ? "clean/" : "faulty/") + gname + "/" +
              std::string(c->name()) + "/threads=" + std::to_string(threads);
          const api::OutcomeRun b = api::run_with_outcome(
              *c, g, ConstructionParams{}, serial.with_threads(threads));
          EXPECT_EQ(a.error, b.error) << context;
          EXPECT_EQ(a.validation.outcome, b.validation.outcome) << context;
          EXPECT_EQ(a.validation.failures, b.validation.failures) << context;
          expect_same_artifact(a.artifact, b.artifact, context);
          EXPECT_EQ(serial_json, congest::to_json(b.artifact.ledger))
              << context;
        }
      }
    }
  }
}

TEST(RunContext, ChildSplitsSeedAndKeepsSchedulerMode) {
  RunContext ctx;
  ctx.seed = 10;
  ctx.sched.full_sweep = true;
  const RunContext child = ctx.child(3);
  EXPECT_EQ(child.seed, 10u ^ 3u);
  EXPECT_TRUE(child.sched.full_sweep);
  EXPECT_EQ(ctx.with_seed(99).seed, 99u);
}

}  // namespace
}  // namespace lightnet

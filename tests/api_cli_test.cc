// Driver-layer tests: ScenarioSpec materialization, the stats/diagnostics
// JSON emitters, the shared quality report, and an in-process lightnet_cli
// sweep (spec parsing → JSON-lines records).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/cli.h"
#include "api/report.h"
#include "api/scenario.h"
#include "graph/metrics.h"

namespace lightnet {
namespace {

TEST(Scenario, EveryFamilyMaterializesConnected) {
  for (const std::string& family : api::scenario_families()) {
    api::ScenarioSpec spec;
    spec.family = family;
    spec.n = 20;
    spec.seed = 3;
    const WeightedGraph g = api::materialize(spec);
    EXPECT_GE(g.num_vertices(), 2) << family;
    EXPECT_TRUE(g.is_connected()) << family;
  }
}

TEST(Scenario, SameSpecSameGraph) {
  api::ScenarioSpec spec;
  spec.family = "er";
  spec.n = 30;
  spec.seed = 9;
  const WeightedGraph a = api::materialize(spec);
  const WeightedGraph b = api::materialize(spec);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId id = 0; id < a.num_edges(); ++id) {
    EXPECT_EQ(a.edge(id).u, b.edge(id).u);
    EXPECT_EQ(a.edge(id).v, b.edge(id).v);
    EXPECT_EQ(a.edge(id).w, b.edge(id).w);
  }
}

TEST(Scenario, UnknownFamilyThrows) {
  api::ScenarioSpec spec;
  spec.family = "hypercube";
  EXPECT_THROW(api::materialize(spec), std::invalid_argument);
}

TEST(Scenario, WeightLawRoundTrip) {
  for (WeightLaw law :
       {WeightLaw::kUnit, WeightLaw::kUniform, WeightLaw::kHeavyTail,
        WeightLaw::kExponentialScales}) {
    WeightLaw parsed;
    ASSERT_TRUE(api::parse_weight_law(api::law_name(law), &parsed));
    EXPECT_EQ(parsed, law);
  }
  WeightLaw parsed;
  EXPECT_FALSE(api::parse_weight_law("gaussian", &parsed));
}

TEST(StatsJson, CostAndLedgerSerialize) {
  congest::CostStats cost;
  cost.rounds = 3;
  cost.messages = 14;
  cost.words = 28;
  cost.max_edge_load = 1;
  EXPECT_EQ(congest::to_json(cost),
            "{\"rounds\":3,\"messages\":14,\"words\":28,"
            "\"max_edge_load\":1}");

  congest::RoundLedger ledger;
  ledger.add("phase-a", cost);
  ledger.add("phase-b", cost);
  const std::string json = congest::to_json(ledger);
  EXPECT_NE(json.find("\"total\":{\"rounds\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"phase-a\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"phase-b\""), std::string::npos) << json;
}

TEST(StatsJson, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(congest::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(congest::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Report, TreeMetricsMatchDirectComputation) {
  api::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 20;
  const WeightedGraph g = api::materialize(spec);
  const api::Construction* slt = api::find_construction("slt");
  ASSERT_NE(slt, nullptr);
  const api::Artifact a =
      slt->run(g, api::ConstructionParams{}, api::RunContext{});
  const api::QualityReport r =
      api::evaluate_artifact(g, api::ArtifactKind::kTree, a);
  EXPECT_DOUBLE_EQ(r.value_or("root_stretch", -1.0),
                   root_stretch(g, a.edges, 0));
  EXPECT_DOUBLE_EQ(r.value_or("lightness", -1.0), lightness(g, a.edges));
  EXPECT_DOUBLE_EQ(r.value_or("edges", -1.0),
                   static_cast<double>(a.edges.size()));
}

std::vector<std::string> run_cli_lines(const std::vector<std::string>& args,
                                       int* exit_code) {
  std::FILE* out = std::tmpfile();
  std::FILE* err = std::tmpfile();
  *exit_code = api::run_cli(args, out, err);
  std::rewind(out);
  std::vector<std::string> lines;
  std::string current;
  int c;
  while ((c = std::fgetc(out)) != EOF) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  std::fclose(out);
  std::fclose(err);
  return lines;
}

TEST(Cli, SweepEmitsOneRecordPerCombination) {
  int exit_code = -1;
  const auto lines = run_cli_lines(
      {"construction=slt,greedy_spanner", "topology=path,star", "n=12,16",
       "seed=1", "quality=0"},
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  // 2 constructions × 2 topologies × 2 sizes × 1 seed.
  ASSERT_EQ(lines.size(), 8u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"cost\":{\"total\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"diagnostics\":{"), std::string::npos) << line;
  }
}

TEST(Cli, QualityMetricsIncludedByDefault) {
  int exit_code = -1;
  const auto lines = run_cli_lines(
      {"construction=kry_slt", "topology=path", "n=12", "seed=4"},
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(lines[0].find("\"root_stretch\""), std::string::npos);
}

TEST(Cli, BadScenarioEmitsErrorRecordInsteadOfCrashing) {
  int exit_code = -1;
  const auto lines = run_cli_lines(
      {"construction=kry_slt", "topology=path,star", "n=1,12", "quality=0"},
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  // n=1 fails per topology (2 error records); n=12 runs (2 records).
  ASSERT_EQ(lines.size(), 4u);
  int errors = 0;
  for (const std::string& line : lines)
    if (line.find("\"error\":") != std::string::npos) ++errors;
  EXPECT_EQ(errors, 2);
}

TEST(Cli, InertWeightLawsAreNotSwept) {
  // grid ignores WeightLaw: a two-law sweep must emit one record, tagged
  // law=n/a; path consumes it and emits one per law.
  int exit_code = -1;
  const auto grid_lines = run_cli_lines(
      {"construction=kry_slt", "topology=grid", "law=uniform,heavy_tail",
       "n=12", "quality=0"},
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  ASSERT_EQ(grid_lines.size(), 1u);
  EXPECT_NE(grid_lines[0].find("\"law\":\"n/a\""), std::string::npos);

  const auto path_lines = run_cli_lines(
      {"construction=kry_slt", "topology=path", "law=uniform,heavy_tail",
       "n=12", "quality=0"},
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  ASSERT_EQ(path_lines.size(), 2u);
  EXPECT_NE(path_lines[0].find("\"law\":\"uniform\""), std::string::npos);
  EXPECT_NE(path_lines[1].find("\"law\":\"heavy_tail\""), std::string::npos);
}

TEST(Scenario, FamilyUsesWeightLaw) {
  EXPECT_TRUE(api::family_uses_weight_law("er"));
  EXPECT_TRUE(api::family_uses_weight_law("path"));
  EXPECT_FALSE(api::family_uses_weight_law("geo"));
  EXPECT_FALSE(api::family_uses_weight_law("grid"));
  EXPECT_FALSE(api::family_uses_weight_law("clique"));
}

TEST(Cli, RejectsUnknownConstructionAndKey) {
  int exit_code = -1;
  run_cli_lines({"construction=warp_drive"}, &exit_code);
  EXPECT_EQ(exit_code, 1);
  run_cli_lines({"flux=3"}, &exit_code);
  EXPECT_EQ(exit_code, 1);
  run_cli_lines({"topology=moebius"}, &exit_code);
  EXPECT_EQ(exit_code, 1);
}

TEST(Cli, HelpListsEveryAxis) {
  int exit_code = -1;
  const auto lines = run_cli_lines({"--help"}, &exit_code);
  EXPECT_EQ(exit_code, 0);
  std::string all;
  for (const std::string& line : lines) all += line + "\n";
  EXPECT_NE(all.find("usage: lightnet_cli"), std::string::npos);
  for (const char* axis : {"construction=", "topology=", "n=", "seed=",
                           "law=", "threads=", "max_rounds=", "fault.drop=",
                           "fault.crash=", "scenario=", "quality=", "wall="})
    EXPECT_NE(all.find(axis), std::string::npos) << axis;
}

TEST(Cli, StrictValueParsingRejectsTrailingGarbage) {
  // Every unrecognized or half-parsed value is a hard error with a usage
  // hint, never a silent atoi truncation. Non-finite numbers are rejected
  // too (records print them as null), and so are a negative net or geo
  // radius and the removed hopset mode.
  for (const char* bad : {"n=12x", "seed=3.5", "threads=two", "quality=yes",
                          "fault.drop=0.1%", "max_rounds=-1", "n=",
                          "eps=nan", "radius=inf", "radius=-1",
                          "fault.drop=nan", "max_weight=-inf",
                          "geo_radius=-1", "hopset=1"}) {
    int exit_code = -1;
    run_cli_lines({"construction=slt", "topology=path", bad}, &exit_code);
    EXPECT_EQ(exit_code, 1) << bad;
  }
}

// The unsigned parser behind the seed axes and lightnetd's size flags.
TEST(Cli, U64ParserRejectsSignsOverflowAndTrailingCharacters) {
  std::uint64_t out = 7;
  for (const char* bad : {"", "-1", "-0", "12x", "1 ", "0x10",
                          "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(api::parse_u64_strict(bad, &out)) << bad;
    EXPECT_EQ(out, 7u) << bad;
  }
  ASSERT_TRUE(api::parse_u64_strict("18446744073709551615", &out));
  EXPECT_EQ(out, 18446744073709551615ull);
  ASSERT_TRUE(api::parse_u64_strict("0", &out));
  EXPECT_EQ(out, 0u);
}

TEST(Cli, HopsetZeroStillParsesAsTheDefault) {
  // The removed mode's key keeps accepting its old default, which leaves
  // the record unchanged.
  int with_code = -1;
  int without_code = -1;
  const auto with = run_cli_lines({"construction=doubling_spanner",
                                   "topology=path", "n=12", "hopset=0",
                                   "wall=0"},
                                  &with_code);
  const auto without = run_cli_lines(
      {"construction=doubling_spanner", "topology=path", "n=12", "wall=0"},
      &without_code);
  EXPECT_EQ(with_code, 0);
  EXPECT_EQ(without_code, 0);
  ASSERT_EQ(with.size(), 1u);
  EXPECT_EQ(with, without);
}

TEST(Cli, MaxRoundsAxisAbortsGracefully) {
  int exit_code = -1;
  const auto lines = run_cli_lines(
      {"construction=bfs_tree", "topology=path", "n=64", "seed=1",
       "quality=0", "max_rounds=5", "wall=0"},
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"max_rounds\":5"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"outcome\":\"aborted\""), std::string::npos)
      << lines[0];
}

TEST(Cli, BfsTreeThatReachesNoVertexIsDegraded) {
  // Every vertex, the root included, crashes for good in round 0: the tree
  // is empty, and the record says so instead of aborting.
  int exit_code = -1;
  const auto lines = run_cli_lines(
      {"construction=bfs_tree", "topology=er", "n=64", "fault.crash=1",
       "fault.crash_horizon=1", "fault.seed=1", "wall=0"},
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"outcome\":\"degraded\",\"failures\":[]"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"tree_edges\":0"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"reached\":0"), std::string::npos) << lines[0];
}

TEST(Cli, ListModePrintsRegistry) {
  int exit_code = -1;
  const auto lines = run_cli_lines({"list"}, &exit_code);
  EXPECT_EQ(exit_code, 0);
  bool saw_slt = false, saw_er = false;
  for (const std::string& line : lines) {
    saw_slt = saw_slt || line.find("slt") != std::string::npos;
    saw_er = saw_er || line.find("  er") != std::string::npos;
  }
  EXPECT_TRUE(saw_slt);
  EXPECT_TRUE(saw_er);
}

}  // namespace
}  // namespace lightnet

// Construction interface + static registry.
//
// Every algorithm the repo implements — the paper's theorems and the
// sequential baselines they are benchmarked against — is registered here
// under a stable name, adapted onto the uniform
//     Artifact run(graph, ConstructionParams, RunContext)
// shape. Drivers (lightnet_cli), benches, examples, and tests enumerate the
// registry instead of hard-coding call sites, so a new algorithm becomes
// sweepable everywhere by adding one adapter.
//
// Registered names:
//   slt, slt_light, light_spanner, doubling_spanner, net,
//   mst_weight_estimate, baswana_sen, elkin_neiman,
//   bfs_tree                                              (core)
//   greedy_spanner, kry_slt, sequential_net               (baselines)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/artifact.h"
#include "api/run_context.h"
#include "graph/graph.h"

namespace lightnet::api {

// What the edges/vertices of an Artifact mean; drives which quality metrics
// the shared report helper computes.
enum class ArtifactKind {
  kTree,      // spanning tree rooted at params.root (root stretch metrics)
  kSpanner,   // spanning subgraph (pairwise stretch metrics)
  kNet,       // vertex set (covering / separation check)
  kEstimate,  // scalar estimate; quality lives in the diagnostics
};

const char* kind_name(ArtifactKind kind);

// The uniform knob set a driver can populate from a spec string. Each
// construction reads the knobs it understands and ignores the rest; the
// defaults reproduce the quickstart configuration.
struct ConstructionParams {
  double epsilon = 0.25;    // slt / light_spanner / doubling_spanner
  double gamma = 0.25;      // slt_light: lightness 1+γ
  double alpha = 2.0;       // kry_slt: root-stretch budget
  int k = 2;                // light_spanner / baswana_sen / elkin_neiman /
                            // greedy_spanner (stretch 2k-1)
  double radius = 0.0;      // net / sequential_net: Δ; 0 = auto-scale to
                            // 4·w(MST)/n (four average MST edges) so every
                            // topology and weight law yields a non-trivial
                            // net
  double delta = 0.5;       // net / mst_weight_estimate: approximation slack
  VertexId root = 0;        // tree constructions
  bool use_hopset = false;  // always false: doubling_spanner rejects true
};

class Construction {
 public:
  virtual ~Construction() = default;
  virtual std::string_view name() const = 0;
  virtual ArtifactKind kind() const = 0;
  // One-line description for --help style listings.
  virtual std::string_view summary() const = 0;
  // Runs the construction; deterministic in (g, params, ctx.seed), and the
  // artifact (edges/vertices/ledger/diagnostics) is identical under every
  // ctx.sched mode.
  virtual Artifact run(const WeightedGraph& g, const ConstructionParams& params,
                       const RunContext& ctx) const = 0;
};

// Registration order (stable): core constructions first, then baselines.
const std::vector<const Construction*>& all_constructions();

// nullptr if unknown.
const Construction* find_construction(std::string_view name);

// The effective net radius for `params` on `g` (the auto-scale rule above);
// exposed so reports can state which Δ a run actually used.
double net_radius_for(const WeightedGraph& g, const ConstructionParams& params);

}  // namespace lightnet::api

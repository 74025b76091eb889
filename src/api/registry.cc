#include "api/registry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "baseline/greedy_spanner.h"
#include "congest/bfs.h"
#include "baseline/kry_slt.h"
#include "baseline/sequential_net.h"
#include "core/baswana_sen.h"
#include "core/doubling_spanner.h"
#include "core/elkin_neiman.h"
#include "core/light_spanner.h"
#include "core/mst_weight_estimator.h"
#include "core/nets.h"
#include "core/slt.h"
#include "graph/mst.h"
#include "support/assert.h"
#include "support/rng.h"

namespace lightnet::api {

namespace {

void push(Diagnostics& d, const char* key, double value) {
  d.emplace_back(key, value);
}

Diagnostics slt_diagnostics(const SltDiagnostics& diag, VertexId root) {
  Diagnostics d;
  push(d, "root", root);
  push(d, "bp_prime_count", static_cast<double>(diag.bp_prime_count));
  push(d, "bp1_count", static_cast<double>(diag.bp1_count));
  push(d, "bp2_count", static_cast<double>(diag.bp2_count));
  push(d, "abp_count", static_cast<double>(diag.abp_count));
  push(d, "h_weight", diag.h_weight);
  push(d, "mst_weight", diag.mst_weight);
  return d;
}

// ---------------------------------------------------------------- core

class SltConstruction final : public Construction {
 public:
  std::string_view name() const override { return "slt"; }
  ArtifactKind kind() const override { return ArtifactKind::kTree; }
  std::string_view summary() const override {
    return "shallow-light tree (Theorem 1): root stretch (1+eps)(1+25eps), "
           "lightness 1+4/eps";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    SltResult r = build_slt(g, p.root, p.epsilon, ctx);
    Artifact a;
    a.edges = std::move(r.tree_edges);
    a.ledger = std::move(r.ledger);
    a.diagnostics = slt_diagnostics(r.diag, p.root);
    push(a.diagnostics, "bound_root_stretch",
         (1.0 + p.epsilon) * (1.0 + 25.0 * p.epsilon));
    push(a.diagnostics, "bound_lightness", 1.0 + 4.0 / p.epsilon);
    return a;
  }
};

class SltLightConstruction final : public Construction {
 public:
  std::string_view name() const override { return "slt_light"; }
  ArtifactKind kind() const override { return ArtifactKind::kTree; }
  std::string_view summary() const override {
    return "BFN16-reduced SLT (Lemma 5): lightness 1+gamma, root stretch "
           "O(1/gamma)";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    SltResult r = build_slt_light(g, p.root, p.gamma, ctx);
    Artifact a;
    a.edges = std::move(r.tree_edges);
    a.ledger = std::move(r.ledger);
    a.diagnostics = slt_diagnostics(r.diag, p.root);
    // Instantiation in slt.cc: base distortion t = 52, lightness constant
    // c = 5, δ = γ/c — distortion t/δ = 260/γ — times the final SPT pass's
    // (1+1/4).
    push(a.diagnostics, "bound_root_stretch", 1.25 * 260.0 / p.gamma);
    push(a.diagnostics, "bound_lightness", 1.0 + p.gamma);
    return a;
  }
};

class LightSpannerConstruction final : public Construction {
 public:
  std::string_view name() const override { return "light_spanner"; }
  ArtifactKind kind() const override { return ArtifactKind::kSpanner; }
  std::string_view summary() const override {
    return "light spanner for general graphs (Theorem 2): stretch "
           "(2k-1)(1+eps), lightness O(k n^{1/k})";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    LightSpannerParams params;
    params.k = p.k;
    params.epsilon = p.epsilon;
    LightSpannerResult r = build_light_spanner(g, params, ctx);
    Artifact a;
    a.edges = std::move(r.spanner);
    a.ledger = std::move(r.ledger);
    double retries = 0.0, case1 = 0.0, max_interval = 0.0;
    for (const BucketDiagnostics& b : r.buckets) {
      retries += b.retries;
      case1 += b.case1 ? 1.0 : 0.0;
      max_interval = std::max(max_interval,
                              static_cast<double>(b.max_interval_hops));
    }
    push(a.diagnostics, "buckets", static_cast<double>(r.buckets.size()));
    push(a.diagnostics, "case1_buckets", case1);
    push(a.diagnostics, "bucket_retries", retries);
    push(a.diagnostics, "max_interval_hops", max_interval);
    push(a.diagnostics, "low_bucket_edges",
         static_cast<double>(r.low_bucket_edges));
    push(a.diagnostics, "mst_edge_count",
         static_cast<double>(r.mst_edge_count));
    push(a.diagnostics, "bound_stretch",
         (2.0 * p.k - 1.0) * (1.0 + p.epsilon));
    push(a.diagnostics, "bound_lightness_band",
         p.k * std::pow(static_cast<double>(g.num_vertices()),
                        1.0 / static_cast<double>(p.k)));
    return a;
  }
};

class DoublingSpannerConstruction final : public Construction {
 public:
  std::string_view name() const override { return "doubling_spanner"; }
  ArtifactKind kind() const override { return ArtifactKind::kSpanner; }
  std::string_view summary() const override {
    return "light spanner for doubling graphs (Theorem 5): stretch 1+30eps, "
           "lightness eps^{-O(ddim)}";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    DoublingSpannerParams params;
    params.epsilon = p.epsilon;
    params.use_hopset = p.use_hopset;
    DoublingSpannerResult r = build_doubling_spanner(g, params, ctx);
    Artifact a;
    a.edges = std::move(r.spanner);
    a.ledger = std::move(r.ledger);
    double max_net = 0.0, pairs = 0.0, max_sources = 0.0;
    double inherited = 0.0, shell = 0.0, seed_points = 0.0;
    for (const ScaleDiagnostics& s : r.scales) {
      max_net = std::max(max_net, static_cast<double>(s.net_size));
      pairs += static_cast<double>(s.pairs_connected);
      max_sources = std::max(max_sources,
                             static_cast<double>(s.max_sources_per_vertex));
      inherited += static_cast<double>(s.explore_records_inherited);
      shell += static_cast<double>(s.explore_shell_announcements);
      seed_points += static_cast<double>(s.net_seed_points);
    }
    push(a.diagnostics, "scales", static_cast<double>(r.scales.size()));
    push(a.diagnostics, "max_net_size", max_net);
    push(a.diagnostics, "pairs_connected", pairs);
    push(a.diagnostics, "max_sources_per_vertex", max_sources);
    push(a.diagnostics, "explore_records_inherited", inherited);
    push(a.diagnostics, "explore_shell_announcements", shell);
    push(a.diagnostics, "net_seed_points", seed_points);
    // §7.2: stretch 1 + c·ε with c = 30 for ε < 1/8.
    push(a.diagnostics, "bound_stretch", 1.0 + 30.0 * p.epsilon);
    return a;
  }
};

class NetConstruction final : public Construction {
 public:
  std::string_view name() const override { return "net"; }
  ArtifactKind kind() const override { return ArtifactKind::kNet; }
  std::string_view summary() const override {
    return "((1+delta)Delta, Delta/(1+delta))-net (Theorem 3)";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    const double radius = net_radius_for(g, p);
    NetParams params;
    params.radius = radius;
    params.delta = p.delta;
    NetResult r = build_net(g, params, ctx);
    Artifact a;
    a.vertices = std::move(r.net);
    a.ledger = std::move(r.ledger);
    push(a.diagnostics, "net_size", static_cast<double>(a.vertices.size()));
    push(a.diagnostics, "iterations", static_cast<double>(r.iterations));
    push(a.diagnostics, "max_le_list_size",
         static_cast<double>(r.max_le_list_size));
    push(a.diagnostics, "radius", radius);
    // The certificate parameters the report helper feeds into check_net.
    push(a.diagnostics, "net_alpha", (1.0 + p.delta) * radius);
    push(a.diagnostics, "net_beta", radius / (1.0 + p.delta));
    return a;
  }
};

class MstWeightEstimateConstruction final : public Construction {
 public:
  std::string_view name() const override { return "mst_weight_estimate"; }
  ArtifactKind kind() const override { return ArtifactKind::kEstimate; }
  std::string_view summary() const override {
    return "MST-weight estimator from nets across scales (Theorem 7)";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    MstEstimateResult r = estimate_mst_weight(g, p.delta, ctx);
    Artifact a;
    a.ledger = std::move(r.ledger);
    push(a.diagnostics, "psi", r.psi);
    push(a.diagnostics, "exact_mst_weight", r.exact);
    push(a.diagnostics, "ratio", r.ratio);
    push(a.diagnostics, "alpha", r.alpha);
    push(a.diagnostics, "scales", static_cast<double>(r.scales.size()));
    push(a.diagnostics, "bound_ratio_lower", 1.0);
    // The O(α log n) upper bound at the constant the estimator tests use.
    push(a.diagnostics, "bound_ratio_upper",
         16.0 * r.alpha * std::log2(g.num_vertices() + 2.0));
    return a;
  }
};

class BaswanaSenConstruction final : public Construction {
 public:
  std::string_view name() const override { return "baswana_sen"; }
  ArtifactKind kind() const override { return ArtifactKind::kSpanner; }
  std::string_view summary() const override {
    return "Baswana-Sen (2k-1)-spanner [BS07] on the whole edge set";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    const std::vector<char> all_allowed(
        static_cast<size_t>(g.num_edges()), 1);
    BaswanaSenResult r =
        baswana_sen_spanner(g, all_allowed, p.k, ctx.child(0));
    Artifact a;
    a.edges = std::move(r.spanner);
    a.ledger.add("baswana-sen", r.cost);
    push(a.diagnostics, "bound_stretch", 2.0 * p.k - 1.0);
    return a;
  }
};

class ElkinNeimanConstruction final : public Construction {
 public:
  std::string_view name() const override { return "elkin_neiman"; }
  ArtifactKind kind() const override { return ArtifactKind::kSpanner; }
  std::string_view summary() const override {
    return "Elkin-Neiman unweighted (2k-1)-spanner [EN17b] on the graph "
           "itself (hop stretch; weights ignored)";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    // The standalone registration runs EN on the graph's own topology:
    // every vertex is a singleton cluster, every edge represents itself —
    // the degenerate instance of §5's cluster-graph simulation.
    std::vector<std::pair<std::pair<int, int>, EdgeId>> cluster_edges;
    cluster_edges.reserve(static_cast<size_t>(g.num_edges()));
    for (EdgeId id = 0; id < g.num_edges(); ++id)
      cluster_edges.push_back({{g.edge(id).u, g.edge(id).v}, id});
    const ClusterGraph cg =
        ClusterGraph::from_cluster_edges(g.num_vertices(), cluster_edges);
    Rng rng(ctx.seed ^ 0x454eULL);
    ElkinNeimanResult r = elkin_neiman_spanner(cg, p.k, rng);
    Artifact a;
    a.edges = std::move(r.representative_edges);
    // k max-propagation rounds plus the final m-exchange, one message per
    // edge direction per round (the physical-graph instance needs no §5
    // Case 1/2 machinery: clusters are vertices).
    congest::CostStats cost;
    cost.rounds = static_cast<std::uint64_t>(p.k) + 1;
    cost.messages = cost.rounds *
                    static_cast<std::uint64_t>(g.num_edges()) * 2;
    cost.words = cost.messages;
    cost.max_edge_load = 1;
    a.ledger.add("en-propagation", cost);
    push(a.diagnostics, "resample_count",
         static_cast<double>(r.resample_count));
    push(a.diagnostics, "bound_hop_stretch", 2.0 * p.k - 1.0);
    return a;
  }
};

class BfsTreeConstruction final : public Construction {
 public:
  std::string_view name() const override { return "bfs_tree"; }
  ArtifactKind kind() const override { return ArtifactKind::kTree; }
  std::string_view summary() const override {
    return "BFS tree (the tree tau of §2); retransmit-aware under an active "
           "fault plan";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    // Under a fault plan the plain flood would silently build a wrong tree
    // (a dropped announcement re-parents a subtree deeper); the reliable
    // fixpoint variant retransmits its way to the identical tree, so the
    // same registry entry serves both worlds.
    const congest::BfsTreeResult r =
        ctx.sched.fault.enabled()
            ? congest::build_bfs_tree_reliable(g, p.root, ctx.sched)
            : congest::build_bfs_tree(g, p.root, ctx.sched);
    // Parent edges are distinct (a tree has no 2-cycles), so an ascending
    // scan of a bitmap over edge ids lists them sorted without a sort.
    std::vector<std::uint64_t> parent_edges(
        (static_cast<size_t>(g.num_edges()) + 63) / 64, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const VertexId parent = r.parent[static_cast<size_t>(v)];
      if (parent == kNoVertex) continue;
      const EdgeId e = g.find_edge(v, parent);
      LN_ASSERT(e != kNoEdge);
      parent_edges[static_cast<size_t>(e) >> 6] |= 1ull << (e & 63);
    }
    Artifact a;
    // A crash can leave even the root unreached (reached == 0).
    a.edges.reserve(static_cast<size_t>(std::max(r.reached, 1)) - 1);
    for (size_t i = 0; i < parent_edges.size(); ++i) {
      for (std::uint64_t bits = parent_edges[i]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        a.edges.push_back(static_cast<EdgeId>(i * 64 + static_cast<size_t>(b)));
      }
    }
    a.ledger.add("bfs-flood", r.cost);
    push(a.diagnostics, "root", p.root);
    push(a.diagnostics, "height", r.height);
    push(a.diagnostics, "reached", r.reached);
    return a;
  }
};

// ------------------------------------------------------------ baselines

class GreedySpannerConstruction final : public Construction {
 public:
  std::string_view name() const override { return "greedy_spanner"; }
  ArtifactKind kind() const override { return ArtifactKind::kSpanner; }
  std::string_view summary() const override {
    return "sequential greedy (2k-1)(1+eps)-spanner [ADD+93] (quality "
           "baseline)";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    (void)ctx;  // deterministic and sequential: no seed, no kernel rounds
    const double t = (2.0 * p.k - 1.0) * (1.0 + p.epsilon);
    Artifact a;
    a.edges = greedy_spanner(g, t);
    push(a.diagnostics, "bound_stretch", t);
    return a;
  }
};

class KrySltConstruction final : public Construction {
 public:
  std::string_view name() const override { return "kry_slt"; }
  ArtifactKind kind() const override { return ArtifactKind::kTree; }
  std::string_view summary() const override {
    return "sequential KRY95 shallow-light tree (quality baseline)";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    (void)ctx;
    KrySltResult r = kry_slt(g, p.root, p.alpha);
    Artifact a;
    a.edges = std::move(r.tree_edges);
    push(a.diagnostics, "root", p.root);
    push(a.diagnostics, "grafted_paths",
         static_cast<double>(r.grafted_paths));
    push(a.diagnostics, "bound_root_stretch", p.alpha);
    push(a.diagnostics, "bound_lightness", 1.0 + 2.0 / (p.alpha - 1.0));
    return a;
  }
};

class SequentialNetConstruction final : public Construction {
 public:
  std::string_view name() const override { return "sequential_net"; }
  ArtifactKind kind() const override { return ArtifactKind::kNet; }
  std::string_view summary() const override {
    return "greedy sequential (beta, beta)-net (the \"inherently "
           "sequential\" baseline of §1.3)";
  }
  Artifact run(const WeightedGraph& g, const ConstructionParams& p,
               const RunContext& ctx) const override {
    (void)ctx;
    const double radius = net_radius_for(g, p);
    Artifact a;
    a.vertices = greedy_net(g, radius);
    push(a.diagnostics, "net_size", static_cast<double>(a.vertices.size()));
    push(a.diagnostics, "radius", radius);
    push(a.diagnostics, "net_alpha", radius);
    push(a.diagnostics, "net_beta", radius);
    return a;
  }
};

}  // namespace

const char* kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kTree:
      return "tree";
    case ArtifactKind::kSpanner:
      return "spanner";
    case ArtifactKind::kNet:
      return "net";
    case ArtifactKind::kEstimate:
      return "estimate";
  }
  return "unknown";
}

double net_radius_for(const WeightedGraph& g,
                      const ConstructionParams& params) {
  if (params.radius > 0.0) return params.radius;
  // Auto-scale: Δ = 4 average MST edges keeps the net non-trivial (neither
  // all of V nor a single point) across generator families and weight laws
  // — w(MST)-proportional rules degenerate under heavy-tailed weights,
  // where a few giant edges dominate the total.
  return std::max(4.0 * mst_weight(g) / g.num_vertices(),
                  g.min_edge_weight() * 0.5);
}

const std::vector<const Construction*>& all_constructions() {
  static const SltConstruction slt;
  static const SltLightConstruction slt_light;
  static const LightSpannerConstruction light_spanner;
  static const DoublingSpannerConstruction doubling_spanner;
  static const NetConstruction net;
  static const MstWeightEstimateConstruction mst_weight_estimate;
  static const BaswanaSenConstruction baswana_sen;
  static const ElkinNeimanConstruction elkin_neiman;
  static const BfsTreeConstruction bfs_tree;
  static const GreedySpannerConstruction greedy;
  static const KrySltConstruction kry;
  static const SequentialNetConstruction seq_net;
  static const std::vector<const Construction*> all = {
      &slt,  &slt_light,           &light_spanner, &doubling_spanner,
      &net,  &mst_weight_estimate, &baswana_sen,   &elkin_neiman,
      &bfs_tree,
      &greedy, &kry,               &seq_net,
  };
  return all;
}

const Construction* find_construction(std::string_view name) {
  for (const Construction* c : all_constructions())
    if (c->name() == name) return c;
  return nullptr;
}

}  // namespace lightnet::api

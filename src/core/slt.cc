#include "core/slt.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "congest/bfs.h"
#include "congest/message.h"
#include "congest/tree_ops.h"
#include "graph/mst.h"
#include "mst/euler_tour.h"
#include "mst/fragment_mst.h"
#include "mst/tour_scan.h"
#include "routines/approx_spt.h"
#include "support/assert.h"

namespace lightnet {

namespace {

using congest::Message;
using congest::TreeItem;

// Approximate SPT restricted to a subgraph (edge ids of g): builds the
// subgraph with an id map, runs the kernel SPT, and maps parent edges back.
struct SubgraphSpt {
  std::vector<EdgeId> tree_edges;  // original ids, n-1 of them
  RootedTree tree;
  congest::CostStats cost;
};

SubgraphSpt approx_spt_on_subgraph(const WeightedGraph& g,
                                   std::span<const EdgeId> subgraph_edges,
                                   VertexId rt, double epsilon,
                                   congest::SchedulerOptions sched) {
  std::vector<Edge> edges;
  edges.reserve(subgraph_edges.size());
  std::vector<EdgeId> to_parent;
  to_parent.reserve(subgraph_edges.size());
  for (EdgeId id : subgraph_edges) {
    edges.push_back(g.edge(id));
    to_parent.push_back(id);
  }
  const WeightedGraph h = WeightedGraph::from_edges(g.num_vertices(),
                                                    std::move(edges));
  ApproxSptResult spt = build_approx_spt(h, rt, epsilon, sched);
  SubgraphSpt out;
  out.cost = spt.cost;
  out.tree_edges.reserve(static_cast<size_t>(g.num_vertices()) - 1);
  std::vector<EdgeId> parent_edge(static_cast<size_t>(g.num_vertices()),
                                  kNoEdge);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == rt) continue;
    const EdgeId sub_edge =
        spt.tree.parent_edge[static_cast<size_t>(v)];
    LN_ASSERT(sub_edge != kNoEdge);
    parent_edge[static_cast<size_t>(v)] =
        to_parent[static_cast<size_t>(sub_edge)];
    out.tree_edges.push_back(parent_edge[static_cast<size_t>(v)]);
  }
  out.tree = RootedTree::from_parents(rt, spt.tree.parent,
                                      std::move(parent_edge),
                                      spt.tree.parent_weight);
  return out;
}

}  // namespace

SltResult build_slt(const WeightedGraph& g, VertexId rt, double epsilon,
                    const api::RunContext& ctx) {
  LN_REQUIRE(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
  LN_REQUIRE(rt >= 0 && rt < g.num_vertices(), "root out of range");
  const int n = g.num_vertices();
  SltResult result;

  // Substrates: BFS tree τ, MST + fragments, Euler tour, approximate SPT.
  const congest::BfsTreeResult bfs = congest::build_bfs_tree(g, rt,
                                                             ctx.sched);
  result.ledger.add("bfs-tree", bfs.cost);
  const DistributedMstResult mst = build_distributed_mst(g, rt);
  result.ledger.absorb(mst.ledger, "mst");
  const EulerTourResult tour = build_euler_tour(g, mst, bfs);
  result.ledger.absorb(tour.ledger, "euler-tour");
  const ApproxSptResult spt = build_approx_spt(g, rt, epsilon, ctx.sched);
  result.ledger.add("approx-spt", spt.cost);

  result.diag.mst_weight = mst.tree.total_weight();

  // ---- Break point selection (§4.1).
  const std::int64_t num_positions = tour.num_positions;
  const std::int64_t alpha = static_cast<std::int64_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));

  // BP' anchors: every alpha-th tour position.
  // BP1: greedy scan inside each interval, anchored at the interval start,
  // run message-level on the kernel — all intervals advance in lockstep,
  // one tour position per round, passing (y, R_y) along tour edges (each
  // directed MST edge appears once in the tour, so the lockstep is
  // strict-CONGEST legal). A sequential replay cross-checks the kernel.
  std::vector<std::int64_t> bp_prime_positions;
  for (std::int64_t start = 0; start < num_positions; start += alpha)
    bp_prime_positions.push_back(start);
  std::vector<Weight> threshold(static_cast<size_t>(num_positions), 0.0);
  for (std::int64_t j = 0; j < num_positions; ++j)
    threshold[static_cast<size_t>(j)] =
        epsilon *
        spt.dist[static_cast<size_t>(tour.sequence[static_cast<size_t>(j)])];
  const TourScanResult scan =
      tour_interval_scan(g, tour, bp_prime_positions, threshold, ctx.sched);
  result.ledger.add("bp1-interval-scan", scan.cost);
  const std::vector<std::int64_t>& bp1_positions = scan.joined;
  {
    // Sequential replay of the greedy rule — a per-run proof-to-code check
    // of the kernel scan.
    std::vector<std::int64_t> replay;
    for (std::int64_t start = 0; start < num_positions; start += alpha) {
      Weight last_r = tour.times[static_cast<size_t>(start)];
      const std::int64_t end = std::min(start + alpha, num_positions);
      for (std::int64_t j = start + 1; j < end; ++j) {
        const Weight rj = tour.times[static_cast<size_t>(j)];
        if (rj - last_r > threshold[static_cast<size_t>(j)]) {
          replay.push_back(j);
          last_r = rj;
        }
      }
    }
    LN_ASSERT_MSG(replay == bp1_positions,
                  "kernel interval scan disagrees with the greedy rule");
  }

  // BP2: gather the anchors (index, R, d_Trt) to rt over τ — the real
  // pipelined convergecast — then a root-local greedy pass, then broadcast.
  std::vector<std::vector<TreeItem>> anchor_items(
      static_cast<size_t>(n));
  for (std::int64_t pos : bp_prime_positions) {
    const VertexId host = tour.sequence[static_cast<size_t>(pos)];
    anchor_items[static_cast<size_t>(host)].push_back(
        {static_cast<std::uint64_t>(pos),
         Message::encode_weight(tour.times[static_cast<size_t>(pos)]),
         Message::encode_weight(spt.dist[static_cast<size_t>(host)])});
  }
  congest::GatherResult gathered = congest::gather_to_root(
      g, bfs, anchor_items, /*dedupe_by_key=*/false, ctx.sched);
  result.ledger.add("bp2-gather-anchors", gathered.cost);
  std::sort(gathered.items.begin(), gathered.items.end(),
            [](const TreeItem& a, const TreeItem& b) { return a.key < b.key; });
  LN_ASSERT(gathered.items.size() == bp_prime_positions.size());

  std::vector<std::int64_t> bp2_positions;
  {
    Weight last_r = 0.0;
    bool first = true;
    for (const TreeItem& item : gathered.items) {
      const Weight r = Message::decode_weight(item.a);
      const Weight dist_rt = Message::decode_weight(item.b);
      if (first) {
        bp2_positions.push_back(static_cast<std::int64_t>(item.key));
        last_r = r;
        first = false;
        continue;
      }
      if (r - last_r > epsilon * dist_rt) {
        bp2_positions.push_back(static_cast<std::int64_t>(item.key));
        last_r = r;
      }
    }
  }
  {
    std::vector<TreeItem> bp2_items;
    bp2_items.reserve(bp2_positions.size());
    for (std::int64_t pos : bp2_positions)
      bp2_items.push_back({static_cast<std::uint64_t>(pos), 0, 0});
    const congest::BroadcastResult bc =
        congest::broadcast_from_root(g, bfs, bp2_items, ctx.sched);
    result.ledger.add("bp2-broadcast", bc.cost);
  }

  result.diag.bp_prime_count = bp_prime_positions.size();
  result.diag.bp1_count = bp1_positions.size();
  result.diag.bp2_count = bp2_positions.size();

  // Break point vertex set BP = BP1 ∪ BP2 (vertices under those positions).
  std::vector<char> is_bp(static_cast<size_t>(n), 0);
  for (std::int64_t pos : bp1_positions)
    is_bp[static_cast<size_t>(tour.sequence[static_cast<size_t>(pos)])] = 1;
  for (std::int64_t pos : bp2_positions)
    is_bp[static_cast<size_t>(tour.sequence[static_cast<size_t>(pos)])] = 1;

  // ---- ABP marking (§4.2): vertices whose T_rt subtree contains a break
  // point; each adds its T_rt parent edge to H. Cost: fragment decomposition
  // of T_rt + a local wave + a Lemma-1 round trip over the fragments.
  std::vector<char> in_abp(static_cast<size_t>(n), 0);
  {
    const std::vector<VertexId> spt_order = spt.tree.preorder();
    for (auto it = spt_order.rbegin(); it != spt_order.rend(); ++it) {
      const VertexId v = *it;
      if (is_bp[static_cast<size_t>(v)]) in_abp[static_cast<size_t>(v)] = 1;
      if (in_abp[static_cast<size_t>(v)] && v != rt)
        in_abp[static_cast<size_t>(
            spt.tree.parent[static_cast<size_t>(v)])] |= 1;
    }
    const FragmentDecomposition spt_frags = cut_tree_fragments(
        spt.tree,
        std::max(1, static_cast<int>(std::ceil(std::sqrt(n)))));
    congest::CostStats wave;
    wave.rounds = static_cast<std::uint64_t>(spt_frags.max_hop_depth()) * 2 + 2;
    wave.messages = static_cast<std::uint64_t>(n) * 2;
    wave.words = wave.messages;
    wave.max_edge_load = 1;
    result.ledger.add("abp-fragment-waves", wave);
    result.ledger.charge_global_broadcast(
        "abp-fragment-roundtrip",
        static_cast<std::uint64_t>(spt_frags.num_fragments) * 2,
        static_cast<std::uint64_t>(bfs.height));
  }

  // ---- H = T ∪ {T_rt parent edges of ABP vertices}.
  std::vector<EdgeId> h_edges = mst.mst_edges;
  size_t abp_count = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (v == rt || !in_abp[static_cast<size_t>(v)]) continue;
    ++abp_count;
    h_edges.push_back(spt.tree.parent_edge[static_cast<size_t>(v)]);
  }
  h_edges = dedupe_edge_ids(std::move(h_edges));
  result.diag.abp_count = abp_count;
  Weight h_weight = 0.0;
  for (EdgeId id : h_edges) h_weight += g.edge(id).w;
  result.diag.h_weight = h_weight;
  // Corollary 3: w(H) ≤ (1 + 4/ε)·w(T) — asserted, it certifies the
  // two-phase break-point analysis.
  LN_ASSERT_MSG(h_weight <= (1.0 + 4.0 / epsilon) * result.diag.mst_weight *
                                (1.0 + 1e-9),
                "Corollary 3 violated: H is too heavy");

  // ---- Final pass: approximate SPT of H rooted at rt.
  SubgraphSpt final_spt =
      approx_spt_on_subgraph(g, h_edges, rt, epsilon, ctx.sched);
  result.ledger.add("final-approx-spt", final_spt.cost);
  result.tree_edges = std::move(final_spt.tree_edges);
  result.tree = std::move(final_spt.tree);
  return result;
}

SltResult build_slt_light(const WeightedGraph& g, VertexId rt, double gamma,
                          const api::RunContext& ctx) {
  LN_REQUIRE(gamma > 0.0 && gamma < 1.0, "gamma must be in (0, 1)");
  // Base algorithm instantiated at ε = 1: lightness ≤ 1 + 4/ε = 5 = c and
  // root distortion ≤ (1+ε)(1+25ε) = 52 = t. (The paper instantiates at
  // distortion 2, i.e. ε = 1/51 and c = 205; both choices satisfy Lemma 5 —
  // this one has constants that are visible at simulation scale.) Lemma 5
  // then gives lightness 1 + δ·c = 1 + γ and distortion t/δ = O(1/γ).
  const double base_epsilon = 1.0;
  const double c = 1.0 + 4.0 / base_epsilon;
  const double delta = gamma / c;

  // Lemma 5 reweighting: only (δ, w(e), e ∈ MST?) is needed per edge, so
  // this step is local in CONGEST once the MST is known.
  const std::vector<EdgeId> mst_edges = kruskal_mst(g);
  std::vector<char> in_mst(static_cast<size_t>(g.num_edges()), 0);
  for (EdgeId id : mst_edges) in_mst[static_cast<size_t>(id)] = 1;
  std::vector<Edge> reweighted(g.edges().begin(), g.edges().end());
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (!in_mst[static_cast<size_t>(id)])
      reweighted[static_cast<size_t>(id)].w /= delta;
  const WeightedGraph g_prime =
      WeightedGraph::from_edges(g.num_vertices(), std::move(reweighted));

  // Run the base construction on the reweighted graph (edge ids coincide);
  // its ledger is absorbed below.
  SltResult base = build_slt(g_prime, rt, base_epsilon, ctx.child(0));

  // Final tree: approximate SPT (original weights) of base ∪ MST.
  std::vector<EdgeId> h_edges = base.tree_edges;
  h_edges.insert(h_edges.end(), mst_edges.begin(), mst_edges.end());
  h_edges = dedupe_edge_ids(std::move(h_edges));

  SltResult result;
  result.ledger.absorb(base.ledger, "bfn16-base");
  result.diag = base.diag;
  result.diag.mst_weight = 0.0;
  for (EdgeId id : mst_edges) result.diag.mst_weight += g.edge(id).w;
  Weight h_weight = 0.0;
  for (EdgeId id : h_edges) h_weight += g.edge(id).w;
  result.diag.h_weight = h_weight;

  // Final tree pass at a small ε so it costs only a (1+1/4) stretch factor
  // on top of t/δ.
  SubgraphSpt final_spt =
      approx_spt_on_subgraph(g, h_edges, rt, 0.25, ctx.sched);
  result.ledger.add("bfn16-final-spt", final_spt.cost);
  result.tree_edges = std::move(final_spt.tree_edges);
  result.tree = std::move(final_spt.tree);
  return result;
}

}  // namespace lightnet

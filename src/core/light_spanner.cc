#include "core/light_spanner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>

#include "congest/bfs.h"
#include "congest/message.h"
#include "congest/tree_ops.h"
#include "core/baswana_sen.h"
#include "core/elkin_neiman.h"
#include "mst/euler_tour.h"
#include "mst/fragment_mst.h"
#include "support/assert.h"
#include "support/rng.h"

namespace lightnet {

namespace {

using congest::Message;
using congest::TreeItem;

std::uint64_t cluster_pair_key(int a, int b, int num_clusters) {
  const auto [lo, hi] = std::minmax(a, b);
  return static_cast<std::uint64_t>(lo) *
             static_cast<std::uint64_t>(num_clusters) +
         static_cast<std::uint64_t>(hi);
}

// Dense re-labeling of arbitrary cluster keys.
class ClusterCompactor {
 public:
  int id_of(std::int64_t raw) {
    auto [it, inserted] = map_.try_emplace(raw, next_);
    if (inserted) ++next_;
    return it->second;
  }
  int count() const { return next_; }

 private:
  std::map<std::int64_t, int> map_;
  int next_ = 0;
};

struct Clustering {
  int num_clusters = 0;
  std::vector<int> cluster_of;          // per vertex
  std::int64_t max_interval_hops = 0;   // case 2 only
};

// Case 1 (§5): cluster of v is ⌈R_x / (ε w_i)⌉ for v's first appearance x.
Clustering cluster_case1(const EulerTourResult& tour, int n, double band) {
  Clustering c;
  c.cluster_of.resize(static_cast<size_t>(n));
  ClusterCompactor compact;
  for (VertexId v = 0; v < n; ++v) {
    const Weight r = tour.appearances[static_cast<size_t>(v)][0].time;
    c.cluster_of[static_cast<size_t>(v)] =
        compact.id_of(static_cast<std::int64_t>(std::ceil(r / band)));
  }
  c.num_clusters = compact.count();
  return c;
}

// Case 2 (§5): centers are tour positions where R crosses a multiple of
// ε·w_i or whose index is a multiple of the interval gap; a vertex joins
// the closest center left of its first appearance.
Clustering cluster_case2(const EulerTourResult& tour, int n, double band,
                         std::int64_t gap) {
  Clustering c;
  c.cluster_of.resize(static_cast<size_t>(n));
  const std::int64_t m = tour.num_positions;
  std::vector<std::int64_t> center_positions;
  for (std::int64_t j = 0; j < m; ++j) {
    bool center = j % gap == 0;
    if (!center && j > 0) {
      const double prev = tour.times[static_cast<size_t>(j - 1)] / band;
      const double cur = tour.times[static_cast<size_t>(j)] / band;
      center = std::floor(prev) != std::floor(cur);
    }
    if (center) center_positions.push_back(j);
  }
  LN_ASSERT(!center_positions.empty() && center_positions.front() == 0);
  for (size_t idx = 0; idx + 1 < center_positions.size(); ++idx)
    c.max_interval_hops =
        std::max(c.max_interval_hops,
                 center_positions[idx + 1] - center_positions[idx]);
  c.max_interval_hops =
      std::max(c.max_interval_hops, m - center_positions.back());

  // Cluster of a vertex: the last center at or before its first appearance.
  ClusterCompactor compact;
  for (VertexId v = 0; v < n; ++v) {
    const std::int64_t pos =
        tour.appearances[static_cast<size_t>(v)][0].index;
    auto it = std::upper_bound(center_positions.begin(),
                               center_positions.end(), pos);
    LN_ASSERT(it != center_positions.begin());
    c.cluster_of[static_cast<size_t>(v)] = compact.id_of(*(it - 1));
  }
  c.num_clusters = compact.count();
  return c;
}

}  // namespace

LightSpannerResult build_light_spanner(const WeightedGraph& g,
                                       const LightSpannerParams& params,
                                       const api::RunContext& ctx) {
  LN_REQUIRE(params.k >= 1, "k must be at least 1");
  LN_REQUIRE(params.epsilon > 0.0 && params.epsilon < 1.0,
             "epsilon must be in (0, 1)");
  const int n = g.num_vertices();
  const int k = params.k;
  const double eps = params.epsilon;
  const VertexId rt = 0;
  LightSpannerResult result;
  if (n <= 1) return result;

  // Substrates.
  const congest::BfsTreeResult bfs = congest::build_bfs_tree(g, rt,
                                                             ctx.sched);
  result.ledger.add("bfs-tree", bfs.cost);
  const DistributedMstResult mst = build_distributed_mst(g, rt);
  result.ledger.absorb(mst.ledger, "mst");
  const EulerTourResult tour = build_euler_tour(g, mst, bfs);
  result.ledger.absorb(tour.ledger, "euler-tour");

  const Weight big_l = tour.total_length;  // L = 2·w(MST)
  LN_ASSERT(big_l > 0.0);

  std::vector<EdgeId> spanner = mst.mst_edges;
  result.mst_edge_count = mst.mst_edges.size();

  // Low-weight bucket E' = {e : w(e) ≤ L/n} via Baswana-Sen.
  std::vector<char> in_low(static_cast<size_t>(g.num_edges()), 0);
  size_t low_count = 0;
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (g.edge(id).w <= big_l / n) {
      in_low[static_cast<size_t>(id)] = 1;
      ++low_count;
    }
  }
  if (low_count > 0) {
    const BaswanaSenResult bs =
        baswana_sen_spanner(g, in_low, k, ctx.seed ^ 0xB5ULL);
    result.ledger.add("baswana-sen-low", bs.cost);
    result.low_bucket_edges = bs.spanner.size();
    spanner.insert(spanner.end(), bs.spanner.begin(), bs.spanner.end());
  }

  // Bucket the remaining edges: E_i = (L/(1+ε)^{i+1}, L/(1+ε)^i].
  const double log_base = std::log1p(eps);
  const int max_bucket =
      static_cast<int>(std::ceil(std::log(static_cast<double>(n)) /
                                 log_base)) +
      1;
  std::vector<std::vector<EdgeId>> buckets(
      static_cast<size_t>(max_bucket) + 1);
  std::vector<int> bucket_of(static_cast<size_t>(g.num_edges()), -1);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (in_low[static_cast<size_t>(id)]) continue;
    const Weight w = g.edge(id).w;
    if (w > big_l) continue;  // covered by the MST alone (§5.1)
    int i = static_cast<int>(std::floor(std::log(big_l / w) / log_base));
    // Floating point repair onto the half-open band.
    while (i > 0 && w > big_l / std::pow(1.0 + eps, i)) --i;
    while (w <= big_l / std::pow(1.0 + eps, i + 1)) ++i;
    LN_ASSERT(w <= big_l / std::pow(1.0 + eps, i) * (1.0 + 1e-12));
    if (i > max_bucket) continue;  // weight ≤ L/n territory; already in E'
    buckets[static_cast<size_t>(i)].push_back(id);
    bucket_of[static_cast<size_t>(id)] = i;
  }

  // Case-1 threshold: i < log_{1+ε}(ε · n^{k/(2k+1)}).
  const double case1_limit =
      eps * std::pow(static_cast<double>(n),
                     static_cast<double>(k) / (2.0 * k + 1.0));

  Rng master_rng(ctx.seed ^ 0x4c53ULL);

  for (int i = 0; i <= max_bucket; ++i) {
    auto& bucket = buckets[static_cast<size_t>(i)];
    if (bucket.empty()) continue;
    const Weight wi = big_l / std::pow(1.0 + eps, i);
    const double band = eps * wi;
    const bool case1 = std::pow(1.0 + eps, i) < case1_limit;

    BucketDiagnostics diag;
    diag.index = i;
    diag.bucket_edges = bucket.size();
    diag.case1 = case1;

    Clustering clustering;
    if (case1) {
      clustering = cluster_case1(tour, n, band);
    } else {
      const std::int64_t gap = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 std::ceil(eps * n / std::pow(1.0 + eps, i))));
      clustering = cluster_case2(tour, n, band, gap);
      diag.max_interval_hops = clustering.max_interval_hops;
      // Center self-declaration along the intervals (§5 Case 2).
      congest::CostStats declare;
      declare.rounds =
          static_cast<std::uint64_t>(clustering.max_interval_hops) + 1;
      declare.messages = static_cast<std::uint64_t>(tour.num_positions);
      declare.words = declare.messages;
      declare.max_edge_load = 1;
      result.ledger.add("bucket-" + std::to_string(i) + "-centers", declare);
    }
    diag.num_clusters = clustering.num_clusters;

    // Cluster graph over this bucket; lightest representative per pair
    // (edges inserted in (w, id) order, first insertion wins).
    std::vector<EdgeId> ordered = bucket;
    std::sort(ordered.begin(), ordered.end(), [&g](EdgeId a, EdgeId b) {
      if (g.edge(a).w != g.edge(b).w) return g.edge(a).w < g.edge(b).w;
      return a < b;
    });
    std::vector<std::pair<std::pair<int, int>, EdgeId>> cluster_edges;
    for (EdgeId id : ordered) {
      const Edge& e = g.edge(id);
      const int cu = clustering.cluster_of[static_cast<size_t>(e.u)];
      const int cv = clustering.cluster_of[static_cast<size_t>(e.v)];
      if (cu != cv) cluster_edges.push_back({{cu, cv}, id});
    }
    // Everyone tells its neighbors its cluster id (both cases).
    {
      congest::CostStats exchange;
      exchange.rounds = 1;
      exchange.messages = static_cast<std::uint64_t>(g.num_edges()) * 2;
      exchange.words = exchange.messages;
      exchange.max_edge_load = 1;
      result.ledger.add("bucket-" + std::to_string(i) + "-cluster-ids",
                        exchange);
    }
    if (cluster_edges.empty()) {
      result.buckets.push_back(diag);
      continue;  // all bucket edges intra-cluster: MST paths cover them
    }
    const ClusterGraph cg = ClusterGraph::from_cluster_edges(
        clustering.num_clusters, cluster_edges);

    // Elkin-Neiman with size-bound retries (§5.1).
    const double expected_bound =
        6.0 * std::pow(static_cast<double>(clustering.num_clusters),
                       1.0 + 1.0 / k) +
        2.0 * clustering.num_clusters + 50.0;
    ElkinNeimanResult en;
    for (int attempt = 0; attempt < params.max_bucket_retries; ++attempt) {
      Rng stream = master_rng.split(
          static_cast<std::uint64_t>(i) * 101 +
          static_cast<std::uint64_t>(attempt));
      en = elkin_neiman_spanner(cg, k, stream);
      diag.retries = attempt;
      if (static_cast<double>(en.cluster_edges.size()) <= expected_bound)
        break;
    }

    // Pay for the k simulated propagation rounds.
    const int num_keys = clustering.num_clusters;
    if (case1) {
      // r_A values are drawn at rt and broadcast.
      result.ledger.charge_global_broadcast(
          "bucket-" + std::to_string(i) + "-rA",
          static_cast<std::uint64_t>(num_keys),
          static_cast<std::uint64_t>(bfs.height));
      for (int round = 1; round <= k; ++round) {
        const ElkinNeimanRound& prev =
            en.rounds[static_cast<size_t>(round - 1)];
        const ElkinNeimanRound& cur = en.rounds[static_cast<size_t>(round)];
        // Message-level realization of one EN round: every vertex
        // contributes its cluster's carry and the max over neighboring
        // clusters; the pipelined keyed aggregation computes the new m.
        std::vector<std::vector<TreeItem>> contributions(
            static_cast<size_t>(n));
        for (VertexId v = 0; v < n; ++v) {
          const int a = clustering.cluster_of[static_cast<size_t>(v)];
          contributions[static_cast<size_t>(v)].push_back(
              {static_cast<std::uint64_t>(a),
               Message::encode_weight(prev.m[static_cast<size_t>(a)]),
               static_cast<std::uint64_t>(prev.s[static_cast<size_t>(a)])});
          double best = -std::numeric_limits<double>::infinity();
          int best_s = -1;
          for (const Incidence& inc : g.incident(v)) {
            // Only this bucket's edges define cluster adjacency.
            if (bucket_of[static_cast<size_t>(inc.edge)] != i) continue;
            const int b =
                clustering.cluster_of[static_cast<size_t>(inc.neighbor)];
            if (b == a) continue;
            const double cand = prev.m[static_cast<size_t>(b)] - 1.0;
            if (cand > best) {
              best = cand;
              best_s = prev.s[static_cast<size_t>(b)];
            }
          }
          if (best_s >= 0)
            contributions[static_cast<size_t>(v)].push_back(
                {static_cast<std::uint64_t>(a), Message::encode_weight(best),
                 static_cast<std::uint64_t>(best_s)});
        }
        congest::KeyedAggregateResult agg = congest::keyed_max_aggregate(
            g, bfs, num_keys, contributions, ctx.sched);
        result.ledger.add(
            "bucket-" + std::to_string(i) + "-en-aggregate", agg.cost);
        for (int a = 0; a < num_keys; ++a) {
          const double got = Message::decode_weight(
              agg.best[static_cast<size_t>(a)].a);
          LN_ASSERT_MSG(got == cur.m[static_cast<size_t>(a)],
                        "kernel aggregation disagrees with EN simulation");
        }
        std::vector<TreeItem> round_items;
        round_items.reserve(static_cast<size_t>(num_keys));
        for (int a = 0; a < num_keys; ++a)
          round_items.push_back(
              {static_cast<std::uint64_t>(a),
               Message::encode_weight(cur.m[static_cast<size_t>(a)]),
               static_cast<std::uint64_t>(cur.s[static_cast<size_t>(a)])});
        const congest::BroadcastResult bc =
            congest::broadcast_from_root(g, bfs, round_items, ctx.sched);
        result.ledger.add(
            "bucket-" + std::to_string(i) + "-en-broadcast", bc.cost);
      }
      // Spanner-edge collection: vertices propose qualifying inter-cluster
      // edges, deduplicated per cluster pair en route to rt; rt applies the
      // per-source selection and broadcasts H_i.
      const ElkinNeimanRound& fin = en.rounds.back();
      std::vector<std::vector<TreeItem>> proposals(static_cast<size_t>(n));
      for (const auto& [pair, edge] : cluster_edges) {
        const auto [a, b] = pair;
        if (fin.m[static_cast<size_t>(b)] >=
                fin.m[static_cast<size_t>(a)] - 1.0 ||
            fin.m[static_cast<size_t>(a)] >=
                fin.m[static_cast<size_t>(b)] - 1.0) {
          const VertexId host = g.edge(edge).u;
          proposals[static_cast<size_t>(host)].push_back(
              {cluster_pair_key(a, b, num_keys),
               static_cast<std::uint64_t>(edge), 0});
        }
      }
      congest::GatherResult gathered = congest::gather_to_root(
          g, bfs, proposals, /*dedupe_by_key=*/true, ctx.sched);
      result.ledger.add("bucket-" + std::to_string(i) + "-edge-gather",
                        gathered.cost);
      std::vector<TreeItem> chosen_items;
      for (const auto& [a, b] : en.cluster_edges)
        chosen_items.push_back({cluster_pair_key(a, b, num_keys), 0, 0});
      const congest::BroadcastResult bc =
          congest::broadcast_from_root(g, bfs, chosen_items, ctx.sched);
      result.ledger.add("bucket-" + std::to_string(i) + "-edge-broadcast",
                        bc.cost);
    } else {
      // Case 2: converge/broadcast run inside communication intervals; the
      // neighbor m-exchange costs one extra round over the bucket edges.
      congest::CostStats per_round;
      per_round.rounds =
          2 * static_cast<std::uint64_t>(clustering.max_interval_hops) + 3;
      per_round.messages = 2 * static_cast<std::uint64_t>(
                                   tour.num_positions) +
                           2 * static_cast<std::uint64_t>(g.num_edges());
      per_round.words = per_round.messages * 2;
      per_round.max_edge_load = 1;
      for (int round = 1; round <= k; ++round)
        result.ledger.add("bucket-" + std::to_string(i) + "-en-interval",
                          per_round);
      // Edge collection inside intervals: interval length + the w.h.p.
      // per-cluster edge bound of [EN17b].
      std::vector<size_t> per_cluster(static_cast<size_t>(num_keys), 0);
      for (const auto& [a, b] : en.cluster_edges)
        ++per_cluster[static_cast<size_t>(a)];
      size_t max_per_cluster = 0;
      for (size_t c : per_cluster) max_per_cluster = std::max(
          max_per_cluster, c);
      congest::CostStats collect;
      collect.rounds =
          static_cast<std::uint64_t>(clustering.max_interval_hops) +
          static_cast<std::uint64_t>(max_per_cluster) + 1;
      collect.messages = static_cast<std::uint64_t>(
          en.cluster_edges.size() + tour.num_positions);
      collect.words = collect.messages * 2;
      collect.max_edge_load = 1;
      result.ledger.add("bucket-" + std::to_string(i) + "-edge-collect",
                        collect);
    }

    diag.chosen_edges = en.representative_edges.size();
    spanner.insert(spanner.end(), en.representative_edges.begin(),
                   en.representative_edges.end());
    result.buckets.push_back(diag);
  }

  result.spanner = dedupe_edge_ids(std::move(spanner));
  return result;
}

}  // namespace lightnet

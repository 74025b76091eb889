#include "core/nets.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "api/substrate_pool.h"
#include "routines/approx_spt.h"
#include "routines/le_lists.h"
#include "support/assert.h"
#include "support/rng.h"

namespace lightnet {

NetResult build_net(const WeightedGraph& g, const NetParams& params,
                    const api::RunContext& ctx) {
  return build_net(g, params, ctx, {}, nullptr);
}

NetResult build_net(const WeightedGraph& g, const NetParams& params,
                    const api::RunContext& ctx,
                    std::span<const VertexId> seeds,
                    const RoundedSubstrate* substrate) {
  LN_REQUIRE(params.radius > 0.0, "net radius must be positive");
  LN_REQUIRE(params.delta >= 0.0, "delta must be nonnegative");
  const int n = g.num_vertices();
  const Weight delta_radius = params.radius;
  const double delta = params.delta;
  NetResult result;
  if (n == 0) return result;

  // One rounding + Network for the whole construction (the original code
  // rebuilt both inside every LE-list and SPT call, once per iteration);
  // pool-acquired so a service run reuses the scenario's cached substrate.
  std::shared_ptr<const RoundedSubstrate> acquired;
  if (substrate == nullptr) {
    acquired = api::acquire_substrate(ctx, g, delta);
    substrate = acquired.get();
  }
  LN_REQUIRE(substrate->epsilon == delta &&
                 substrate->rounded.num_vertices() == n,
             "substrate must be the (1+delta)-rounding of g");

  const int cap = params.max_iterations > 0
                      ? params.max_iterations
                      : 8 * static_cast<int>(std::ceil(std::log2(
                            std::max(2, n)))) +
                            16;
  Rng rng(ctx.seed ^ 0x4e455453ULL);

  std::vector<char> active(static_cast<size_t>(n), 1);
  std::vector<char> in_net(static_cast<size_t>(n), 0);

  // Seeds join up front; their (1+δ)·Δ balls are deactivated before the
  // first iteration so only the fringe pays for LE lists.
  if (!seeds.empty()) {
    for (VertexId s : seeds) {
      LN_REQUIRE(s >= 0 && s < n, "seed out of range");
      if (!in_net[static_cast<size_t>(s)]) {
        in_net[static_cast<size_t>(s)] = 1;
        ++result.seed_points;
      }
    }
    const ApproxSptForestResult forest = build_approx_spt_forest(
        *substrate, seeds, ctx.sched, (1.0 + delta) * delta_radius);
    result.ledger.add("seed-forest", forest.cost);
    for (VertexId v = 0; v < n; ++v) {
      if (forest.dist[static_cast<size_t>(v)] <=
          (1.0 + delta) * delta_radius)
        active[static_cast<size_t>(v)] = 0;
    }
  }

  // Persistent compacted active list: built once, compacted in place after
  // each deactivation wave instead of rescanning all n vertices per
  // iteration. Ascending id order is maintained by compaction, keeping the
  // iteration bit-identical to the rescan.
  std::vector<VertexId> active_list;
  active_list.reserve(static_cast<size_t>(n));
  for (VertexId v = 0; v < n; ++v)
    if (active[static_cast<size_t>(v)]) active_list.push_back(v);
  result.active_after_seeding = active_list.size();

  std::vector<std::uint64_t> rank(static_cast<size_t>(n), 0);
  std::vector<VertexId> fresh;
  for (int iter = 0; iter < cap && !active_list.empty(); ++iter) {
    result.iterations = iter + 1;

    // Uniform permutation via distinct random 64-bit ranks (the rank
    // buffer is reused across iterations; stale slots belong to inactive
    // vertices and are never read).
    for (VertexId v : active_list)
      rank[static_cast<size_t>(v)] =
          (rng.next() << 20) | static_cast<std::uint64_t>(v);

    // LE lists w.r.t. the (1+δ)-approximation H (Theorem 4 substitute).
    // Lists truncated at Δ: the join rule below never reads farther
    // entries, so the flood stops at the ball boundary.
    const LeListsResult le = compute_le_lists(*substrate, active_list, rank,
                                              ctx.sched, delta_radius);
    result.ledger.add("iter-" + std::to_string(iter) + "-le-lists", le.cost);
    result.max_le_list_size =
        std::max(result.max_le_list_size, le.max_list_size);

    // Join rule: v joins iff it is first in π among its Δ-neighborhood in
    // H, i.e. the minimum-rank LE entry within distance Δ is v itself.
    fresh.clear();
    for (VertexId v : active_list) {
      std::uint64_t best_rank = rank[static_cast<size_t>(v)];
      for (const LeListEntry& e : le.lists[static_cast<size_t>(v)]) {
        if (e.dist > delta_radius) continue;
        best_rank = std::min(best_rank, e.rank);
      }
      if (best_rank == rank[static_cast<size_t>(v)]) {
        fresh.push_back(v);
        in_net[static_cast<size_t>(v)] = 1;
      }
    }
    LN_ASSERT_MSG(!fresh.empty(),
                  "an iteration must produce at least one net point (the "
                  "global rank minimum always joins)");

    // Approximate SPT rooted at the fresh net points; deactivate everything
    // within (1+δ)·Δ of them.
    // Deactivation only tests dist ≤ (1+δ)·Δ — bound the flood there.
    const ApproxSptForestResult forest = build_approx_spt_forest(
        *substrate, fresh, ctx.sched, (1.0 + delta) * delta_radius);
    result.ledger.add("iter-" + std::to_string(iter) + "-spt", forest.cost);
    for (VertexId v : active_list) {
      if (forest.dist[static_cast<size_t>(v)] <=
          (1.0 + delta) * delta_radius)
        active[static_cast<size_t>(v)] = 0;
    }
    for (VertexId v : fresh)
      LN_ASSERT_MSG(!active[static_cast<size_t>(v)],
                    "a fresh net point must become inactive");
    std::erase_if(active_list, [&active](VertexId v) {
      return !active[static_cast<size_t>(v)];
    });
  }

  for (VertexId v = 0; v < n; ++v) {
    LN_ASSERT_MSG(!active[static_cast<size_t>(v)],
                  "net construction did not converge within the iteration "
                  "cap");
    if (in_net[static_cast<size_t>(v)]) result.net.push_back(v);
  }
  return result;
}

std::vector<VertexId> thin_net_seeds(
    std::span<const VertexId> prev_net,
    const std::vector<std::vector<BoundedSourceEntry>>& table,
    Weight separation, std::vector<char>& kept_scratch) {
  std::vector<VertexId> seeds;
  seeds.reserve(prev_net.size());
  std::fill(kept_scratch.begin(), kept_scratch.end(), 0);
  for (VertexId p : prev_net) {
    bool blocked = false;
    for (const BoundedSourceEntry& e : table[static_cast<size_t>(p)]) {
      if (e.source != p && kept_scratch[static_cast<size_t>(e.source)] &&
          e.dist <= separation) {
        blocked = true;
        break;
      }
    }
    if (!blocked) {
      kept_scratch[static_cast<size_t>(p)] = 1;
      seeds.push_back(p);
    }
  }
  return seeds;
}

}  // namespace lightnet

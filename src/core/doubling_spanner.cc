#include "core/doubling_spanner.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "api/substrate_pool.h"
#include "core/nets.h"
#include "graph/mst.h"
#include "routines/approx_spt.h"
#include "routines/bounded_multisource.h"
#include "support/assert.h"

namespace lightnet {

namespace {

// δ the pipeline instantiates Theorem 3 with (net covering radius ε·Δ/2).
constexpr double kNetDelta = 0.5;

// Upper bound on scales fused into one wave (also the channel budget the
// scheduler allocates per wave). 16 keeps per-wave state bounded while
// grouping the entire saturated tail of the scale ladder into few waves.
constexpr size_t kMaxWaveScales = 16;

// Everything one scale contributes before its wave's exploration runs: the
// net (already built) and the diagnostics gathered so far.
struct PendingScale {
  Weight scale = 0.0;
  std::vector<VertexId> net;
  ScaleDiagnostics diag;
};

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

DoublingSpannerResult build_doubling_spanner(
    const WeightedGraph& g, const DoublingSpannerParams& params,
    const api::RunContext& ctx) {
  LN_REQUIRE(params.epsilon > 0.0 && params.epsilon < 1.0,
             "epsilon must be in (0, 1)");
  LN_REQUIRE(!params.use_hopset, "the hopset mode was removed");
  const int n = g.num_vertices();
  const double eps = params.epsilon;
  DoublingSpannerResult result;
  if (n <= 1) return result;

  const Weight mst_w = mst_weight(g);
  const Weight min_w = g.min_edge_weight();
  // Rounding slack for the bounded explorations: the stretch chain needs
  // (1+ε̂)(1+4·(ε/2))Δ ≤ 2Δ, which ε̂ ≤ 1/8 guarantees for ε < 1.
  const double explore_eps = std::min(eps, 0.125);

  // Hoisted across all scales: one rounded graph + Network per metric
  // (explorations at ε̂, nets at δ). The original pipeline rebuilt both per
  // scale (and the net path once per iteration); pool-acquired so service
  // runs on a cached scenario skip the builds entirely.
  const auto explore_handle = api::acquire_substrate(ctx, g, explore_eps);
  const auto net_handle = api::acquire_substrate(ctx, g, kNetDelta);
  const RoundedSubstrate& explore_substrate = *explore_handle;
  const RoundedSubstrate& net_substrate = *net_handle;

  // Concurrent scales fuse consecutive explorations into shared scheduler
  // waves over channel-tagged messages; the sequential reference mode
  // closes the wave after every scale and thins the next scale's seeds
  // from that wave's tables. Spanners are bit-identical either way: the
  // wave tables slice back into exactly the per-scale tables (see
  // bounded_multisource.h), and the spanner is read off an edge-id byte map
  // in ascending order, whatever order the paths were collected in.
  const bool concurrent = !ctx.sched.sequential_scales;

  // Path edges are collected per wave (or scale) into `path_edges`, then
  // marked in `in_spanner`: about 1.9M collected ids name about 4k distinct
  // edges on er n=1024, so marking beats sorting the raw list.
  std::vector<EdgeId> path_edges;
  std::vector<char> in_spanner(static_cast<size_t>(g.num_edges()), 0);
  const auto mark_path_edges = [&]() {
    for (EdgeId e : path_edges) in_spanner[static_cast<size_t>(e)] = 1;
    path_edges.clear();
  };
  std::vector<VertexId> prev_net;
  std::vector<char> kept_scratch(static_cast<size_t>(n), 0);
  std::vector<std::uint32_t> stamp(static_cast<size_t>(n), 0);
  std::vector<std::uint32_t> source_idx(static_cast<size_t>(n), 0);
  std::vector<std::uint32_t> pair_count, pair_fill;
  std::vector<VertexId> pair_targets;
  std::vector<std::uint32_t> scale_mask(static_cast<size_t>(n), 0);
  std::vector<VertexId> union_net;
  std::uint32_t epoch = 0;

  // Concurrent-mode seed-filter chain: a SHORT warm-started one-scale wave
  // of each net at the NEXT scale's seed spacing — ~13× smaller radius than
  // the 2Δ exploration, but by the slicing argument (thin_net_seeds) it
  // reproduces the sequential filter decisions exactly. Decoupling the
  // filter from the 2Δ tables is what lets a whole wave of nets be built
  // before the wave's fused exploration runs.
  WaveExploreState seed_chain;
  // The tables the next scale's seeds are thinned from: the seed chain's in
  // concurrent mode, the last (one-scale) wave's in sequential mode.
  const std::vector<std::vector<BoundedSourceEntry>>* seed_tables = nullptr;

  WaveExploreState wave_state;
  std::vector<PendingScale> wave;
  size_t wave_net_sum = 0;
  int wave_index = 0;

  // Runs the fused exploration for the accumulated scales, then extracts
  // each scale's pairs from the sliced tables and connects them.
  const auto flush_wave = [&]() {
    if (wave.empty()) return;
    const std::string wave_tag = "wave-" + std::to_string(wave_index);

    // --- fused exploration ---------------------------------------------
    const Clock::time_point explore_start = Clock::now();
    std::vector<WaveScale> scales;
    scales.reserve(wave.size());
    for (const PendingScale& p : wave) scales.push_back({p.net, 2.0 * p.scale});
    WaveExploreResult wexp = bounded_multi_source_paths_wave(
        explore_substrate, scales, std::move(wave_state), ctx.sched);
    wave_state = std::move(wexp.state);
    result.ledger.add(wave_tag + "-explore", wexp.cost);
    if (!concurrent) seed_tables = &wave_state.table[0];

    wave[0].diag.explore_wall_ms = ms_since(explore_start);

    // Wave-union packing certificate: the union of the wave's records at a
    // vertex (reported per scale so the registry shows the wave grouping).
    size_t max_sources = 0;
    for (VertexId v = 0; v < n; ++v) {
      size_t total = 0;
      for (const auto& chan : wave_state.table)
        total += chan[static_cast<size_t>(v)].size();
      max_sources = std::max(max_sources, total);
    }

    // --- per-wave pair extraction --------------------------------------
    // A pair within reach at several of the wave's scales yields the SAME
    // canonical path at each of them (the smaller scales' tables are
    // slices of the owner channel's), so each distinct pair is enumerated
    // and walked ONCE per wave; pairs_connected still counts every
    // qualifying (pair, scale) combination, matching the sequential
    // per-scale accounting bit for bit.
    const Clock::time_point pairs_start = Clock::now();
    const size_t K = wave.size();
    for (PendingScale& p : wave) p.diag.max_sources_per_vertex = max_sources;
    wave[0].diag.explore_records_inherited = wexp.records_inherited;
    wave[0].diag.explore_shell_announcements = wexp.shell_announcements;
    // scale_mask[v]: bit w set iff v is in wave[w]'s net.
    for (size_t w = 0; w < K; ++w)
      for (VertexId v : wave[w].net)
        scale_mask[static_cast<size_t>(v)] |= std::uint32_t{1} << w;
    union_net.clear();
    for (VertexId v = 0; v < n; ++v)
      if (scale_mask[static_cast<size_t>(v)] != 0) {
        source_idx[static_cast<size_t>(v)] =
            static_cast<std::uint32_t>(union_net.size());
        union_net.push_back(v);
      }
    const size_t union_size = union_net.size();
    // visit(s, t, m) runs once per distinct pair; m has a bit per wave
    // scale whose net contains both endpoints within its 2Δ bound (the
    // bounds ascend with the channel index, so qualifying scales are a
    // suffix of the membership mask).
    const auto each_pair = [&](const auto& visit) {
      for (VertexId t : union_net) {
        const std::uint32_t mt = scale_mask[static_cast<size_t>(t)];
        for (const auto& chan : wave_state.table)
          for (const BoundedSourceEntry& e : chan[static_cast<size_t>(t)]) {
            if (e.source >= t) break;  // entries ascend by source
            std::uint32_t m = scale_mask[static_cast<size_t>(e.source)] & mt;
            if (m == 0) continue;
            size_t c = 0;
            while (c < K && 2.0 * wave[c].scale < e.dist) ++c;
            if (c >= K) continue;
            m = (m >> c) << c;
            if (m == 0) continue;
            visit(e.source, t, m);
          }
      }
    };
    pair_count.assign(union_size + 1, 0);
    each_pair([&](VertexId s, VertexId, std::uint32_t m) {
      ++pair_count[source_idx[static_cast<size_t>(s)] + 1];
      do {
        ++wave[static_cast<size_t>(std::countr_zero(m))].diag.pairs_connected;
        m &= m - 1;
      } while (m != 0);
    });
    for (size_t i = 1; i <= union_size; ++i) pair_count[i] += pair_count[i - 1];
    pair_targets.resize(pair_count[union_size]);
    pair_fill.assign(pair_count.begin(), pair_count.end() - 1);
    each_pair([&](VertexId s, VertexId t, std::uint32_t) {
      pair_targets[pair_fill[source_idx[static_cast<size_t>(s)]]++] = t;
    });
    for (size_t i = 0; i < union_size; ++i) {
      ++epoch;
      const VertexId s = union_net[i];
      const auto& owner_table =
          wave_state.table[wexp.channel_of[static_cast<size_t>(s)]];
      for (size_t j = pair_count[i]; j < pair_count[i + 1]; ++j) {
        const bool found = collect_path_edges(owner_table, pair_targets[j], s,
                                              stamp, epoch, path_edges);
        LN_ASSERT_MSG(found, "discovered pair has no extractable path");
      }
    }
    mark_path_edges();
    for (VertexId v : union_net) scale_mask[static_cast<size_t>(v)] = 0;
    wave[0].diag.pairs_wall_ms = ms_since(pairs_start);
    for (PendingScale& p : wave) result.scales.push_back(p.diag);
    wave.clear();
    wave_net_sum = 0;
    ++wave_index;
  };

  int scale_index = 0;
  bool stop = false;
  for (Weight scale = min_w; scale <= 2.0 * mst_w && !stop;
       scale *= (1.0 + eps), ++scale_index) {
    ScaleDiagnostics diag;
    diag.scale = scale;

    // Net with covering radius ε·Δ/2: Theorem 3 with δ = 1/2 applied at
    // Δ_net = ε·Δ/3 gives a ((3/2)·Δ_net, (2/3)·Δ_net)-net =
    // (ε·Δ/2, 2ε·Δ/9)-net.
    NetParams net_params;
    net_params.radius = eps * scale / 3.0;
    net_params.delta = kNetDelta;
    // Separation the new scale's net must keep: Δ_net/(1+δ) = 2ε·Δ/9.
    const double separation = 2.0 * eps * scale / 9.0;
    // Seeds are thinned at the *covering* radius ε·Δ/2 (not the separation
    // bound): that matches the spacing a cold-start net converges to, so
    // seeded nets stay as small as unseeded ones; anything the sparser seed
    // set fails to cover is picked up by the iterations. ε·Δ/2 > 2ε·Δ/9
    // keeps every separation certificate intact.
    const double seed_spacing = (1.0 + kNetDelta) * net_params.radius;
    const Clock::time_point net_start = Clock::now();
    const std::vector<VertexId> seeds =
        prev_net.empty() ? std::vector<VertexId>{}
                         : thin_net_seeds(prev_net, *seed_tables, seed_spacing,
                                          kept_scratch);
    const NetResult net = build_net(
        g, net_params,
        ctx.child(0x5343414cULL + static_cast<std::uint64_t>(scale_index)),
        seeds, &net_substrate);
    result.ledger.absorb(net.ledger,
                         "scale-" + std::to_string(scale_index) + "-net");
    diag.net_size = net.net.size();
    diag.net_iterations = net.iterations;
    diag.net_seed_points = net.seed_points;
    diag.net_active_after_seeding = net.active_after_seeding;
    diag.net_wall_ms = ms_since(net_start);

    // Claim 7 certificate: an r-separated set has ≤ ⌈2L/r⌉ points.
    LN_ASSERT_MSG(
        static_cast<double>(net.net.size()) <=
            std::ceil(2.0 * mst_w / separation) + 1.0,
        "Claim 7 violated: net too large for its separation");

    if (net.net.size() <= 1 && scale > mst_w) stop = true;  // single point

    // Extend the seed-filter chain to the NEXT scale's spacing before the
    // 2Δ exploration is even scheduled (the chain is what decouples net
    // construction from the fused waves).
    if (concurrent && !stop) {
      const Clock::time_point chain_start = Clock::now();
      const WaveScale chain_scale{net.net, seed_spacing * (1.0 + eps)};
      WaveExploreResult chain = bounded_multi_source_paths_wave(
          explore_substrate, std::span<const WaveScale>(&chain_scale, 1),
          std::move(seed_chain), ctx.sched);
      seed_chain = std::move(chain.state);
      seed_tables = &seed_chain.table[0];
      result.ledger.add("scale-" + std::to_string(scale_index) + "-seedchain",
                        chain.cost);
      diag.seedchain_wall_ms = ms_since(chain_start);
    }
    PendingScale pending;
    pending.scale = scale;
    pending.net = net.net;
    pending.diag = diag;
    wave_net_sum += net.net.size();
    wave.push_back(std::move(pending));
    // Close the wave once it holds enough sources to saturate the network
    // (or the channel budget): big-net early scales flush in small groups,
    // the sparse tail rides in wide ones. The sequential reference closes
    // it after every scale.
    if (!concurrent || stop || wave.size() >= kMaxWaveScales ||
        wave_net_sum >= size_t(n))
      flush_wave();
    prev_net = net.net;
  }
  flush_wave();  // scales left when the ladder ran out

  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (in_spanner[static_cast<size_t>(e)]) result.spanner.push_back(e);
  return result;
}

}  // namespace lightnet

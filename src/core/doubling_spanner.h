// Light spanner for doubling graphs (§7, Theorem 5).
//
// For every distance scale Δ = (1+ε)^i: build a net with covering radius
// ε·Δ/2 (via Theorem 3 with δ = 1/2), run Δ-bounded multi-source
// (1+ε)-approximate explorations from the net points, and add the reported
// path between every pair of net points within 2Δ. Stretch follows by
// induction over scales, lightness by the packing argument (Lemma 6 +
// Claim 7); the per-scale diagnostics expose both certificates
// (net size vs. Claim 7's ⌈2L/r⌉, and max_sources_per_vertex vs. the
// packing bound).
//
// Pipeline: the rounded graphs and communication Networks for the
// explorations and the net substrate are built once and reused across all
// O(log_{1+ε} W) scales; each scale's net is seeded from the previous
// (finer) net — filtered down to the new scale's separation using a
// bounded exploration of that net — so the LE-list iterations only process
// the fringe the seeds fail to cover. Every exploration is a wave of the
// one exploration kernel (routines/bounded_multisource.h): consecutive
// scales' 2Δ explorations run fused into concurrent-scale waves, the seed
// filter reads a chain of short one-scale waves, and each wave's pairs are
// connected once, with path extraction memoizing shared prefixes per
// source. RunContext::sched.sequential_scales instead closes the wave after
// every scale and thins the next seeds from that one-scale wave's tables
// (the reference bench_doubling checks the fused waves against); the
// spanner edge set is bit-identical either way.
//
// §7.1 shortens the explorations with [EN16]'s path-reporting shortcut
// edges for its asymptotic round bound; the pipeline explores G alone,
// which takes fewer rounds at every size the simulator reaches (see
// EXPERIMENTS.md).
#pragma once

#include <vector>

#include "api/run_context.h"
#include "congest/stats.h"
#include "graph/graph.h"

namespace lightnet {

struct DoublingSpannerParams {
  double epsilon = 0.125;  // paper analyzes ε < 1/8; larger values run but
                           // carry the rescaled constant
  // Always false; build_doubling_spanner rejects true. Kept only while the
  // record schema still carries the key.
  bool use_hopset = false;
};

struct ScaleDiagnostics {
  double scale = 0.0;            // Δ
  size_t net_size = 0;
  size_t pairs_connected = 0;
  size_t max_sources_per_vertex = 0;  // packing certificate
  int net_iterations = 0;
  // Cross-scale reuse: how much of this scale's net was inherited from the
  // previous scale, and how small the seeded fringe was.
  size_t net_seed_points = 0;
  size_t net_active_after_seeding = 0;
  // Exploration reuse, reported on the first scale of each wave: records
  // carried over from the previous wave's fixed point, and the per-link
  // offers its boundary shell re-announced in round 0. Both modes count
  // the same way; the sequential mode's waves hold one scale each.
  size_t explore_records_inherited = 0;
  size_t explore_shell_announcements = 0;
  // Wall-clock phase breakdown (bench_doubling emits these; they are
  // machine-dependent and excluded from regression comparisons). In
  // concurrent mode the fused wave exploration is attributed to the FIRST
  // scale of its wave; later scales of the wave report 0.
  double net_wall_ms = 0.0;
  double seedchain_wall_ms = 0.0;  // concurrent mode only
  double explore_wall_ms = 0.0;
  double pairs_wall_ms = 0.0;
};

struct DoublingSpannerResult {
  std::vector<EdgeId> spanner;
  congest::RoundLedger ledger;
  std::vector<ScaleDiagnostics> scales;
};

// Randomness from ctx.seed, every kernel execution under ctx.sched.
DoublingSpannerResult build_doubling_spanner(const WeightedGraph& g,
                                             const DoublingSpannerParams& params,
                                             const api::RunContext& ctx);

}  // namespace lightnet

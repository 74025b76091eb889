// Δ-bounded multi-source (1+ε)-approximate shortest paths (§7.1).
//
// Runs all sources' bounded explorations in parallel over the CONGEST
// kernel: every vertex keeps one (distance, parent) record per source whose
// ball reaches it, stored as a flat vector of 24-byte records. Every table
// this header hands out is sorted by source id. While a scheduler run
// lasts, a vertex's program only appends to its table and finds records
// through a per-vertex hash index (source → position), so each offer costs
// O(1); when the run returns, each table's appended tail is sorted and
// merged into its sorted prefix once. In doubling graphs the packing
// property bounds the number of sources touching any vertex, which bounds
// both memory and rounds — the doubling pipeline's per-scale
// max_sources_per_vertex diagnostic is the per-run certificate of that
// argument.
//
// One kernel program and one encoding. Each round a vertex announces ALL
// sources whose distance improved, packed as (source, dist) pairs into one
// multi-word message per link (NodeContext::send_words_on_link), and each
// link's payload keeps only the offers its far end would accept (dist +
// w(link) ≤ radius). Accounting stays honest — CostStats::words counts
// every packed word and max_edge_load the ceil(words/kMaxWords) bandwidth
// multiple — so the ledger states exactly how far the encoding stretches
// the one-message budget (strict_congest is force-disabled for that
// reason).
//
// Every run converges to the same fixed point: every record holds the
// bounded (1+ε)-rounded distance and, among the neighbors that realize it,
// the smallest (parent, edge) pair (see offer_g_edge). Tables, parents and
// extracted paths are therefore bit-identical across thread counts,
// fault-reordered inboxes, warm starts and wave slices; the tests check
// every one of them against a sequential oracle (one bounded Dijkstra
// search per source plus that tie-break).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/scheduler.h"
#include "congest/stats.h"
#include "graph/graph.h"
#include "routines/approx_spt.h"

namespace lightnet {

struct BoundedSourceEntry {
  Weight dist = 0.0;
  VertexId source = kNoVertex;
  VertexId parent = kNoVertex;   // kNoVertex at the source itself
  EdgeId parent_edge = kNoEdge;  // kNoEdge at the source itself
};
static_assert(sizeof(BoundedSourceEntry) == 24,
              "records stay 24 bytes: 4 bytes of padding follow parent_edge");

// ---- Concurrent-scale (wave) explorations -------------------------------
//
// The doubling pipeline fuses several consecutive scales' explorations
// into ONE scheduler execution, a wave (its seed-filter chain and the
// sequential_scales reference run one-scale waves, and a cold exploration
// is a one-scale wave from an empty state): scale k of the wave
// becomes message channel k (congest/message.h), every vertex keeps
// per-channel source tables, and congestion is accounted per channel. A
// source active at several of the wave's scales is OWNED by the LAST scale
// where it is active and explored exactly once, to that scale's radius; a
// smaller scale's table is the (sources, radius)-slice of the owning
// channels' tables. Slicing is exact because the tables are canonical
// fixed points: truncating the fixed point at radius R to entries with
// dist ≤ r < R yields precisely the fixed point at r, distances by
// prefix-monotone pruning and parents because canonical parents are
// radius-independent (every parent chain descends in distance, see
// offer_g_edge).
//
// Warm starts carry over between waves through WaveExploreState: records of
// sources absent from the new wave are dropped (charged one word each, the
// retired source's tombstone flood), surviving records stay silent except
// the boundary shell, and the shell re-offers are filtered PER LINK — a
// record (v, s, d) re-announces on link ℓ only if d + w(ℓ) lands in
// (explored_radius[s], radius_of_owner(s)]. Offers below the source's
// previously explored radius were already made (and canonicalized) by the
// run that produced the record, offers above the owner's radius would be
// rejected by the receiver, so both filters preserve bit-identity: the
// tables equal a cold run's, distances because bounded relaxations prune
// prefix-monotonically, parents because records are canonicalized (see
// offer_g_edge).

struct WaveScale {
  std::span<const VertexId> sources;  // the scale's net, ascending ids
  Weight radius;                      // the scale's exploration bound
};

// Exploration state threaded between consecutive waves.
struct WaveExploreState {
  // table[c][v]: records of the sources channel c owns, sorted by source.
  std::vector<std::vector<std::vector<BoundedSourceEntry>>> table;
  // Per-source explored radius so far, indexed by vertex id (< 0 = never
  // explored / cold). Stale entries of long-retired sources are never read:
  // a re-added source has no surviving records, which is what classifies it
  // as new.
  std::vector<Weight> explored_radius;
  bool empty() const { return table.empty(); }
};

struct WaveExploreResult {
  WaveExploreState state;
  // Owning channel per source, indexed by vertex id (meaningful only at
  // this wave's sources): the channel whose table holds the source's
  // records for slicing and path extraction.
  std::vector<std::uint8_t> channel_of;
  size_t records_inherited = 0;    // records carried over from the prev wave
  size_t shell_announcements = 0;  // per-link round-0 offers after filtering
  std::uint64_t pruned_records = 0;  // retired sources' tombstoned records
  congest::CostStats cost;  // includes the per-channel slices
};

// Runs one wave. `scales` must be ordered by ascending radius (consecutive
// pipeline scales); at most 32 per wave. `prev` is the state returned by
// the previous wave (moved), or an empty state for a cold start.
WaveExploreResult bounded_multi_source_paths_wave(
    const RoundedSubstrate& substrate, std::span<const WaveScale> scales,
    WaveExploreState prev, congest::SchedulerOptions sched = {});

// Binary search over table[v] (sorted by source); nullptr if the source's
// ball does not reach v. `table` is one channel of a wave state.
const BoundedSourceEntry* find_source_entry(
    const std::vector<std::vector<BoundedSourceEntry>>& table, VertexId v,
    VertexId source);

// Memoized union-of-paths extraction: appends the edges of the
// source→target path to `out`, stopping early at any vertex whose
// source-rooted path was already collected into `out` by a previous call
// with the same (source, stamp/epoch) pair — shared prefixes are walked
// once per source. `stamp` must be n-sized and `epoch` strictly increasing
// across (scale, source) pairs. Returns false if target is not reached.
// `table` is the source's owning channel (all of a source's records live
// there). The edges are appended in target-to-source order.
bool collect_path_edges(
    const std::vector<std::vector<BoundedSourceEntry>>& table, VertexId target,
    VertexId source, std::vector<std::uint32_t>& stamp, std::uint32_t epoch,
    std::vector<EdgeId>& out);

}  // namespace lightnet

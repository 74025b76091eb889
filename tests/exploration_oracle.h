// Sequential oracle for the bounded multi-source explorations
// (routines/bounded_multisource.h). Per source: one bounded Dijkstra search
// on the rounded graph, then every reached vertex takes, among its tight
// neighbors (dist[u] + w(u, v) == dist[v]), the smallest (parent, edge)
// pair — the canonical rule offer_g_edge converges to. Every kernel mode
// (cold, warm start, reordered inboxes, any thread count, wave slices) must
// reproduce these tables bit for bit, so the tests compare each mode with
// the oracle rather than with another mode.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "graph/shortest_paths.h"
#include "routines/bounded_multisource.h"

namespace lightnet::testing {

using SourceTables = std::vector<std::vector<BoundedSourceEntry>>;

// Tables of the bounded exploration of `sources` to `radius` over `h` (the
// substrate's rounded graph), sorted by source at every vertex.
inline SourceTables oracle_explore(const WeightedGraph& h,
                                   std::span<const VertexId> sources,
                                   Weight radius) {
  const int n = h.num_vertices();
  std::vector<VertexId> order(sources.begin(), sources.end());
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  SourceTables table(static_cast<size_t>(n));
  DijkstraWorkspace ws;
  for (const VertexId s : order) {
    ws.search(h, std::span<const VertexId>(&s, 1), radius);
    const std::vector<Weight>& dist = ws.result().dist;
    for (VertexId v = 0; v < n; ++v) {
      const Weight d = dist[static_cast<size_t>(v)];
      if (d == kInfiniteDistance) continue;  // beyond the radius
      BoundedSourceEntry e;
      e.dist = d;
      e.source = s;
      if (v != s) {
        for (const Incidence& inc : h.incident(v)) {
          const Weight du = dist[static_cast<size_t>(inc.neighbor)];
          if (du == kInfiniteDistance || du + h.edge(inc.edge).w != d)
            continue;
          if (e.parent == kNoVertex || inc.neighbor < e.parent ||
              (inc.neighbor == e.parent && inc.edge < e.parent_edge)) {
            e.parent = inc.neighbor;
            e.parent_edge = inc.edge;
          }
        }
      }
      table[static_cast<size_t>(v)].push_back(e);
    }
  }
  return table;
}

// A cold exploration on the kernel: one one-scale wave from an empty state.
// Its tables are state.table[0].
inline WaveExploreResult explore_cold(const RoundedSubstrate& substrate,
                                      std::span<const VertexId> sources,
                                      Weight radius,
                                      congest::SchedulerOptions sched = {}) {
  const WaveScale scale{sources, radius};
  return bounded_multi_source_paths_wave(
      substrate, std::span<const WaveScale>(&scale, 1), WaveExploreState{},
      sched);
}

// The G-edges of the source → target path by the tables' parent records,
// in source-to-target order, walked by collect_path_edges with nothing
// memoized; empty if the source's ball does not reach target.
inline std::vector<EdgeId> path_edges(const SourceTables& table,
                                      VertexId target, VertexId source) {
  std::vector<std::uint32_t> stamp(table.size(), 0);
  std::vector<EdgeId> path;
  if (!collect_path_edges(table, target, source, stamp, 1, path)) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

// Counts the entries where `got` differs from `want` in any field (source,
// dist, parent, parent_edge — dist compared with ==, not a tolerance), plus
// every vertex whose sources do not ascend strictly or whose table size
// differs. `first` describes the first one.
inline size_t count_table_mismatches(const SourceTables& got,
                                     const SourceTables& want,
                                     std::string& first) {
  size_t mismatches = 0;
  const auto note = [&](size_t v, const std::string& what) {
    if (mismatches++ == 0) first = "v=" + std::to_string(v) + ": " + what;
  };
  if (got.size() != want.size()) {
    note(0, "table sizes " + std::to_string(got.size()) + " vs " +
                std::to_string(want.size()));
    return mismatches;
  }
  for (size_t v = 0; v < got.size(); ++v) {
    for (size_t j = 1; j < got[v].size(); ++j)
      if (got[v][j - 1].source >= got[v][j].source)
        note(v, "sources do not ascend");
    if (got[v].size() != want[v].size()) {
      note(v, std::to_string(got[v].size()) + " records, oracle has " +
                  std::to_string(want[v].size()));
      continue;
    }
    for (size_t j = 0; j < got[v].size(); ++j) {
      const BoundedSourceEntry& a = got[v][j];
      const BoundedSourceEntry& b = want[v][j];
      if (a.source != b.source || a.dist != b.dist || a.parent != b.parent ||
          a.parent_edge != b.parent_edge) {
        std::ostringstream os;
        os.precision(17);
        os << "source " << a.source << "/" << b.source << " dist " << a.dist
           << "/" << b.dist << " parent " << a.parent << "/" << b.parent
           << " edge " << a.parent_edge << "/" << b.parent_edge;
        note(v, os.str());
      }
    }
  }
  return mismatches;
}

inline void expect_tables_match(const SourceTables& got,
                                const SourceTables& want,
                                const std::string& context) {
  std::string first;
  EXPECT_EQ(count_table_mismatches(got, want, first), 0u)
      << context << ", first mismatch at " << first;
}

// Kernel tables against the oracle run on the same rounded graph.
inline void expect_matches_oracle(const SourceTables& got,
                                  const WeightedGraph& h,
                                  std::span<const VertexId> sources,
                                  Weight radius, const std::string& context) {
  expect_tables_match(got, oracle_explore(h, sources, radius), context);
}

// One scale's table read back from a wave state: the records of `sources`
// with dist ≤ `radius`, gathered over every channel and sorted by source.
inline SourceTables slice_wave(const WaveExploreState& state,
                               std::span<const VertexId> sources,
                               Weight radius, int n) {
  std::vector<char> active(static_cast<size_t>(n), 0);
  for (VertexId s : sources) active[static_cast<size_t>(s)] = 1;
  SourceTables sliced(static_cast<size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    std::vector<BoundedSourceEntry>& out = sliced[static_cast<size_t>(v)];
    for (const SourceTables& chan : state.table) {
      const std::vector<BoundedSourceEntry>& t = chan[static_cast<size_t>(v)];
      // Every table a run returns ascends by source.
      for (size_t j = 1; j < t.size(); ++j)
        EXPECT_LT(t[j - 1].source, t[j].source) << "vertex " << v;
      for (const BoundedSourceEntry& e : t)
        if (active[static_cast<size_t>(e.source)] && e.dist <= radius)
          out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const BoundedSourceEntry& a, const BoundedSourceEntry& b) {
                return a.source < b.source;
              });
  }
  return sliced;
}

// Every scale of a wave against the oracle at that scale's radius.
inline void expect_wave_matches_oracle(const WaveExploreState& state,
                                       const WeightedGraph& h,
                                       std::span<const WaveScale> scales,
                                       const std::string& context) {
  for (size_t i = 0; i < scales.size(); ++i) {
    const WaveScale& sc = scales[i];
    expect_tables_match(
        slice_wave(state, sc.sources, sc.radius, h.num_vertices()),
        oracle_explore(h, sc.sources, sc.radius),
        context + " scale " + std::to_string(i));
  }
}

}  // namespace lightnet::testing

// Baswana-Sen (2k-1)-spanner for weighted graphs ([BS07]).
//
// Used by the light-spanner construction (§5) for the low-weight bucket
// E' = {e : w(e) ≤ L/n}: sparsity O(k·n^{1+1/k}) suffices there because the
// per-edge weight is tiny. The algorithm is the classic k-phase sampled
// clustering; `edge_allowed` restricts it to a subset of edges (the bucket)
// while communication remains on the full graph. Cost is charged at the
// O(k)-round bound the paper cites (footnote 9).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "api/run_context.h"
#include "congest/stats.h"
#include "graph/graph.h"

namespace lightnet {

struct BaswanaSenResult {
  std::vector<EdgeId> spanner;  // subset of allowed edges
  congest::CostStats cost;
};

// `edge_allowed` has one flag per edge of g; stretch 2k-1 is guaranteed for
// allowed edges through allowed edges. Pass all-ones to span the graph.
BaswanaSenResult baswana_sen_spanner(const WeightedGraph& g,
                                     std::span<const char> edge_allowed,
                                     int k, std::uint64_t seed);

// RunContext entry point: seed from ctx.seed.
BaswanaSenResult baswana_sen_spanner(const WeightedGraph& g,
                                     std::span<const char> edge_allowed,
                                     int k, const api::RunContext& ctx);

}  // namespace lightnet

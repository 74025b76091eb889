// Shared helpers for the lightnet benchmark harness.
//
// Every bench binary regenerates one experiment; EXPERIMENTS.md describes
// the tables and lists the invocations. Rows are
// google-benchmark instances; the paper's "columns" (stretch, lightness,
// size, rounds) are exported as user counters so the bench output *is* the
// table.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

#include "congest/stats.h"

namespace lightnet::bench {

inline void report_cost(::benchmark::State& state,
                        const congest::CostStats& cost) {
  state.counters["rounds"] = static_cast<double>(cost.rounds);
  state.counters["messages"] = static_cast<double>(cost.messages);
  state.counters["max_edge_load"] = static_cast<double>(cost.max_edge_load);
}

}  // namespace lightnet::bench

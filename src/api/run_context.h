// RunContext: the uniform execution environment of a construction.
//
// A RunContext bundles the knobs every run of a construction shares, so a
// driver sweeping constructions × topologies plumbs them once:
//   - seed:  the root of all randomness (per-phase streams are derived by
//     tag-XOR, see support/rng.h), making a run a pure function of
//     (graph, params, seed);
//   - sched: congest::SchedulerOptions threaded into every kernel execution,
//     so full_sweep / strict_congest / max_rounds apply to the whole
//     construction, not just the layers that happened to expose them;
//   - ledger_sink: an optional RoundLedger that receives the construction's
//     full per-phase breakdown under a prefix, letting a driver accumulate
//     one ledger across a multi-construction pipeline.
//
// Every core entry point takes a `const RunContext&`; no parameter struct
// carries a seed of its own, so ctx.seed is the only source of randomness.
#pragma once

#include <cstdint>

#include "congest/scheduler.h"
#include "congest/stats.h"

namespace lightnet::api {

class SubstratePool;  // api/substrate_pool.h

struct RunContext {
  std::uint64_t seed = 1;
  congest::SchedulerOptions sched;
  congest::RoundLedger* ledger_sink = nullptr;
  // Optional cross-run substrate cache (api/substrate_pool.h), attached by
  // long-lived drivers (the lightnetd service). Core constructions acquire
  // through acquire_substrate(), which falls back to a private build when
  // this is null or bound to a different graph.
  SubstratePool* substrate_pool = nullptr;

  // Derived context for a sub-construction: same scheduler mode, a stream
  // seed split off by tag, and no sink (the parent absorbs the child's
  // ledger itself, so a shared sink would double-count the child's phases).
  RunContext child(std::uint64_t tag) const {
    RunContext c;
    c.seed = seed ^ tag;
    c.sched = sched;
    c.substrate_pool = substrate_pool;
    return c;
  }

  RunContext with_seed(std::uint64_t s) const {
    RunContext c = *this;
    c.seed = s;
    return c;
  }

  // Same run on `t` scheduler worker threads. Artifacts, ledgers and
  // records are bit-identical across thread counts (the scheduler's
  // parallel determinism contract), so drivers sweep this knob freely;
  // entry points that need the serial reliable transport clamp it back.
  RunContext with_threads(int t) const {
    RunContext c = *this;
    c.sched.threads = t;
    return c;
  }
};

// Deposits `ledger` into ctx.ledger_sink under `prefix` if a sink is
// attached; every core entry point calls this once on its result ledger.
inline void deposit(const RunContext& ctx, const congest::RoundLedger& ledger,
                    const std::string& prefix) {
  if (ctx.ledger_sink != nullptr) ctx.ledger_sink->absorb(ledger, prefix);
}

}  // namespace lightnet::api

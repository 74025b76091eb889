// RunContext: the uniform execution environment of a construction.
//
// A RunContext bundles the knobs every run of a construction shares, so a
// driver sweeping constructions × topologies plumbs them once:
//   - seed:  the root of all randomness (per-phase streams are derived by
//     tag-XOR, see support/rng.h), making a run a pure function of
//     (graph, params, seed);
//   - sched: congest::SchedulerOptions threaded into every kernel execution,
//     so full_sweep / strict_congest / max_rounds apply to the whole
//     construction, not just the layers that happened to expose them.
//
// Every core entry point takes a `const RunContext&`; no parameter struct
// carries a seed of its own, so ctx.seed is the only source of randomness.
#pragma once

#include <cstdint>

#include "congest/scheduler.h"

namespace lightnet::api {

class SubstratePool;  // api/substrate_pool.h

struct RunContext {
  std::uint64_t seed = 1;
  congest::SchedulerOptions sched;
  // Optional cross-run substrate cache (api/substrate_pool.h), attached by
  // long-lived drivers (the lightnetd service). Core constructions acquire
  // through acquire_substrate(), which falls back to a private build when
  // this is null or bound to a different graph.
  SubstratePool* substrate_pool = nullptr;

  // Derived context for a sub-construction: same scheduler mode and pool,
  // a stream seed split off by tag.
  RunContext child(std::uint64_t tag) const { return with_seed(seed ^ tag); }

  RunContext with_seed(std::uint64_t s) const {
    RunContext c = *this;
    c.seed = s;
    return c;
  }

  // Same run on `t` scheduler worker threads. Artifacts, ledgers and
  // records are bit-identical across thread counts (the scheduler's
  // parallel determinism contract), fault plans included, so drivers sweep
  // this knob freely.
  RunContext with_threads(int t) const {
    RunContext c = *this;
    c.sched.threads = t;
    return c;
  }
};

}  // namespace lightnet::api

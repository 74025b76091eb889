// One fully-resolved construction run → one JSON record line.
//
// The sweep driver (lightnet_cli) and the long-running service (lightnetd)
// execute the same unit of work: run one registered construction on one
// materialized scenario under one scheduler configuration, and serialize the
// outcome as a single JSON object. This header is that unit. Both drivers
// call run_and_record, so a service response is byte-identical to the record
// the CLI would emit for the same resolved spec — the property the service's
// artifact cache (and its CI byte-compare) is built on.
//
// Execution policy:
//   - fault-free, uncapped runs take the fast path (exceptions become error
//     records so a sweep survives them);
//   - runs with an active FaultPlan OR an explicit max_rounds cap go through
//     api/validate's graceful path: exceptions and round-cap aborts fold
//     into a RunOutcome, and the record carries a "validation" object.
//   - an active FaultPlan clamps threads to 1 at this boundary (the reliable
//     transport's per-link state machine is serial, congest/scheduler.h);
//     the clamp is reported in the record as "threads_clamped":true rather
//     than silently applied by whichever entry point notices first.
#pragma once

#include <cstdint>
#include <string>

#include "api/registry.h"
#include "api/run_context.h"
#include "api/scenario.h"
#include "api/validate.h"
#include "congest/fault.h"

namespace lightnet::api {

// A single resolved run: every axis pinned to one value. The scenario is
// carried whole (family, law, n, seed AND the family knobs) so the canonical
// key covers everything that determines the materialized graph.
struct RunSpec {
  const Construction* construction = nullptr;
  ScenarioSpec scenario;
  // False for families whose generator ignores WeightLaw (the record then
  // says "law":"n/a", matching the sweep driver's inert-law rule).
  bool law_matters = true;
  ConstructionParams params;
  congest::FaultPlan fault;
  int threads = 1;
  int max_rounds = 0;  // 0 = scheduler default (effectively uncapped)
  // Pins multi-scale constructions (doubling_spanner) to the reference
  // one-scale-at-a-time pipeline instead of the fused concurrent waves.
  // Artifacts are bit-identical either way; only the cost ledger differs.
  bool sequential_scales = false;
  bool full_sweep = false;
  bool quality = true;
  bool emit_wall = false;  // service and fault records must stay deterministic
};

// JSON fragments shared by the record emitters.
std::string fault_json(const congest::FaultPlan& f);
std::string validation_json(const Validation& v);
std::string params_json(const ConstructionParams& p);

// The reliable-transport serial clamp, applied once at the driver/service
// boundary: a spec combining an active fault plan with threads > 1 is
// clamped to threads = 1 (and reports it), instead of relying on each entry
// point's internal clamp. Returns true when the spec was clamped.
bool clamp_reliable_serial(RunSpec& spec);

struct RunRecord {
  std::string json;  // the full record line, no trailing '\n'
  // True when the fast path caught a construction exception and `json` is
  // an error record (graceful runs fold exceptions into the outcome
  // instead).
  bool error = false;
  bool threads_clamped = false;
  // Meaningful only for graceful runs (fault or max_rounds active).
  RunOutcome outcome = RunOutcome::kCompleted;
  // The ledger's total simulated messages (0 for an error record): the
  // service weighs a record's recompute cost by it.
  std::uint64_t messages = 0;
};

// `base` with the knobs a spec pins copied in: the seed (the scenario's) and
// the scheduler's fault plan, threads, full_sweep, sequential_scales and
// max_rounds (when set). Everything else in `base` (substrate_pool,
// sched.scratch, ledger_sink) is kept. run_and_record runs under this
// context; a driver that calls Construction::run directly uses it to run
// the same configuration.
RunContext spec_context(const RunSpec& spec, RunContext base = {});

// Executes spec.construction on g and renders the record, under
// spec_context(spec, ctx) after the reliable-transport clamp. `hop_diameter`
// is passed in so sweeps computing it once per graph don't recompute per
// run.
RunRecord run_and_record(const WeightedGraph& g, int hop_diameter,
                         const RunSpec& spec, RunContext ctx);

// The canonical cache identity of a run: every field that affects the
// record's bytes — the full ScenarioSpec (a graph materializes
// deterministically from it), construction name, params, fault plan and
// scheduler knobs — serialized in a fixed order. Key the spec as REQUESTED,
// before any clamp: a clamped run's record carries "threads_clamped":true,
// so it must not share a cache entry with its already-serial twin.
std::string canonical_run_key(const RunSpec& spec);

// The scenario-only prefix of canonical_run_key: the identity under which a
// materialized graph (and its substrate pool and scheduler arenas) can be
// shared by runs of different constructions.
std::string canonical_scenario_key(const ScenarioSpec& scenario);

// 64-bit FNV-1a of the canonical key. The service's artifact-cache
// admission sketch derives its counter positions from it.
std::uint64_t canonical_run_fnv1a(const std::string& canonical_key);

// canonical_run_fnv1a rendered as 16 hex digits — the compact request hash
// the service reports alongside each response.
std::string canonical_run_hash(const std::string& canonical_key);
std::string canonical_run_hash(std::uint64_t fnv1a);

}  // namespace lightnet::api

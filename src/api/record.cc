#include "api/record.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>

#include "api/report.h"
#include "support/assert.h"

namespace lightnet::api {

std::string fault_json(const congest::FaultPlan& f) {
  std::string out = "{";
  out += "\"seed\":" + std::to_string(f.seed);
  out += ",\"drop\":" + json_number(f.drop);
  out += ",\"link_fail\":" + json_number(f.link_fail);
  out += ",\"link_period\":" + std::to_string(f.link_period);
  out += ",\"crash\":" + json_number(f.crash);
  out += ",\"crash_horizon\":" + std::to_string(f.crash_horizon);
  out += ",\"restart\":" + std::to_string(f.restart_after);
  out += ",\"reorder\":" + std::string(f.reorder ? "true" : "false");
  out += "}";
  return out;
}

std::string validation_json(const Validation& v) {
  std::string out = "{\"outcome\":\"";
  out += outcome_name(v.outcome);
  out += "\",\"failures\":[";
  bool first = true;
  for (const std::string& f : v.failures) {
    if (!first) out += ",";
    first = false;
    out += "\"" + congest::json_escape(f) + "\"";
  }
  out += "],\"checks\":" + to_json(v.checks) + "}";
  return out;
}

std::string params_json(const ConstructionParams& p) {
  std::string out = "{";
  out += "\"eps\":" + json_number(p.epsilon);
  out += ",\"gamma\":" + json_number(p.gamma);
  out += ",\"alpha\":" + json_number(p.alpha);
  out += ",\"k\":" + std::to_string(p.k);
  out += ",\"radius\":" + json_number(p.radius);
  out += ",\"delta\":" + json_number(p.delta);
  out += ",\"root\":" + std::to_string(p.root);
  out += ",\"hopset\":" + std::string(p.use_hopset ? "true" : "false");
  out += "}";
  return out;
}

RunContext spec_context(const RunSpec& spec, RunContext base) {
  base.seed = spec.scenario.seed;
  base.sched.full_sweep = spec.full_sweep;
  base.sched.fault = spec.fault;
  base.sched.threads = spec.threads;
  base.sched.sequential_scales = spec.sequential_scales;
  if (spec.max_rounds > 0) base.sched.max_rounds = spec.max_rounds;
  return base;
}

RunRecord run_and_record(const WeightedGraph& g, int hop_diameter,
                         const RunSpec& spec, RunContext ctx) {
  LN_REQUIRE(spec.construction != nullptr,
             "run_and_record needs a construction");
  RunRecord out;
  const Construction& c = *spec.construction;
  ctx = spec_context(spec, std::move(ctx));

  // Graceful path: outcomes instead of exceptions whenever the run can
  // legitimately terminate partial (faults) or capped (max_rounds).
  const bool graceful = spec.fault.enabled() || spec.max_rounds > 0;
  const auto start = std::chrono::steady_clock::now();
  Artifact artifact;
  Validation validation;
  if (graceful) {
    OutcomeRun r = run_with_outcome(c, g, spec.params, ctx);
    artifact = std::move(r.artifact);
    validation = std::move(r.validation);
    if (!r.error.empty())
      validation.failures.push_back(congest::json_escape(r.error));
    out.outcome = validation.outcome;
  } else {
    try {
      artifact = c.run(g, spec.params, ctx);
    } catch (const std::exception& e) {
      // A construction failing on one scenario must not kill a sweep (or a
      // service); the failure becomes an error record.
      out.error = true;
      out.json = "{\"construction\":\"" + std::string(c.name()) +
                 "\",\"topology\":\"" + spec.scenario.family +
                 "\",\"n\":" + std::to_string(spec.scenario.n) +
                 ",\"seed\":" + std::to_string(spec.scenario.seed) +
                 ",\"error\":\"" + congest::json_escape(e.what()) + "\"}";
      return out;
    }
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  out.messages = artifact.ledger.total().messages;

  std::string line = "{\"construction\":\"";
  line += std::string(c.name()) + "\"";
  line += ",\"kind\":\"" + std::string(kind_name(c.kind())) + "\"";
  line += ",\"topology\":\"" + spec.scenario.family + "\"";
  line += ",\"law\":\"" +
          std::string(spec.law_matters ? law_name(spec.scenario.law) : "n/a") +
          "\"";
  line += ",\"n\":" + std::to_string(spec.scenario.n);
  line += ",\"seed\":" + std::to_string(spec.scenario.seed);
  line += ",\"full_sweep\":" + std::string(spec.full_sweep ? "true" : "false");
  // Emitted only off the serial default so threads=1 records stay
  // byte-identical to historical output (and so a threads sweep can be
  // diffed against serial after stripping this one field).
  if (spec.threads != 1) line += ",\"threads\":" + std::to_string(spec.threads);
  // Same emit-off-default rule: concurrent-scale records (the default) stay
  // byte-identical to what a pre-knob build produced.
  if (spec.sequential_scales) line += ",\"sequential_scales\":true";
  if (spec.max_rounds > 0)
    line += ",\"max_rounds\":" + std::to_string(spec.max_rounds);
  line += ",\"params\":" + params_json(spec.params);
  line += ",\"graph\":{\"vertices\":" + std::to_string(g.num_vertices()) +
          ",\"edges\":" + std::to_string(g.num_edges()) +
          ",\"hop_diameter\":" + std::to_string(hop_diameter) + "}";
  if (spec.fault.enabled()) line += ",\"fault\":" + fault_json(spec.fault);
  if (graceful) line += ",\"validation\":" + validation_json(validation);
  if (spec.emit_wall) line += ",\"wall_ms\":" + json_number(wall_ms);
  if (spec.quality) {
    try {
      const QualityReport report = evaluate_artifact(g, c.kind(), artifact);
      line += ",\"metrics\":" + to_json(report);
    } catch (const std::exception&) {
      // A partial artifact (crashed nodes, severed components) can defeat
      // the exact verifiers; the validation object already records what
      // holds, so the metrics are skipped rather than the record lost.
    }
  }
  line += ",\"diagnostics\":" + to_json(artifact.diagnostics);
  line += ",\"cost\":" + congest::to_json(artifact.ledger);
  line += "}";
  out.json = std::move(line);
  return out;
}

std::string canonical_scenario_key(const ScenarioSpec& s) {
  std::string key = "scenario|" + s.family;
  key += "|law=" + std::string(law_name(s.law));
  key += "|n=" + std::to_string(s.n);
  key += "|seed=" + std::to_string(s.seed);
  key += "|max_weight=" + json_number(s.max_weight);
  key += "|avg_degree=" + json_number(s.avg_degree);
  key += "|geo_radius=" + json_number(s.geo_radius);
  key += "|num_chords=" + std::to_string(s.num_chords);
  key += "|chord_weight=" + json_number(s.chord_weight);
  key += "|perturb=" + std::string(s.perturb ? "1" : "0");
  return key;
}

std::string canonical_run_key(const RunSpec& spec) {
  std::string key = std::string(spec.construction->name());
  key += "|" + canonical_scenario_key(spec.scenario);
  key += "|law_matters=" + std::string(spec.law_matters ? "1" : "0");
  key += "|params=" + params_json(spec.params);
  key += "|fault=" + fault_json(spec.fault);
  key += "|threads=" + std::to_string(spec.threads);
  if (spec.sequential_scales) key += "|sequential_scales=1";
  key += "|max_rounds=" + std::to_string(spec.max_rounds);
  key += "|full_sweep=" + std::string(spec.full_sweep ? "1" : "0");
  key += "|quality=" + std::string(spec.quality ? "1" : "0");
  key += "|wall=" + std::string(spec.emit_wall ? "1" : "0");
  return key;
}

std::uint64_t canonical_run_fnv1a(const std::string& canonical_key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : canonical_key) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string canonical_run_hash(const std::string& canonical_key) {
  return canonical_run_hash(canonical_run_fnv1a(canonical_key));
}

std::string canonical_run_hash(std::uint64_t fnv1a) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a));
  return std::string(buf, 16);
}

}  // namespace lightnet::api

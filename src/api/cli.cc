#include "api/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <string_view>

#include "api/record.h"
#include "api/scenario.h"
#include "support/assert.h"

namespace lightnet::api {

namespace {

struct ParsedSpec {
  std::vector<const Construction*> constructions;
  std::vector<std::string> topologies;
  std::vector<int> ns;
  std::vector<std::uint64_t> seeds;
  std::vector<WeightLaw> laws;
  ConstructionParams params;
  ScenarioSpec scenario;  // knob template; family/law/n/seed set per run
  congest::FaultPlan fault;
  std::vector<int> thread_counts;
  int max_rounds = 0;  // 0 = scheduler default cap
  bool sequential_scales = false;
  bool full_sweep = false;
  bool quality = true;
  bool list_only = false;
  bool help_only = false;
  // wall_ms emission: auto (-1) prints it on fault-free runs and omits it on
  // fault runs, whose records must be bit-reproducible across invocations.
  int wall = -1;
};

const char kUsage[] =
    "usage: lightnet_cli [key=value]... [list] [--help]\n"
    "\n"
    "Runs the cross product of every list-valued axis; each run prints one\n"
    "JSON record line to stdout.\n"
    "\n"
    "sweep axes (comma lists sweep; 'all' expands where noted):\n"
    "  construction=NAME[,..]|all  registry constructions      (default all)\n"
    "  topology=FAMILY[,..]|all    scenario families           (default er)\n"
    "  n=INT[,..]                  vertex counts               (default 64)\n"
    "  seed=U64[,..]               scenario / run seeds        (default 1)\n"
    "  law=LAW[,..]                unit|uniform|heavy_tail|exp_scales\n"
    "                                                     (default uniform)\n"
    "  threads=INT[,..]            scheduler worker lanes      (default 1)\n"
    "construction params (ConstructionParams):\n"
    "  eps=FLOAT gamma=FLOAT alpha=FLOAT k=INT radius=FLOAT delta=FLOAT\n"
    "  root=INT\n"
    "scenario knobs (ScenarioSpec):\n"
    "  max_weight=FLOAT avg_degree=FLOAT geo_radius=FLOAT chord_weight=FLOAT\n"
    "  scenario=FAMILY[:n=..][:seed=..][:law=..]  one-spec sugar\n"
    "fault injection:\n"
    "  fault.seed=U64 fault.drop=FLOAT fault.link_fail=FLOAT\n"
    "  fault.link_period=INT fault.crash=FLOAT fault.crash_horizon=INT\n"
    "  fault.restart=INT fault.reorder=0|1\n"
    "execution:\n"
    "  max_rounds=INT   graceful abort past this many rounds (default:\n"
    "                   scheduler cap; runs gain a \"validation\" object)\n"
    "  full_sweep=0|1   scheduler reference mode             (default 0)\n"
    "  sequential_scales=0|1  reference one-scale-at-a-time pipeline for\n"
    "                   multi-scale constructions            (default 0)\n"
    "  quality=0|1      exact quality metrics                (default 1)\n"
    "  wall=0|1         emit wall_ms (default: on, but off under faults so\n"
    "                   fault records are bit-reproducible)\n"
    "  list             print constructions and families, then exit\n"
    "  --help | -h      this text\n";

const char kUsageHint[] = "lightnet_cli: run with --help for the axis list";

std::vector<std::string> split_csv(std::string_view value) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    const size_t end = comma == std::string_view::npos ? value.size() : comma;
    if (end > start) out.emplace_back(value.substr(start, end - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

// Strict scalar parsers: the whole token must be consumed, so 'n=12x' or
// 'eps=' is a spec error instead of silently running with atoi garbage.
bool parse_int_strict(const std::string& v, int* out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  if (parsed < -2147483647L || parsed > 2147483647L) return false;
  *out = static_cast<int>(parsed);
  return true;
}

// Non-finite values are rejected too: strtod accepts "nan" and "inf", and
// records print both as null, so two distinct specs would share one record
// and one cache key.
bool parse_double_strict(const std::string& v, double* out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (errno != 0 || end != v.c_str() + v.size() || !std::isfinite(parsed))
    return false;
  *out = parsed;
  return true;
}

bool parse_bool_strict(const std::string& v, bool* out) {
  if (v == "0") { *out = false; return true; }
  if (v == "1") { *out = true; return true; }
  return false;
}

void bad_value(const std::string& key, const std::string& value,
               const char* expected, std::string* err) {
  *err = "lightnet_cli: invalid value '" + value + "' for key '" + key +
         "' (expected " + expected + ")\n" + kUsageHint;
}

// Parses one key=value token stream into `spec`. On failure, `err` carries
// the message (first line matches the historical diagnostics; a usage hint
// follows).
bool parse_spec(const std::vector<std::string>& args, ParsedSpec& spec,
                std::string* err) {
  for (const std::string& arg : args) {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      if (arg == "list") {
        spec.list_only = true;
        continue;
      }
      if (arg == "--help" || arg == "-h" || arg == "help") {
        spec.help_only = true;
        continue;
      }
      *err = "lightnet_cli: expected key=value, got '" + arg + "'\n" +
             kUsageHint;
      return false;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (value.empty()) {
      // No axis takes an empty value; 'n=' must not silently become an
      // empty sweep list that falls back to the default.
      *err = "lightnet_cli: empty value for key '" + key + "'\n" + kUsageHint;
      return false;
    }
    if (key == "construction") {
      if (value == "all") {
        spec.constructions = all_constructions();
      } else {
        for (const std::string& name : split_csv(value)) {
          const Construction* c = find_construction(name);
          if (c == nullptr) {
            *err = "lightnet_cli: unknown construction '" + name + "'\n" +
                   kUsageHint;
            return false;
          }
          spec.constructions.push_back(c);
        }
      }
    } else if (key == "topology") {
      if (value == "all") {
        spec.topologies = scenario_families();
      } else {
        for (const std::string& family : split_csv(value)) {
          bool known = false;
          for (const std::string& f : scenario_families())
            known = known || f == family;
          if (!known) {
            *err = "lightnet_cli: unknown topology '" + family + "'\n" +
                   kUsageHint;
            return false;
          }
          spec.topologies.push_back(family);
        }
      }
    } else if (key == "n") {
      for (const std::string& v : split_csv(value)) {
        int n = 0;
        if (!parse_int_strict(v, &n)) {
          bad_value(key, v, "integer", err);
          return false;
        }
        spec.ns.push_back(n);
      }
    } else if (key == "seed") {
      for (const std::string& v : split_csv(value)) {
        std::uint64_t s = 0;
        if (!parse_u64_strict(v, &s)) {
          bad_value(key, v, "unsigned integer", err);
          return false;
        }
        spec.seeds.push_back(s);
      }
    } else if (key == "law") {
      for (const std::string& v : split_csv(value)) {
        WeightLaw law;
        if (!parse_weight_law(v, &law)) {
          *err = "lightnet_cli: unknown weight law '" + v + "'\n" +
                 kUsageHint;
          return false;
        }
        spec.laws.push_back(law);
      }
    } else if (key == "eps") {
      if (!parse_double_strict(value, &spec.params.epsilon)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "gamma") {
      if (!parse_double_strict(value, &spec.params.gamma)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "alpha") {
      if (!parse_double_strict(value, &spec.params.alpha)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "k") {
      if (!parse_int_strict(value, &spec.params.k)) {
        bad_value(key, value, "integer", err);
        return false;
      }
    } else if (key == "radius") {
      // 0 means auto-scale; a negative radius would run as auto too while
      // its record and cache key said otherwise.
      if (!parse_double_strict(value, &spec.params.radius) ||
          spec.params.radius < 0.0) {
        bad_value(key, value, "nonnegative number", err);
        return false;
      }
    } else if (key == "delta") {
      if (!parse_double_strict(value, &spec.params.delta)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "root") {
      if (!parse_int_strict(value, &spec.params.root)) {
        bad_value(key, value, "integer", err);
        return false;
      }
    } else if (key == "hopset") {
      // The mode is gone; 0 still parses so existing specs keep running.
      bool on = false;
      if (!parse_bool_strict(value, &on) || on) {
        bad_value(key, value, "0", err);
        return false;
      }
    } else if (key == "max_weight") {
      if (!parse_double_strict(value, &spec.scenario.max_weight)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "avg_degree") {
      if (!parse_double_strict(value, &spec.scenario.avg_degree)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "geo_radius") {
      // 0 means auto, and so would a negative radius, under a record and
      // cache key of its own.
      if (!parse_double_strict(value, &spec.scenario.geo_radius) ||
          spec.scenario.geo_radius < 0.0) {
        bad_value(key, value, "nonnegative number", err);
        return false;
      }
    } else if (key == "chord_weight") {
      if (!parse_double_strict(value, &spec.scenario.chord_weight)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "threads") {
      // Comma-list sweep over scheduler worker counts, e.g. threads=1,4.
      // Every count must produce byte-identical records (wall_ms aside) —
      // the determinism contract CI checks by diffing sweeps.
      for (const std::string& v : split_csv(value)) {
        int t = 0;
        if (!parse_int_strict(v, &t) || t < 1) {
          *err = "lightnet_cli: invalid thread count '" + v + "'\n" +
                 kUsageHint;
          return false;
        }
        spec.thread_counts.push_back(t);
      }
    } else if (key == "max_rounds") {
      if (!parse_int_strict(value, &spec.max_rounds) || spec.max_rounds < 0) {
        bad_value(key, value, "nonnegative integer", err);
        return false;
      }
    } else if (key == "sequential_scales") {
      if (!parse_bool_strict(value, &spec.sequential_scales)) {
        bad_value(key, value, "0|1", err);
        return false;
      }
    } else if (key == "full_sweep") {
      if (!parse_bool_strict(value, &spec.full_sweep)) {
        bad_value(key, value, "0|1", err);
        return false;
      }
    } else if (key == "quality") {
      if (!parse_bool_strict(value, &spec.quality)) {
        bad_value(key, value, "0|1", err);
        return false;
      }
    } else if (key == "wall") {
      bool wall = false;
      if (!parse_bool_strict(value, &wall)) {
        bad_value(key, value, "0|1", err);
        return false;
      }
      spec.wall = wall ? 1 : 0;
    } else if (key == "scenario") {
      // Sugar for one pinned scenario: family[:n=..][:seed=..][:law=..],
      // e.g. scenario=er:n=256 — the fault-sweep one-liner.
      bool first = true;
      for (const std::string& part : [&value] {
             std::vector<std::string> parts;
             size_t start = 0;
             while (start <= value.size()) {
               const size_t colon = value.find(':', start);
               const size_t end =
                   colon == std::string::npos ? value.size() : colon;
               if (end > start) parts.push_back(value.substr(start, end - start));
               if (colon == std::string::npos) break;
               start = colon + 1;
             }
             return parts;
           }()) {
        if (first) {
          first = false;
          bool known = false;
          for (const std::string& f : scenario_families())
            known = known || f == part;
          if (!known) {
            *err = "lightnet_cli: unknown topology '" + part + "'\n" +
                   kUsageHint;
            return false;
          }
          spec.topologies.push_back(part);
          continue;
        }
        const size_t part_eq = part.find('=');
        const std::string pk =
            part_eq == std::string::npos ? part : part.substr(0, part_eq);
        const std::string pv =
            part_eq == std::string::npos ? "" : part.substr(part_eq + 1);
        if (pk == "n") {
          int n = 0;
          if (!parse_int_strict(pv, &n)) {
            bad_value("scenario:n", pv, "integer", err);
            return false;
          }
          spec.ns.push_back(n);
        } else if (pk == "seed") {
          std::uint64_t s = 0;
          if (!parse_u64_strict(pv, &s)) {
            bad_value("scenario:seed", pv, "unsigned integer", err);
            return false;
          }
          spec.seeds.push_back(s);
        } else if (pk == "law") {
          WeightLaw law;
          if (!parse_weight_law(pv, &law)) {
            *err = "lightnet_cli: unknown weight law '" + pv + "'\n" +
                   kUsageHint;
            return false;
          }
          spec.laws.push_back(law);
        } else {
          *err = "lightnet_cli: unknown scenario knob '" + pk + "'\n" +
                 kUsageHint;
          return false;
        }
      }
    } else if (key == "fault.seed") {
      if (!parse_u64_strict(value, &spec.fault.seed)) {
        bad_value(key, value, "unsigned integer", err);
        return false;
      }
    } else if (key == "fault.drop") {
      if (!parse_double_strict(value, &spec.fault.drop)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "fault.link_fail") {
      if (!parse_double_strict(value, &spec.fault.link_fail)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "fault.link_period") {
      if (!parse_int_strict(value, &spec.fault.link_period)) {
        bad_value(key, value, "integer", err);
        return false;
      }
    } else if (key == "fault.crash") {
      if (!parse_double_strict(value, &spec.fault.crash)) {
        bad_value(key, value, "number", err);
        return false;
      }
    } else if (key == "fault.crash_horizon") {
      if (!parse_int_strict(value, &spec.fault.crash_horizon)) {
        bad_value(key, value, "integer", err);
        return false;
      }
    } else if (key == "fault.restart") {
      if (!parse_int_strict(value, &spec.fault.restart_after)) {
        bad_value(key, value, "integer", err);
        return false;
      }
    } else if (key == "fault.reorder") {
      if (!parse_bool_strict(value, &spec.fault.reorder)) {
        bad_value(key, value, "0|1", err);
        return false;
      }
    } else {
      *err = "lightnet_cli: unknown key '" + key + "'\n" + kUsageHint;
      return false;
    }
  }
  if (spec.constructions.empty()) spec.constructions = all_constructions();
  if (spec.thread_counts.empty()) spec.thread_counts = {1};
  if (spec.topologies.empty()) spec.topologies = {"er"};
  if (spec.ns.empty()) spec.ns = {64};
  if (spec.seeds.empty()) spec.seeds = {1};
  if (spec.laws.empty()) spec.laws = {WeightLaw::kUniform};
  return true;
}

}  // namespace

bool parse_u64_strict(const std::string& v, std::uint64_t* out) {
  if (v.empty() || v[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  *out = parsed;
  return true;
}

std::string parse_single_run_spec(const std::vector<std::string>& args,
                                  RunSpec* out) {
  ParsedSpec spec;
  std::string err;
  if (!parse_spec(args, spec, &err)) return err;
  if (spec.list_only || spec.help_only)
    return "spec must be key=value tokens only";
  if (spec.wall != -1)
    return "'wall' is not accepted here: responses must be deterministic";
  // Exactly one run: reject any axis that fanned out (defaults are fine,
  // except construction, which defaults to the full registry).
  if (spec.constructions.size() != 1)
    return "spec must name exactly one construction";
  if (spec.topologies.size() != 1) return "spec must pin exactly one topology";
  if (spec.ns.size() != 1) return "spec must pin exactly one n";
  if (spec.seeds.size() != 1) return "spec must pin exactly one seed";
  if (spec.laws.size() != 1) return "spec must pin exactly one law";
  if (spec.thread_counts.size() != 1)
    return "spec must pin exactly one thread count";

  out->construction = spec.constructions[0];
  out->scenario = spec.scenario;
  out->scenario.family = spec.topologies[0];
  out->scenario.law = spec.laws[0];
  out->scenario.n = spec.ns[0];
  out->scenario.seed = spec.seeds[0];
  out->law_matters = family_uses_weight_law(out->scenario.family);
  // An inert law is canonicalized away so e.g. path:law=unit and
  // path:law=uniform share one cache entry (their records are already
  // byte-identical: both say "law":"n/a").
  if (!out->law_matters) out->scenario.law = WeightLaw::kUniform;
  out->params = spec.params;
  out->fault = spec.fault;
  out->threads = spec.thread_counts[0];
  out->max_rounds = spec.max_rounds;
  out->sequential_scales = spec.sequential_scales;
  out->full_sweep = spec.full_sweep;
  out->quality = spec.quality;
  out->emit_wall = false;
  return "";
}

int run_cli(const std::vector<std::string>& args, std::FILE* out,
            std::FILE* err) {
  ParsedSpec spec;
  std::string parse_err;
  if (!parse_spec(args, spec, &parse_err)) {
    std::fprintf(err, "%s\n", parse_err.c_str());
    return 1;
  }

  if (spec.help_only) {
    std::fputs(kUsage, out);
    return 0;
  }

  if (spec.list_only) {
    std::fprintf(out, "constructions:\n");
    for (const Construction* c : all_constructions())
      std::fprintf(out, "  %-20s [%s] %s\n",
                   std::string(c->name()).c_str(), kind_name(c->kind()),
                   std::string(c->summary()).c_str());
    std::fprintf(out, "topologies:\n");
    for (const std::string& f : scenario_families())
      std::fprintf(out, "  %s\n", f.c_str());
    return 0;
  }

  for (const std::string& family : spec.topologies) {
    // Families whose generator ignores WeightLaw run once, not once per
    // law — a law sweep over them would emit bit-identical records falsely
    // labeled with laws that had no effect.
    const bool law_matters = family_uses_weight_law(family);
    const size_t law_count = law_matters ? spec.laws.size() : 1;
    for (size_t law_index = 0; law_index < law_count; ++law_index) {
      const WeightLaw law = spec.laws[law_index];
      for (const int n : spec.ns) {
        for (const std::uint64_t seed : spec.seeds) {
          ScenarioSpec scenario = spec.scenario;
          scenario.family = family;
          scenario.law = law;
          scenario.n = n;
          scenario.seed = seed;
          WeightedGraph g;
          try {
            g = materialize(scenario);
          } catch (const std::exception& e) {
            // A bad scenario (n too small, degenerate knobs) must not kill
            // the sweep; record it and move to the next combination.
            std::fprintf(
                out,
                "{\"topology\":\"%s\",\"n\":%d,\"seed\":%llu,"
                "\"error\":\"%s\"}\n",
                family.c_str(), n, static_cast<unsigned long long>(seed),
                congest::json_escape(e.what()).c_str());
            continue;
          }
          const int hop_diameter = g.hop_diameter();
          for (const Construction* c : spec.constructions) {
            for (const int threads : spec.thread_counts) {
              RunSpec rspec;
              rspec.construction = c;
              rspec.scenario = scenario;
              rspec.law_matters = law_matters;
              rspec.params = spec.params;
              rspec.fault = spec.fault;
              rspec.threads = threads;
              rspec.max_rounds = spec.max_rounds;
              rspec.sequential_scales = spec.sequential_scales;
              rspec.full_sweep = spec.full_sweep;
              rspec.quality = spec.quality;
              rspec.emit_wall =
                  spec.wall == 1 || (spec.wall == -1 && !spec.fault.enabled());
              const RunRecord rec =
                  run_and_record(g, hop_diameter, rspec, RunContext{});
              std::fputs(rec.json.c_str(), out);
              std::fputc('\n', out);
              std::fflush(out);
            }
          }
        }
      }
    }
  }
  return 0;
}

}  // namespace lightnet::api

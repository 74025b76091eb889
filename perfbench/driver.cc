// The repository benchmark driver.
//
// Times the path a lightnet user waits on, in closed loops with one client:
// a spec string goes through api::parse_single_run_spec and
// api::run_and_record and comes back as record bytes; for the service, a
// request line goes through service::LightnetServer::handle_line. Four
// workloads each put most of their work on a different layer:
//
//   doubling_er1024  doubling_spanner on er n=1024 (the wave kernel)
//   registry_sweep   8 constructions x {er, geo, ring, grid} at n=1024
//                    (the graph/metrics verifiers)
//   bfs_grid1m_t4    the registry's bfs_tree on a 1024x1024 grid at
//                    threads=4, Construction::run only (the scheduler)
//   service_zipf     one warm LightnetServer replaying a Zipf(1.1) trace
//                    (the service caches)
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-dir <dir>]
//
// A run sets up several times (reporting the median as setup_s), then runs
// whole passes over the workload's ops until --seconds have elapsed. With
// --trace 1 it first runs untraced for half the time, then traced for the
// other half: spans from this file around the public calls of each layer
// give per-layer numbers, and the difference of the two op medians is the
// tracing overhead. Output checks run outside the timed sections.
//
// stdout: a readable report, then one JSON line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is nonzero when an output check failed.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "api/artifact.h"
#include "api/cli.h"
#include "api/record.h"
#include "api/registry.h"
#include "api/report.h"
#include "api/scenario.h"
#include "api/validate.h"
#include "congest/stats.h"
#include "core/doubling_spanner.h"
#include "service/json.h"
#include "service/server.h"
#include "support/rng.h"
#include "trace.h"

using namespace lightnet;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

constexpr int kSetupReps = 5;
constexpr int kBfsThreads = 4;

// Every construction some workload runs, for core.construct_ms.<name>.
const std::vector<std::string> kConstructions = {
    "slt",      "slt_light",           "light_spanner", "net",
    "mst_weight_estimate", "baswana_sen", "elkin_neiman",  "bfs_tree",
    "doubling_spanner"};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<std::string> split_tokens(const std::string& spec) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start < spec.size()) {
    while (start < spec.size() && spec[start] == ' ') ++start;
    std::size_t end = start;
    while (end < spec.size() && spec[end] != ' ') ++end;
    if (end > start) tokens.push_back(spec.substr(start, end - start));
    start = end;
  }
  return tokens;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ v;
  return splitmix64(x);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The output checksum bench/bench_parallel.cc folds: edges, then vertices.
std::uint64_t edge_checksum(const api::Artifact& a) {
  std::uint64_t h = 0x7370616eull;
  for (EdgeId e : a.edges) h = fold(h, static_cast<std::uint64_t>(e));
  for (VertexId v : a.vertices) h = fold(h, static_cast<std::uint64_t>(v));
  return h;
}

// Output plus model costs: what must not change across repetitions.
std::uint64_t fingerprint(const api::Artifact& a) {
  return fold(edge_checksum(a), fnv1a(congest::to_json(a.ledger)));
}

// The scheduler knobs run_and_record pins from a spec.
api::RunContext context_for(const api::RunSpec& spec) {
  api::RunContext ctx;
  ctx.seed = spec.scenario.seed;
  ctx.sched.full_sweep = spec.full_sweep;
  ctx.sched.fault = spec.fault;
  ctx.sched.threads = spec.threads;
  ctx.sched.sequential_scales = spec.sequential_scales;
  if (spec.max_rounds > 0) ctx.sched.max_rounds = spec.max_rounds;
  return ctx;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t k = v.size(); k > 1; --k)
    std::swap(v[k - 1], v[rng.next_below(k)]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

// The highest of these percentiles with at least ten samples beyond it;
// the median when there are too few samples for any tail.
struct Tail {
  double value = 0.0;
  double pct = 50.0;
  std::size_t samples = 0;
};

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      t.pct = p;
      break;
    }
  }
  t.value = percentile(v, t.pct);
  return t;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

// ------------------------------------------------------------ record reading

const service::JsonValue* path(const service::JsonValue& v,
                               std::initializer_list<const char*> keys) {
  const service::JsonValue* cur = &v;
  for (const char* k : keys) {
    cur = cur->find(k);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

double number_at(const service::JsonValue* v) {
  if (v == nullptr || v->type != service::JsonValue::Type::kNumber) return 0.0;
  return std::strtod(v->raw.c_str(), nullptr);
}

// Model costs and quality of one record; false if it is not a record.
bool read_record(const std::string& record, congest::CostStats* cost,
                 double* stretch, double* lightness) {
  service::JsonValue v;
  std::string err;
  if (!service::parse_json(record, &v, &err)) return false;
  const service::JsonValue* total = path(v, {"cost", "total"});
  if (total == nullptr) return false;
  cost->rounds = static_cast<std::uint64_t>(number_at(total->find("rounds")));
  cost->messages =
      static_cast<std::uint64_t>(number_at(total->find("messages")));
  cost->words = static_cast<std::uint64_t>(number_at(total->find("words")));
  cost->max_edge_load =
      static_cast<std::uint64_t>(number_at(total->find("max_edge_load")));
  *stretch = 0.0;
  *lightness = 0.0;
  if (const service::JsonValue* m = v.find("metrics"); m != nullptr) {
    const service::JsonValue* s = m->find("stretch");
    if (s == nullptr) s = m->find("root_stretch");
    *stretch = number_at(s);
    *lightness = number_at(m->find("lightness"));
  }
  return true;
}

// ------------------------------------------------------------ workload API

struct OpOutput {
  bool error = false;
  std::string record;  // record (or response) bytes; empty if none
  // Fingerprinted against the reference after the op's timer stops.
  std::optional<api::Artifact> artifact;
};

// What one op of a spec must produce, computed outside the timed sections.
struct Reference {
  bool completed = true;  // validate_artifact outcome was kCompleted
  std::string record;     // expected record bytes; empty = repetition check
  std::optional<std::uint64_t> fingerprint;
  // Model costs and quality of one op; read from the record when absent.
  std::optional<congest::CostStats> cost;
  double stretch = 0.0;
  double lightness = 0.0;
};

// Counts summed (or maxed, for "max." keys) over traced ops.
using Counters = std::map<std::string, double>;

void count_max(Counters& c, const std::string& key, double v) {
  double& slot = c[key];
  slot = std::max(slot, v);
}

void count_cost(Counters& c, const congest::CostStats& total) {
  c["congest.messages"] += static_cast<double>(total.messages);
  c["congest.barrier_wait_ns"] += static_cast<double>(total.barrier_wait_ns);
  c["congest.rounds_parallel"] += static_cast<double>(total.rounds_parallel);
  c["congest.rounds_receiver_scan"] +=
      static_cast<double>(total.rounds_receiver_scan);
  c["congest.inbox_reallocs"] += static_cast<double>(total.inbox_reallocs);
  count_max(c, "max.congest.max_shard_skew",
            static_cast<double>(total.max_shard_skew));
}

using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  // One set-up; run several times, the last one's state is kept.
  virtual void setup(Tracer& t) = 0;
  // Once after set-up, untimed: references the ops are checked against.
  virtual void prepare() {}
  virtual std::size_t pass_size() const = 0;
  virtual std::size_t num_specs() const { return pass_size(); }
  virtual std::size_t spec_of(std::size_t i) const { return i; }
  // Op i of a pass, exactly as a user runs it.
  virtual OpOutput run(std::size_t i) = 0;
  // The same op decomposed into the public calls it makes, each in a span.
  // Must open the op's root span ("op") first.
  virtual OpOutput run_traced(std::size_t i, Tracer& t, std::uint64_t op,
                              Counters& c) = 0;
  // Strips per-request framing from `record`; false if the framing is
  // wrong.
  virtual bool canonical_record(std::size_t, std::string&) const {
    return true;
  }
  // One Reference per spec, after the timed loops.
  virtual std::vector<Reference> references() = 0;
  virtual void begin_traced() {}
  virtual void layer_metrics(Metrics&, std::size_t /*traced_passes*/) {}
  virtual std::string notes() const { return ""; }
};

// ------------------------------------------------------------ spec workloads

// Ops are spec strings: parse_single_run_spec + run_and_record on a
// scenario materialized during set-up.
class SpecWorkload : public Workload {
 public:
  explicit SpecWorkload(std::vector<std::string> specs)
      : specs_(std::move(specs)) {}

  void setup(Tracer& t) override {
    scenarios_.clear();
    scenario_of_.assign(specs_.size(), 0);
    std::map<std::string, std::size_t> by_key;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      api::RunSpec spec;
      const std::string err =
          api::parse_single_run_spec(split_tokens(specs_[i]), &spec);
      if (!err.empty())
        throw std::runtime_error("bad spec '" + specs_[i] + "': " + err);
      const std::string key = api::canonical_scenario_key(spec.scenario);
      auto [it, inserted] = by_key.emplace(key, scenarios_.size());
      if (inserted) {
        auto s = std::make_unique<Scenario>();
        {
          ScopedSpan span(t, "graph.materialize", 0);
          s->graph = api::materialize(spec.scenario);
        }
        {
          ScopedSpan span(t, "graph.hop_diameter", 0);
          s->hop_diameter = s->graph.hop_diameter();
        }
        scenarios_.push_back(std::move(s));
      }
      scenario_of_[i] = it->second;
    }
  }

  std::size_t pass_size() const override { return specs_.size(); }

  OpOutput run(std::size_t i) override {
    OpOutput out;
    api::RunSpec spec;
    if (!api::parse_single_run_spec(split_tokens(specs_[i]), &spec).empty()) {
      out.error = true;
      return out;
    }
    const Scenario& s = *scenarios_[scenario_of_[i]];
    api::RunRecord r =
        api::run_and_record(s.graph, s.hop_diameter, spec, api::RunContext{});
    out.error = r.error;
    out.record = std::move(r.json);
    return out;
  }

  OpOutput run_traced(std::size_t i, Tracer& t, std::uint64_t op,
                      Counters& c) override {
    OpOutput out;
    const Scenario& s = *scenarios_[scenario_of_[i]];
    api::RunSpec spec;
    api::Artifact artifact;
    {
      ScopedSpan root(t, "op", op);
      {
        ScopedSpan span(t, "api.parse", op);
        if (!api::parse_single_run_spec(split_tokens(specs_[i]), &spec)
                 .empty())
          out.error = true;
      }
      if (out.error) return out;
      const api::Construction& con = *spec.construction;
      const api::RunContext ctx = context_for(spec);
      try {
        ScopedSpan span(t, "core.construct.", op, con.name());
        artifact = con.name() == "doubling_spanner"
                       ? traced_doubling(s.graph, spec, ctx, t, span.id(), c)
                       : con.run(s.graph, spec.params, ctx);
      } catch (const std::exception&) {
        out.error = true;
        return out;
      }
      count_cost(c, artifact.ledger.total());
      api::QualityReport report;
      if (spec.quality) {
        ScopedSpan span(t, "api.report.verify", op);
        report = api::evaluate_artifact(s.graph, con.kind(), artifact);
      }
      {
        // The serializations run_and_record concatenates into the record.
        ScopedSpan span(t, "api.record.emit", op);
        std::string line = api::params_json(spec.params);
        line += api::to_json(report);
        line += api::to_json(artifact.diagnostics);
        line += congest::to_json(artifact.ledger);
        // Keeps the serialization observable, so it is not optimized away.
        c["api.record.bytes"] += static_cast<double>(line.size());
      }
    }
    {
      ScopedSpan span(t, "api.validate", op);
      const api::Validation v = api::validate_artifact(
          s.graph, *spec.construction, spec.params, artifact);
      if (v.outcome != api::RunOutcome::kCompleted) out.error = true;
    }
    out.artifact = std::move(artifact);
    return out;
  }

  std::vector<Reference> references() override {
    std::vector<Reference> refs(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      api::RunSpec spec;
      if (!api::parse_single_run_spec(split_tokens(specs_[i]), &spec)
               .empty()) {
        refs[i].completed = false;
        continue;
      }
      const Scenario& s = *scenarios_[scenario_of_[i]];
      refs[i] = validated_reference(s.graph, spec, &checksums_[specs_[i]]);
    }
    return refs;
  }

  // The output checksum of the single spec, or of all specs folded in spec
  // order (independent of the seeded op order).
  std::string notes() const override {
    std::uint64_t h = 0;
    for (const auto& [spec, checksum] : checksums_)
      h = checksums_.size() == 1 ? checksum : fold(h, checksum);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "edge_checksum=%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }

 private:
  struct Scenario {
    WeightedGraph graph;
    int hop_diameter = 0;
  };

  // Construction::run under the spec's context, fingerprinted and checked
  // with validate_artifact.
  static Reference validated_reference(const WeightedGraph& g,
                                       const api::RunSpec& spec,
                                       std::uint64_t* checksum) {
    Reference ref;
    try {
      const api::Artifact a =
          spec.construction->run(g, spec.params, context_for(spec));
      ref.fingerprint = fingerprint(a);
      *checksum = edge_checksum(a);
      ref.completed = api::validate_artifact(g, *spec.construction,
                                             spec.params, a)
                          .outcome == api::RunOutcome::kCompleted;
    } catch (const std::exception&) {
      ref.completed = false;
    }
    return ref;
  }

  std::vector<std::string> specs_;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
  std::vector<std::size_t> scenario_of_;
  std::map<std::string, std::uint64_t> checksums_;

  // doubling_spanner called through its public entry point, which also
  // returns the per-scale wall breakdown (ScaleDiagnostics) and the ledger
  // phases the registry adapter folds away. Same artifact edges and ledger
  // as the adapter.
  static api::Artifact traced_doubling(const WeightedGraph& g,
                                       const api::RunSpec& spec,
                                       const api::RunContext& ctx, Tracer& t,
                                       int parent, Counters& c) {
    DoublingSpannerParams params;
    params.epsilon = spec.params.epsilon;
    params.use_hopset = spec.params.use_hopset;
    DoublingSpannerResult r = build_doubling_spanner(g, params, ctx);
    double explore = 0.0, net = 0.0, seedchain = 0.0, pairs = 0.0;
    for (const ScaleDiagnostics& d : r.scales) {
      explore += d.explore_wall_ms;
      net += d.net_wall_ms;
      seedchain += d.seedchain_wall_ms;
      pairs += d.pairs_wall_ms;
      c["routines.explore.shell_announcements"] +=
          static_cast<double>(d.explore_shell_announcements);
      c["routines.explore.records_inherited"] +=
          static_cast<double>(d.explore_records_inherited);
      count_max(c, "max.routines.explore.max_sources_per_vertex",
                static_cast<double>(d.max_sources_per_vertex));
    }
    std::int64_t at = t.span(parent).start_ns;
    at = t.add_measured("routines.explore", parent, at, explore);
    at = t.add_measured("core.doubling.net", parent, at, net);
    at = t.add_measured("core.doubling.seedchain", parent, at, seedchain);
    t.add_measured("core.doubling.pairs", parent, at, pairs);
    // Ledger phases grouped by suffix: wave-N-explore / scale-K-explore,
    // scale-K-net/..., scale-K-seedchain.
    for (const auto& [name, cost] : r.ledger.phases()) {
      const auto ends_with = [&name](std::string_view suffix) {
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
      };
      if (ends_with("-explore")) {
        c["routines.explore.messages"] += static_cast<double>(cost.messages);
        c["routines.explore.words"] += static_cast<double>(cost.words);
      } else if (ends_with("-seedchain")) {
        c["core.doubling.seedchain.messages"] +=
            static_cast<double>(cost.messages);
      } else if (name.find("-net") != std::string::npos) {
        c["core.doubling.net.messages"] += static_cast<double>(cost.messages);
      }
    }
    api::Artifact a;
    a.edges = std::move(r.spanner);
    a.ledger = std::move(r.ledger);
    return a;
  }
};

std::string scenario_spec(const std::string& construction,
                          const std::string& family, int n,
                          std::uint64_t seed) {
  return "construction=" + construction + " scenario=" + family +
         ":n=" + std::to_string(n) + ":seed=" + std::to_string(seed);
}

// The instances are fixed, so model costs and quality are exact functions
// of the code: a seed that picked other graphs would move them by the
// instance-to-instance spread (3-7% in messages, more in stretch), which is
// wider than any change worth gating. The seed varies what does not change
// the work: here nothing (one op per pass), in the sweep the op order, in
// the service the request order.
std::unique_ptr<Workload> make_doubling() {
  return std::make_unique<SpecWorkload>(std::vector<std::string>{
      scenario_spec("doubling_spanner", "er", 1024, 1)});
}

std::unique_ptr<Workload> make_sweep(std::uint64_t seed) {
  std::vector<std::string> specs;
  for (const char* c : {"slt", "slt_light", "light_spanner", "net",
                        "mst_weight_estimate", "baswana_sen", "elkin_neiman",
                        "bfs_tree"})
    for (const char* f : {"er", "geo", "ring", "grid"})
      specs.push_back(scenario_spec(c, f, 1024, 1));
  Rng rng(seed ^ 0x7377656570ULL);
  shuffle(specs, rng);
  return std::make_unique<SpecWorkload>(std::move(specs));
}

// ------------------------------------------------------------ bfs workload

// The registry's bfs_tree on a 2^20-vertex grid at threads=4. Ops are
// Construction::run only: the record path's exact hop_diameter is
// O(n*m) at this size.
class BfsWorkload : public Workload {
 public:
  explicit BfsWorkload(std::uint64_t seed) {
    scenario_.family = "grid";
    scenario_.n = 1 << 20;
    scenario_.seed = seed;
  }

  void setup(Tracer& t) override {
    graph_ = WeightedGraph();
    ScopedSpan span(t, "graph.materialize", 0);
    graph_ = api::materialize(scenario_);
  }

  void prepare() override {
    // The threads=1 run every threads=4 op must reproduce.
    const api::Artifact a = bfs_->run(graph_, params_, context(1));
    ref_.fingerprint = fingerprint(a);
    ref_.completed = api::validate_artifact(graph_, *bfs_, params_, a)
                         .outcome == api::RunOutcome::kCompleted;
    ref_.cost = a.ledger.total();
    const api::QualityReport q =
        api::evaluate_artifact(graph_, bfs_->kind(), a);
    ref_.stretch = q.value_or("root_stretch", 0.0);
    ref_.lightness = q.value_or("lightness", 0.0);
    checksum_ = edge_checksum(a);
  }

  std::size_t pass_size() const override { return 1; }

  OpOutput run(std::size_t) override {
    OpOutput out;
    out.artifact = bfs_->run(graph_, params_, context(kBfsThreads));
    return out;
  }

  OpOutput run_traced(std::size_t, Tracer& t, std::uint64_t op,
                      Counters& c) override {
    OpOutput out;
    {
      ScopedSpan root(t, "op", op);
      ScopedSpan span(t, "core.construct.", op, "bfs_tree");
      out.artifact = bfs_->run(graph_, params_, context(kBfsThreads));
      const congest::CostStats& total = out.artifact->ledger.total();
      t.add_measured("congest.barrier_wait", span.id(),
                     t.span(span.id()).start_ns,
                     static_cast<double>(total.barrier_wait_ns) / 1e6);
    }
    count_cost(c, out.artifact->ledger.total());
    ScopedSpan span(t, "api.validate", op);
    if (api::validate_artifact(graph_, *bfs_, params_, *out.artifact)
            .outcome != api::RunOutcome::kCompleted)
      out.error = true;
    return out;
  }

  std::vector<Reference> references() override { return {ref_}; }

  std::string notes() const override {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "edge_checksum=%016llx oversubscribed=%s",
                  static_cast<unsigned long long>(checksum_),
                  std::thread::hardware_concurrency() < kBfsThreads ? "true"
                                                                    : "false");
    return buf;
  }

 private:
  api::RunContext context(int threads) const {
    api::RunContext ctx;
    ctx.seed = scenario_.seed;
    ctx.sched.threads = threads;
    return ctx;
  }

  api::ScenarioSpec scenario_;
  const api::Construction* bfs_ = api::find_construction("bfs_tree");
  api::ConstructionParams params_;
  WeightedGraph graph_;
  Reference ref_;
  std::uint64_t checksum_ = 0;
};

// ------------------------------------------------------------ service workload

// One warm LightnetServer (default caches) replaying a Zipf(1.1) trace of
// 4000 requests over 448 specs: 7 constructions x {er, geo, grid, ring} at
// n=256 x scenario seeds 1..16. Which spec holds which popularity rank is
// fixed; how many requests each rank gets is its Zipf share of 4000; the
// seed shuffles the request order.
class ServiceWorkload : public Workload {
 public:
  static constexpr std::size_t kRequests = 4000;
  static constexpr std::size_t kWarmup = 400;

  explicit ServiceWorkload(std::uint64_t seed) {
    for (const char* c : {"bfs_tree", "slt", "slt_light", "light_spanner",
                          "net", "mst_weight_estimate", "baswana_sen"})
      for (const char* f : {"er", "geo", "grid", "ring"})
        for (std::uint64_t s = 1; s <= 16; ++s)
          specs_.push_back(scenario_spec(c, f, 256, s));
    std::vector<std::size_t> by_rank(specs_.size());
    for (std::size_t k = 0; k < by_rank.size(); ++k) by_rank[k] = k;
    Rng rank_rng(0x72616e6b73ULL);
    shuffle(by_rank, rank_rng);
    const std::vector<std::size_t> counts = zipf_counts(by_rank.size());
    for (std::size_t k = 0; k < counts.size(); ++k)
      trace_.insert(trace_.end(), counts[k], by_rank[k]);
    Rng order_rng(seed ^ 0x747261636557ULL);
    shuffle(trace_, order_rng);
    lines_.reserve(trace_.size());
    for (std::size_t i = 0; i < trace_.size(); ++i)
      lines_.push_back("{\"op\":\"run\",\"id\":" + std::to_string(i) +
                       ",\"spec\":\"" + specs_[trace_[i]] + "\"}");
  }

  void setup(Tracer& t) override {
    server_.reset();
    server_ = std::make_unique<service::LightnetServer>();
    ScopedSpan span(t, "service.warmup", 0);
    for (std::size_t i = 0; i < kWarmup; ++i) server_->handle_line(lines_[i]);
  }

  void prepare() override {
    prefixes_.clear();
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      api::RunSpec spec;
      api::parse_single_run_spec(split_tokens(specs_[trace_[i]]), &spec);
      prefixes_.push_back(
          "{\"id\":" + std::to_string(i) + ",\"ok\":true,\"key\":\"" +
          api::canonical_run_hash(api::canonical_run_key(spec)) +
          "\",\"record\":");
    }
  }

  std::size_t pass_size() const override { return trace_.size(); }
  std::size_t num_specs() const override { return specs_.size(); }
  std::size_t spec_of(std::size_t i) const override { return trace_[i]; }

  OpOutput run(std::size_t i) override {
    OpOutput out;
    out.record = server_->handle_line(lines_[i]);
    return out;
  }

  OpOutput run_traced(std::size_t i, Tracer& t, std::uint64_t op,
                      Counters&) override {
    OpOutput out;
    int root_id = -1;
    {
      ScopedSpan root(t, "op", op);
      root_id = root.id();
      ScopedSpan span(t, "service.handle_line", op);
      out.record = server_->handle_line(lines_[i]);
    }
    // Hit or miss, from the artifact cache's hit counter.
    const Stats now = stats();
    const double ms = perfbench::span_ms(t.span(root_id));
    if (now.hits > last_.hits)
      hit_us_.push_back(ms * 1e3);
    else
      miss_ms_.push_back(ms);
    last_ = now;
    return out;
  }

  bool canonical_record(std::size_t i, std::string& record) const override {
    const std::string& prefix = prefixes_[i];
    if (record.size() < prefix.size() + 1 ||
        record.compare(0, prefix.size(), prefix) != 0 || record.back() != '}')
      return false;
    record = record.substr(prefix.size(), record.size() - prefix.size() - 1);
    return true;
  }

  // The cold record of every spec the trace uses: run_and_record with no
  // caches, on a freshly materialized scenario.
  std::vector<Reference> references() override {
    std::vector<Reference> refs(specs_.size());
    std::vector<char> used(specs_.size(), 0);
    for (const std::size_t s : trace_) used[s] = 1;
    std::map<std::string, std::unique_ptr<service::ScenarioEntry>> graphs;
    for (std::size_t s = 0; s < specs_.size(); ++s) {
      if (!used[s]) continue;
      api::RunSpec spec;
      if (!api::parse_single_run_spec(split_tokens(specs_[s]), &spec)
               .empty()) {
        refs[s].completed = false;
        continue;
      }
      std::unique_ptr<service::ScenarioEntry>& entry =
          graphs[api::canonical_scenario_key(spec.scenario)];
      if (!entry)
        entry = std::make_unique<service::ScenarioEntry>(
            api::materialize(spec.scenario));
      refs[s].record = api::run_and_record(entry->graph, entry->hop_diameter,
                                           spec, api::RunContext{})
                           .json;
      try {
        const api::Artifact a = spec.construction->run(
            entry->graph, spec.params, context_for(spec));
        refs[s].completed =
            api::validate_artifact(entry->graph, *spec.construction,
                                   spec.params, a)
                .outcome == api::RunOutcome::kCompleted;
      } catch (const std::exception&) {
        refs[s].completed = false;
      }
    }
    return refs;
  }

  void begin_traced() override {
    start_ = stats();
    last_ = start_;
  }

  void layer_metrics(Metrics& m, std::size_t traced_passes) override {
    const Stats end = stats();
    const double hits = static_cast<double>(hit_us_.size());
    const double total = hits + static_cast<double>(miss_ms_.size());
    const double passes =
        static_cast<double>(std::max<std::size_t>(traced_passes, 1));
    m["service.hit_ratio"] = total > 0 ? hits / total : 0.0;
    m["service.hit_us.p50"] = median(hit_us_);
    m["service.miss_ms.p50"] = median(miss_ms_);
    m["service.miss_ms.tail"] = tail_of(miss_ms_).value;
    const double scenario_lookups = static_cast<double>(
        end.scenario_hits + end.scenario_misses - start_.scenario_hits -
        start_.scenario_misses);
    m["service.scenario_hit_ratio"] =
        scenario_lookups > 0
            ? static_cast<double>(end.scenario_hits - start_.scenario_hits) /
                  scenario_lookups
            : 0.0;
    const double substrate = static_cast<double>(end.substrate_builds +
                                                 end.substrate_shares);
    m["service.substrate_share_ratio"] =
        substrate > 0 ? static_cast<double>(end.substrate_shares) / substrate
                      : 0.0;
    m["service.evictions"] =
        static_cast<double>(end.evictions - start_.evictions) / passes;
    m["service.arena_adoptions"] =
        static_cast<double>(end.adoptions - start_.adoptions) / passes;
  }

  std::string notes() const override {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "trace: %zu requests over %zu specs",
                  trace_.size(), specs_.size());
    return buf;
  }

 private:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t scenario_hits = 0;
    std::uint64_t scenario_misses = 0;
    std::uint64_t substrate_builds = 0;
    std::uint64_t substrate_shares = 0;
    std::uint64_t adoptions = 0;
  };

  Stats stats() const {
    Stats s;
    service::JsonValue v;
    std::string err;
    if (!service::parse_json(server_->stats_json(), &v, &err)) return s;
    const auto at = [&v](std::initializer_list<const char*> keys) {
      return static_cast<std::uint64_t>(number_at(path(v, keys)));
    };
    s.hits = at({"artifact", "hits"});
    s.evictions = at({"artifact", "evictions"});
    s.scenario_hits = at({"scenario", "hits"});
    s.scenario_misses = at({"scenario", "misses"});
    s.substrate_builds = at({"substrate", "builds"});
    s.substrate_shares = at({"substrate", "shares"});
    s.adoptions = at({"scheduler", "arena_adoptions"});
    return s;
  }

  // Requests per popularity rank: each rank's Zipf(1.1) share of
  // kRequests, rounded by largest remainder so the counts sum exactly.
  static std::vector<std::size_t> zipf_counts(std::size_t ranks) {
    std::vector<double> share(ranks);
    double total = 0.0;
    for (std::size_t k = 0; k < ranks; ++k)
      total += share[k] = 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    std::vector<std::size_t> counts(ranks);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::size_t assigned = 0;
    for (std::size_t k = 0; k < ranks; ++k) {
      const double exact = static_cast<double>(kRequests) * share[k] / total;
      counts[k] = static_cast<std::size_t>(exact);
      assigned += counts[k];
      remainders.push_back({exact - static_cast<double>(counts[k]), k});
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t j = 0; assigned < kRequests; ++j, ++assigned)
      ++counts[remainders[j].second];
    return counts;
  }

  std::vector<std::string> specs_;
  std::vector<std::size_t> trace_;  // spec index per request
  std::vector<std::string> lines_;
  std::vector<std::string> prefixes_;
  std::unique_ptr<service::LightnetServer> server_;
  Stats start_, last_;
  std::vector<double> hit_us_;
  std::vector<double> miss_ms_;
};

// ------------------------------------------------------------ checking

// Collects op outputs and turns them into the failed count: an error
// record, a framing or byte difference across repetitions of one spec, a
// difference from the spec's reference record or fingerprint, or a
// validate_artifact outcome other than completed.
class Checker {
 public:
  explicit Checker(std::size_t specs)
      : first_(specs), good_(specs, 0), fingerprints_(specs) {}

  void observe(const Workload& w, std::size_t i, OpOutput out) {
    const std::size_t s = w.spec_of(i);
    ++attempted_;
    bool ok = !out.error;
    if (ok && !out.record.empty()) {
      if (!w.canonical_record(i, out.record))
        ok = false;
      else if (!first_[s])
        first_[s] = std::move(out.record);
      else if (*first_[s] != out.record)
        ok = false;
    }
    if (ok && out.artifact) fingerprints_[s].push_back(fingerprint(*out.artifact));
    if (ok)
      ++good_[s];
    else
      ++failed_;
  }

  void finalize(const std::vector<Reference>& refs) {
    for (std::size_t s = 0; s < refs.size(); ++s) {
      const Reference& ref = refs[s];
      std::size_t bad = 0;
      if (!ref.completed ||
          (!ref.record.empty() && first_[s] && *first_[s] != ref.record)) {
        bad = good_[s];
      } else if (ref.fingerprint) {
        for (const std::uint64_t fp : fingerprints_[s])
          if (fp != *ref.fingerprint) ++bad;
      }
      failed_ += bad;
      good_[s] -= bad;
    }
  }

  // The record a spec's ops returned (empty if none).
  const std::string& record(std::size_t s) const {
    static const std::string empty;
    return first_[s] ? *first_[s] : empty;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::vector<std::optional<std::string>> first_;
  std::vector<std::size_t> good_;
  std::vector<std::vector<std::uint64_t>> fingerprints_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ------------------------------------------------------------ the run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_dir = ".";
};

struct Loop {
  std::vector<double> op_ms;
  double busy_ms = 0.0;
  std::size_t passes = 0;
};

// Whole passes until `seconds` have elapsed (at least one).
Loop run_loop(Workload& w, Checker& checker, Tracer* tracer, Counters& c,
              double seconds, std::uint64_t& next_op) {
  Loop loop;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < w.pass_size(); ++i) {
      const std::uint64_t op = next_op++;
      OpOutput out;
      double ms = 0.0;
      if (tracer != nullptr) {
        const int root = static_cast<int>(tracer->spans().size());
        out = w.run_traced(i, *tracer, op, c);
        ms = perfbench::span_ms(tracer->span(root));
      } else {
        const Clock::time_point t0 = Clock::now();
        out = w.run(i);
        ms = ms_since(t0);
      }
      loop.op_ms.push_back(ms);
      loop.busy_ms += ms;
      checker.observe(w, i, std::move(out));
    }
    ++loop.passes;
  } while (ms_since(start) < seconds * 1e3);
  return loop;
}

struct MetricDef {
  std::string name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"op_ms.p50", "ms"},
    {"op_ms.tail", "ms"},
    {"peak_rss_mb", "MB"},
    {"model.rounds", "count"},
    {"model.messages", "count"},
    {"model.words", "count"},
    {"model.max_edge_load", "count"},
    {"quality.stretch_sum", "ratio"},
    {"quality.lightness_sum", "ratio"},
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> defs = {
      {"graph.materialize_ms", "ms"},
      {"graph.hop_diameter_ms", "ms"},
      {"api.parse_ms", "ms"},
      {"core.construct_ms", "ms"},
  };
  for (const std::string& c : kConstructions)
    defs.push_back({"core.construct_ms." + c, "ms"});
  const std::vector<MetricDef> rest = {
      {"routines.explore_ms", "ms"},
      {"core.doubling.net_ms", "ms"},
      {"core.doubling.seedchain_ms", "ms"},
      {"core.doubling.pairs_ms", "ms"},
      {"routines.explore.messages", "count"},
      {"routines.explore.words", "count"},
      {"core.doubling.net.messages", "count"},
      {"core.doubling.seedchain.messages", "count"},
      {"routines.explore.shell_announcements", "count"},
      {"routines.explore.records_inherited", "count"},
      {"routines.explore.max_sources_per_vertex", "count"},
      {"congest.msgs_per_s", "1/s"},
      {"congest.barrier_wait_ms", "ms"},
      {"congest.barrier_share", "ratio"},
      {"congest.rounds_parallel", "count"},
      {"congest.rounds_receiver_scan", "count"},
      {"congest.max_shard_skew", "count"},
      {"congest.inbox_reallocs", "count"},
      {"api.report.verify_ms", "ms"},
      {"api.report.verify_share", "ratio"},
      {"api.validate.validate_ms", "ms"},
      {"api.record.emit_ms", "ms"},
      {"service.hit_ratio", "ratio"},
      {"service.hit_us.p50", "us"},
      {"service.miss_ms.p50", "ms"},
      {"service.miss_ms.tail", "ms"},
      {"service.scenario_hit_ratio", "ratio"},
      {"service.substrate_share_ratio", "ratio"},
      {"service.evictions", "count"},
      {"service.arena_adoptions", "count"},
      {"trace.overhead_ms", "ms"},
      {"trace.coverage", "ratio"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

// Per-layer numbers from the traced ops' spans and counters. Times are per
// op of the layer's workload share: a layer that runs once per op reports
// its mean per op, so the layers of one op add up to the op.
void span_metrics(const Tracer& t, const Counters& c, Metrics& m) {
  const std::map<std::string, perfbench::LayerTime> lt = perfbench::layer_times(t);
  const auto incl = [&lt](const std::string& name) {
    const auto it = lt.find(name);
    return it == lt.end() ? 0.0 : it->second.inclusive_ms;
  };
  const auto count = [&lt](const std::string& name) {
    const auto it = lt.find(name);
    return it == lt.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const auto ctr = [&c](const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };

  const double ops = count("op");
  const double op_ms = incl("op");
  const double setups = count("graph.materialize") > 0 ? kSetupReps : 0;
  m["graph.materialize_ms"] = per(incl("graph.materialize"), setups);
  m["graph.hop_diameter_ms"] = per(incl("graph.hop_diameter"), setups);
  m["api.parse_ms"] = per(incl("api.parse"), ops);
  double construct_ms = 0.0;
  for (const std::string& name : kConstructions) {
    const std::string span = "core.construct." + name;
    construct_ms += incl(span);
    m["core.construct_ms." + name] = per(incl(span), count(span));
  }
  m["core.construct_ms"] = per(construct_ms, ops);

  const double doubling_ops = count("core.construct.doubling_spanner");
  m["routines.explore_ms"] = per(incl("routines.explore"), doubling_ops);
  m["core.doubling.net_ms"] = per(incl("core.doubling.net"), doubling_ops);
  m["core.doubling.seedchain_ms"] =
      per(incl("core.doubling.seedchain"), doubling_ops);
  m["core.doubling.pairs_ms"] = per(incl("core.doubling.pairs"), doubling_ops);
  for (const char* name :
       {"routines.explore.messages", "routines.explore.words",
        "core.doubling.net.messages", "core.doubling.seedchain.messages",
        "routines.explore.shell_announcements",
        "routines.explore.records_inherited"})
    m[name] = per(ctr(name), doubling_ops);
  m["routines.explore.max_sources_per_vertex"] =
      ctr("max.routines.explore.max_sources_per_vertex");

  const double barrier_ms = ctr("congest.barrier_wait_ns") / 1e6;
  m["congest.msgs_per_s"] = per(ctr("congest.messages"), construct_ms / 1e3);
  m["congest.barrier_wait_ms"] = per(barrier_ms, ops);
  m["congest.barrier_share"] = per(barrier_ms, construct_ms);
  m["congest.rounds_parallel"] = per(ctr("congest.rounds_parallel"), ops);
  m["congest.rounds_receiver_scan"] =
      per(ctr("congest.rounds_receiver_scan"), ops);
  m["congest.max_shard_skew"] = ctr("max.congest.max_shard_skew");
  m["congest.inbox_reallocs"] = per(ctr("congest.inbox_reallocs"), ops);

  m["api.report.verify_ms"] = per(incl("api.report.verify"), ops);
  m["api.report.verify_share"] = per(incl("api.report.verify"), op_ms);
  m["api.validate.validate_ms"] =
      per(incl("api.validate"), count("api.validate"));
  m["api.record.emit_ms"] = per(incl("api.record.emit"), ops);
  const auto op_it = lt.find("op");
  m["trace.coverage"] =
      op_it == lt.end() ? 0.0 : per(op_ms - op_it->second.self_ms, op_ms);
}

void print_self_times(const Tracer& t) {
  const std::map<std::string, perfbench::LayerTime> lt = perfbench::layer_times(t);
  std::vector<std::pair<double, std::string>> rows;
  double total = 0.0;
  for (const auto& [name, l] : lt) {
    rows.push_back({l.self_ms, name});
    total += l.self_ms;
  }
  std::sort(rows.rbegin(), rows.rend());
  std::printf("# per-layer self time (span time minus its child spans)\n");
  for (const auto& [self_ms, name] : rows)
    std::printf("#   %-36s %12.3f ms %6.2f%%  (%zu spans)\n", name.c_str(),
                self_ms, total > 0 ? 100.0 * self_ms / total : 0.0,
                lt.at(name).count);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "doubling_er1024") return make_doubling();
  if (name == "registry_sweep") return make_sweep(seed);
  if (name == "bfs_grid1m_t4") return std::make_unique<BfsWorkload>(seed);
  if (name == "service_zipf") return std::make_unique<ServiceWorkload>(seed);
  return nullptr;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "doubling_er1024|registry_sweep|bfs_grid1m_t4|service_zipf "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--trace-dir DIR]\n",
               msg);
  return 2;
}

bool parse_options(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return false;
      o->trace = value[0] == '1';
    } else if (key == "--commit") {
      o->commit = value;
    } else if (key == "--trace-dir") {
      o->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return usage("bad arguments");
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  if (!w) return usage(("unknown workload '" + opt.workload + "'").c_str());

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "# profile {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"nproc\":%u,\"cpu\":\"%s\",\"build_type\":\"%s\","
      "\"cxx_flags\":\"%s\",\"compiler\":\"%s\",\"commit\":\"%s\","
      "\"oversubscribed\":%s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      api::json_number(opt.seconds).c_str(), opt.trace ? 1 : 0, nproc,
      congest::json_escape(cpu_model()).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER,
      congest::json_escape(opt.commit).c_str(),
      opt.workload == "bfs_grid1m_t4" && nproc < kBfsThreads ? "true"
                                                              : "false");

  Tracer tracer;
  tracer.set_enabled(opt.trace);
  std::vector<double> setup_s;
  try {
    for (int r = 0; r < kSetupReps; ++r) {
      const Clock::time_point t0 = Clock::now();
      w->setup(tracer);
      setup_s.push_back(ms_since(t0) / 1e3);
    }
    w->prepare();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  tracer.set_enabled(false);

  Checker checker(w->num_specs());
  Counters counters;
  std::uint64_t next_op = 1;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Loop loop =
      run_loop(*w, checker, nullptr, counters, untraced_s, next_op);
  Loop traced;
  if (opt.trace) {
    w->begin_traced();
    tracer.set_enabled(true);
    traced = run_loop(*w, checker, &tracer, counters, opt.seconds / 2, next_op);
    tracer.set_enabled(false);
  }
  const std::vector<Reference> refs = w->references();
  checker.finalize(refs);

  Metrics m;
  std::vector<MetricDef> defs;
  if (!opt.trace) {
    defs = kEndToEnd;
    const Tail tail = tail_of(loop.op_ms);
    m["setup_s"] = median(setup_s);
    m["ops_per_s"] = static_cast<double>(loop.op_ms.size()) /
                     (loop.busy_ms / 1e3);
    m["op_ms.p50"] = median(loop.op_ms);
    m["op_ms.tail"] = tail.value;
    m["peak_rss_mb"] = peak_rss_mb();
    // Model costs and quality of one pass; cache hits count too.
    congest::CostStats model;
    double stretch = 0.0, lightness = 0.0;
    for (std::size_t i = 0; i < w->pass_size(); ++i) {
      const std::size_t s = w->spec_of(i);
      congest::CostStats cost;
      double st = refs[s].stretch, li = refs[s].lightness;
      if (refs[s].cost)
        cost = *refs[s].cost;
      else if (!read_record(refs[s].record.empty() ? checker.record(s)
                                                   : refs[s].record,
                            &cost, &st, &li))
        continue;
      model += cost;
      stretch += st;
      lightness += li;
    }
    m["model.rounds"] = static_cast<double>(model.rounds);
    m["model.messages"] = static_cast<double>(model.messages);
    m["model.words"] = static_cast<double>(model.words);
    m["model.max_edge_load"] = static_cast<double>(model.max_edge_load);
    m["quality.stretch_sum"] = stretch;
    m["quality.lightness_sum"] = lightness;
    std::printf("# op_ms min %.4f q1 %.4f median %.4f q3 %.4f max %.4f\n",
                percentile(loop.op_ms, 0.0), percentile(loop.op_ms, 25.0),
                median(loop.op_ms), percentile(loop.op_ms, 75.0),
                percentile(loop.op_ms, 100.0));
    std::printf(
        "# %zu ops in %zu passes, op_ms.tail is p%s of %zu samples, "
        "setup_s over %d set-ups\n",
        loop.op_ms.size(), loop.passes, api::json_number(tail.pct).c_str(),
        tail.samples, kSetupReps);
  } else {
    defs = per_layer_defs();
    for (const MetricDef& d : defs) m[d.name] = 0.0;
    span_metrics(tracer, counters, m);
    w->layer_metrics(m, traced.passes);
    m["trace.overhead_ms"] = median(traced.op_ms) - median(loop.op_ms);
    print_self_times(tracer);
    std::printf("# traced op median %.4f ms, untraced %.4f ms (%zu vs %zu ops)\n",
                median(traced.op_ms), median(loop.op_ms), traced.op_ms.size(),
                loop.op_ms.size());
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    if (write_chrome_trace(tracer, path))
      std::printf("# chrome trace: %s\n", path.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  const std::string notes = w->notes();
  if (!notes.empty()) std::printf("# %s\n", notes.c_str());
  const double failed_ratio = static_cast<double>(checker.failed()) /
                              static_cast<double>(checker.attempted());
  std::printf("# failed_ratio %s\n", api::json_number(failed_ratio).c_str());
  for (const MetricDef& d : defs)
    std::printf("# %-40s %18.6f %s\n", d.name.c_str(), m[d.name], d.unit);

  const bool correct = checker.failed() == 0;
  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false");
  line += ",\"attempted\":" + std::to_string(checker.attempted());
  line += ",\"failed\":" + std::to_string(checker.failed());
  line += ",\"metrics\":{";
  for (std::size_t k = 0; k < defs.size(); ++k) {
    // Shortest round-trip form: every digit measured, nothing invented.
    const double v = std::isfinite(m[defs[k].name]) ? m[defs[k].name] : 0.0;
    char value[64];
    const std::to_chars_result end =
        std::to_chars(value, value + sizeof(value), v);
    line += (k == 0 ? "\"" : ",\"") + defs[k].name + "\":{\"value\":" +
            std::string(value, end.ptr) + ",\"unit\":\"" + defs[k].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

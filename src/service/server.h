// lightnetd: the long-running construction service.
//
// Protocol (JSON lines; one request object per line, one response line per
// request, in order):
//
//   {"op":"run","id":<any>,"spec":"construction=slt scenario=er:n=64"}
//     -> {"id":<echoed>,"ok":true,"key":"<16-hex>","record":{...}}
//   {"op":"stats","id":<any>}
//     -> {"id":<echoed>,"ok":true,"stats":{...counters...}}
//   {"op":"shutdown","id":<any>}
//     -> {"id":<echoed>,"ok":true,"shutdown":true}   (then the loop ends)
//   anything malformed
//     -> {"id":<echoed or null>,"ok":false,"error":"..."}
//
// The spec string uses exactly the lightnet_cli axis grammar, restricted to
// one resolved run (api::parse_single_run_spec): one construction, one
// scenario, no sweeps, no wall= (responses must be deterministic). "record"
// is the api/record.h line the CLI would print for the same spec —
// byte-identical, cached or not.
//
// Caching: two bounded layers (service/cache.h says why they differ).
//   - Artifact cache: canonical run key -> finished record line, LRU among
//     the records a cost-weighted admission filter lets in. A hit skips
//     the run entirely; the response is byte-identical to the cold
//     response because the record itself is what's cached, and a record
//     the filter refuses is still returned (hit, miss and refusal are
//     visible only through `stats`, never in the response bytes).
//   - Scenario cache: canonical scenario key -> materialized graph +
//     hop diameter + SubstratePool, plain LRU, so same-scenario requests
//     for different constructions share the graph and its rounded
//     substrates.
// One SchedulerScratch spans all runs: scheduler arenas are adopted and
// returned per kernel execution instead of reallocated per request.
//
// A request combining fault.* with threads>1 is clamped to threads=1 at
// this boundary (api::clamp_reliable_serial) and the record reports
// "threads_clamped":true; the clamped and pre-clamped variants are
// distinct cache entries because their records differ by that field.
//
// The loop is in-process-testable: handle_line() maps one request line to
// one response line with no I/O, serve() runs the pipe mode over stdio
// FILE*s, and serve_tcp() binds a localhost socket for the daemon mode.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "api/cli.h"
#include "api/substrate_pool.h"
#include "congest/scheduler.h"
#include "graph/graph.h"
#include "service/cache.h"

namespace lightnet::service {

struct ServiceOptions {
  std::size_t cache_entries = 256;             // artifact cache: max records
  std::size_t cache_bytes = 64u << 20;         // artifact cache: byte budget
  std::size_t scenario_entries = 32;           // scenario cache: max graphs
  std::size_t scenario_bytes = 256u << 20;     // scenario cache: byte budget
  // False disables BOTH cache layers (every request runs cold) — the
  // baseline mode of the replay harness.
  bool cache_enabled = true;
};

// A cached scenario: the materialized graph, its hop diameter (computed
// once), and the substrate pool bound to the graph. Immovable — the pool
// holds the graph's address — so the cache stores it behind a shared_ptr.
struct ScenarioEntry {
  explicit ScenarioEntry(WeightedGraph g)
      : graph(std::move(g)), hop_diameter(graph.hop_diameter()),
        pool(&graph) {}
  ScenarioEntry(const ScenarioEntry&) = delete;
  ScenarioEntry& operator=(const ScenarioEntry&) = delete;

  WeightedGraph graph;
  int hop_diameter;
  api::SubstratePool pool;
};

class LightnetServer {
 public:
  explicit LightnetServer(ServiceOptions options = {});

  // Maps one request line to one response line (no trailing newline, no
  // I/O). The core the tests, serve() and serve_tcp() all drive.
  std::string handle_line(const std::string& line);

  // Pipe mode: one response line per request line until EOF or a shutdown
  // request. Returns 0.
  int serve(std::FILE* in, std::FILE* out);

  // Local TCP mode: binds 127.0.0.1:port (port 0 picks one; the bound port
  // is printed to `err` as "listening on <port>"), then serves connections
  // sequentially with the same line protocol until a shutdown request.
  // Returns 0, or 1 if the socket could not be bound.
  int serve_tcp(int port, std::FILE* err);

  bool shutdown_requested() const { return shutdown_; }

  // The `stats` response payload (one JSON object, no id wrapper): request
  // and cache counters (the artifact block's "rejected" counts records
  // computed but refused by admission), substrate-pool aggregates over
  // resident scenarios, scheduler arena adoptions. Public so the replay
  // harness can embed the exact server-side counters in BENCH_service.json.
  std::string stats_json() const;

 private:
  struct SizeOfScenario {
    std::size_t operator()(const std::shared_ptr<ScenarioEntry>& e) const;
  };

  std::string handle_run(const std::string& id_json, const std::string& spec);
  std::shared_ptr<ScenarioEntry> scenario_entry(const api::RunSpec& spec);

  ServiceOptions options_;
  ArtifactCache artifacts_;
  LruCache<std::shared_ptr<ScenarioEntry>, SizeOfScenario> scenarios_;
  congest::SchedulerScratch scratch_;
  bool shutdown_ = false;

  // Counters beyond what the caches track themselves.
  std::size_t requests_ = 0;
  std::size_t runs_ = 0;
  std::size_t errors_ = 0;
  std::size_t threads_clamped_ = 0;
};

}  // namespace lightnet::service

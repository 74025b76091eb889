#include "service/server.h"

#include <exception>
#include <string_view>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/record.h"
#include "api/scenario.h"
#include "congest/stats.h"
#include "service/json.h"

namespace lightnet::service {

namespace {

// Accounting estimate of a materialized graph: edge list + CSR incidence.
std::size_t graph_bytes(const WeightedGraph& g) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  return m * sizeof(Edge) + 2 * m * sizeof(Incidence) + n * sizeof(int);
}

std::vector<std::string> split_tokens(std::string_view spec) {
  std::vector<std::string> tokens;
  size_t start = 0;
  while (start < spec.size()) {
    while (start < spec.size() && (spec[start] == ' ' || spec[start] == '\t'))
      ++start;
    size_t end = start;
    while (end < spec.size() && spec[end] != ' ' && spec[end] != '\t') ++end;
    if (end > start) tokens.emplace_back(spec.substr(start, end - start));
    start = end;
  }
  return tokens;
}

std::string error_response(const std::string& id_json, std::string_view msg) {
  return "{\"id\":" + id_json + ",\"ok\":false,\"error\":" + json_quote(msg) +
         "}";
}

}  // namespace

std::size_t LightnetServer::SizeOfScenario::operator()(
    const std::shared_ptr<ScenarioEntry>& e) const {
  // Insertion-time figure for the LRU byte budget; substrates built later
  // are accounted in the stats surface's live aggregation instead.
  return graph_bytes(e->graph);
}

LightnetServer::LightnetServer(ServiceOptions options)
    : options_(options),
      artifacts_(options.cache_entries, options.cache_bytes),
      scenarios_(options.scenario_entries, options.scenario_bytes,
                 SizeOfScenario{}) {}

std::shared_ptr<ScenarioEntry> LightnetServer::scenario_entry(
    const api::RunSpec& spec) {
  const std::string key = api::canonical_scenario_key(spec.scenario);
  if (options_.cache_enabled) {
    const std::shared_ptr<ScenarioEntry>* cached = scenarios_.get(key);
    if (cached != nullptr) return *cached;
  }
  auto entry = std::make_shared<ScenarioEntry>(materialize(spec.scenario));
  if (options_.cache_enabled) scenarios_.insert(key, entry);
  return entry;
}

std::string LightnetServer::handle_run(const std::string& id_json,
                                       const std::string& spec_string) {
  api::RunSpec spec;
  const std::string parse_error =
      api::parse_single_run_spec(split_tokens(spec_string), &spec);
  if (!parse_error.empty()) {
    ++errors_;
    return error_response(id_json, parse_error);
  }

  // Keyed as requested (pre-clamp): a clamped run's record reports
  // "threads_clamped":true, so it must not alias its serial twin's entry.
  const std::string key = api::canonical_run_key(spec);
  const std::uint64_t key_hash = api::canonical_run_fnv1a(key);
  const std::string prefix = "{\"id\":" + id_json +
                             ",\"ok\":true,\"key\":\"" +
                             api::canonical_run_hash(key_hash) +
                             "\",\"record\":";

  if (options_.cache_enabled) {
    const std::string* cached = artifacts_.get(key, key_hash);
    if (cached != nullptr) return prefix + *cached + "}";
  }

  std::shared_ptr<ScenarioEntry> scenario;
  try {
    scenario = scenario_entry(spec);
  } catch (const std::exception& e) {
    ++errors_;
    return error_response(id_json, e.what());
  }

  api::RunContext ctx;
  ctx.substrate_pool = &scenario->pool;
  ctx.sched.scratch = &scratch_;
  const api::RunRecord rec =
      api::run_and_record(scenario->graph, scenario->hop_diameter, spec, ctx);
  ++runs_;
  if (rec.threads_clamped) ++threads_clamped_;
  if (options_.cache_enabled)
    artifacts_.offer(key, key_hash, rec.json, rec.messages);
  return prefix + rec.json + "}";
}

std::string LightnetServer::stats_json() const {
  std::size_t substrate_builds = 0;
  std::size_t substrate_shares = 0;
  std::size_t substrate_entries = 0;
  std::size_t substrate_resident = 0;
  std::size_t scenario_resident = 0;
  scenarios_.for_each(
      [&](const std::string&, const std::shared_ptr<ScenarioEntry>& e) {
        substrate_builds += e->pool.builds();
        substrate_shares += e->pool.shares();
        substrate_entries += e->pool.entries();
        substrate_resident += e->pool.resident_bytes();
        scenario_resident += graph_bytes(e->graph);
      });
  std::string out = "{";
  out += "\"requests\":" + std::to_string(requests_);
  out += ",\"runs\":" + std::to_string(runs_);
  out += ",\"errors\":" + std::to_string(errors_);
  out += ",\"threads_clamped\":" + std::to_string(threads_clamped_);
  out += ",\"cache_enabled\":" +
         std::string(options_.cache_enabled ? "true" : "false");
  const ArtifactCache::Lru& artifact_lru = artifacts_.lru();
  out += ",\"artifact\":{";
  out += "\"hits\":" + std::to_string(artifact_lru.hits());
  out += ",\"misses\":" + std::to_string(artifact_lru.misses());
  out += ",\"evictions\":" + std::to_string(artifact_lru.evictions());
  out += ",\"rejected\":" + std::to_string(artifacts_.rejected());
  out += ",\"entries\":" + std::to_string(artifact_lru.entries());
  out += ",\"resident_bytes\":" +
         std::to_string(artifact_lru.resident_bytes());
  out += ",\"max_entries\":" + std::to_string(artifact_lru.max_entries());
  out += ",\"max_bytes\":" + std::to_string(artifact_lru.max_bytes());
  out += "}";
  out += ",\"scenario\":{";
  out += "\"hits\":" + std::to_string(scenarios_.hits());
  out += ",\"misses\":" + std::to_string(scenarios_.misses());
  out += ",\"evictions\":" + std::to_string(scenarios_.evictions());
  out += ",\"entries\":" + std::to_string(scenarios_.entries());
  out += ",\"resident_bytes\":" + std::to_string(scenario_resident);
  out += ",\"max_entries\":" + std::to_string(scenarios_.max_entries());
  out += "}";
  // Substrate memory is reported here, not under "scenario": the two blocks
  // partition the resident bytes (graphs vs. pooled substrates), so their
  // sum is the service's total cached footprint with no double count.
  out += ",\"substrate\":{";
  out += "\"builds\":" + std::to_string(substrate_builds);
  out += ",\"shares\":" + std::to_string(substrate_shares);
  out += ",\"entries\":" + std::to_string(substrate_entries);
  out += ",\"resident_bytes\":" + std::to_string(substrate_resident);
  out += "}";
  out += ",\"scheduler\":{\"arena_adoptions\":" +
         std::to_string(scratch_.adoptions) + "}";
  out += "}";
  return out;
}

std::string LightnetServer::handle_line(const std::string& line) {
  ++requests_;
  JsonValue request;
  std::string parse_err;
  std::string id_json = "null";
  if (!parse_json(line, &request, &parse_err)) {
    ++errors_;
    return error_response(id_json, "malformed request: " + parse_err);
  }
  if (request.type != JsonValue::Type::kObject) {
    ++errors_;
    return error_response(id_json, "request must be a JSON object");
  }
  // The id is echoed verbatim (its raw source bytes) so a replayed trace
  // yields byte-identical response lines. Container ids are rejected —
  // they have no single raw slice and no use as correlation tokens.
  if (const JsonValue* id = request.find("id"); id != nullptr) {
    if (id->type == JsonValue::Type::kObject ||
        id->type == JsonValue::Type::kArray) {
      ++errors_;
      return error_response(id_json, "id must be a scalar");
    }
    id_json = id->raw;
  }
  const JsonValue* op = request.find("op");
  if (op == nullptr || op->type != JsonValue::Type::kString) {
    ++errors_;
    return error_response(id_json, "missing string field 'op'");
  }
  if (op->text == "run") {
    const JsonValue* spec = request.find("spec");
    if (spec == nullptr || spec->type != JsonValue::Type::kString) {
      ++errors_;
      return error_response(id_json, "op 'run' needs a string field 'spec'");
    }
    return handle_run(id_json, spec->text);
  }
  if (op->text == "stats")
    return "{\"id\":" + id_json + ",\"ok\":true,\"stats\":" + stats_json() +
           "}";
  if (op->text == "shutdown") {
    shutdown_ = true;
    return "{\"id\":" + id_json + ",\"ok\":true,\"shutdown\":true}";
  }
  ++errors_;
  return error_response(id_json, "unknown op '" + op->text + "'");
}

int LightnetServer::serve(std::FILE* in, std::FILE* out) {
  std::string line;
  int c;
  while (!shutdown_) {
    line.clear();
    while ((c = std::fgetc(in)) != EOF && c != '\n')
      line.push_back(static_cast<char>(c));
    if (line.empty() && c == EOF) break;
    if (line.empty()) continue;  // blank keep-alive line
    const std::string response = handle_line(line);
    std::fputs(response.c_str(), out);
    std::fputc('\n', out);
    std::fflush(out);
    if (c == EOF) break;
  }
  return 0;
}

int LightnetServer::serve_tcp(int port, std::FILE* err) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(err, "lightnetd: socket() failed\n");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::fprintf(err, "lightnetd: cannot bind 127.0.0.1:%d\n", port);
    ::close(listener);
    return 1;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  std::fprintf(err, "lightnetd: listening on %d\n", ntohs(addr.sin_port));
  std::fflush(err);

  while (!shutdown_) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) break;
    // One FILE* per direction over the same socket; serve() runs the exact
    // pipe-mode loop over them, so both modes share one code path.
    std::FILE* conn_in = ::fdopen(conn, "r");
    std::FILE* conn_out = ::fdopen(::dup(conn), "w");
    if (conn_in == nullptr || conn_out == nullptr) {
      if (conn_in != nullptr) std::fclose(conn_in);
      else ::close(conn);
      if (conn_out != nullptr) std::fclose(conn_out);
      continue;
    }
    serve(conn_in, conn_out);
    std::fclose(conn_in);
    std::fclose(conn_out);
  }
  ::close(listener);
  return 0;
}

}  // namespace lightnet::service

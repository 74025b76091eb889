// lightnetd service tests, all in-process through LightnetServer::
// handle_line (the exact core both serve() and serve_tcp() drive):
//   - JSON reader: raw-slice id round-trip, error messages instead of throws;
//   - LruCache: LRU order, byte budget, overwrite accounting;
//   - cache hits are byte-identical to the cold response (the tentpole
//     property), including aborted (max_rounds) and degraded (fault) runs
//     whose outcome/diagnostics must survive the cache round trip;
//   - service records are byte-identical to what lightnet_cli prints for
//     the same resolved spec (wall=0);
//   - scenario + substrate sharing across constructions, LRU eviction,
//     scheduler arena adoptions;
//   - the reliable-transport serial clamp is applied and reported at the
//     service boundary, and clamped/serial twins get distinct cache keys;
//   - protocol errors: malformed JSON, bad ops, container ids, sweep specs.
#include "service/server.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/cli.h"
#include "service/cache.h"
#include "service/json.h"

namespace lightnet::service {
namespace {

// ------------------------------------------------------------------ JSON

TEST(ServiceJson, ScalarsKeepRawSourceText) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json("{\"id\":1.50,\"s\":\"a\\nb\",\"t\":true}", &v, &err))
      << err;
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  EXPECT_EQ(v.find("id")->raw, "1.50");  // verbatim, not re-formatted
  EXPECT_EQ(v.find("s")->text, "a\nb");
  EXPECT_EQ(v.find("s")->raw, "\"a\\nb\"");
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServiceJson, ErrorsAreMessagesNotThrows) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parse_json("{\"a\":}", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing", &v, &err));
  EXPECT_FALSE(parse_json("", &v, &err));
  EXPECT_FALSE(parse_json("{\"a\":\"\\q\"}", &v, &err));
}

TEST(ServiceJson, QuoteEscapes) {
  EXPECT_EQ(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

// -------------------------------------------------------------- LruCache

struct SizeIsLength {
  std::size_t operator()(const std::string& s) const { return s.size(); }
};

TEST(ServiceLruCache, EvictsColdEndFirst) {
  LruCache<std::string, SizeIsLength> cache(2, 1u << 20, SizeIsLength{});
  cache.insert("a", "1");
  cache.insert("b", "2");
  ASSERT_NE(cache.get("a"), nullptr);  // promotes a over b
  cache.insert("c", "3");              // evicts b, the LRU entry
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(ServiceLruCache, ByteBudgetBoundsResidency) {
  LruCache<std::string, SizeIsLength> cache(100, 10, SizeIsLength{});
  cache.insert("a", std::string(6, 'x'));
  cache.insert("b", std::string(6, 'y'));  // 12 bytes > 10: evicts a
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_EQ(cache.resident_bytes(), 6u);
  // An oversized value is admitted alone rather than being unstorable.
  cache.insert("big", std::string(64, 'z'));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.get("big"), nullptr);
}

TEST(ServiceLruCache, OverwriteReplacesAndReaccounts) {
  LruCache<std::string, SizeIsLength> cache(4, 1u << 20, SizeIsLength{});
  cache.insert("a", std::string(8, 'x'));
  cache.insert("a", std::string(3, 'y'));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 3u);
  EXPECT_EQ(*cache.get("a"), "yyy");
}

// ---------------------------------------------------------------- server

// Pulls the integer after `"name":` inside the `"section":{...}` object of
// a stats response (flat extraction; the counters are all plain integers).
std::uint64_t stat(const std::string& json, const std::string& section,
                   const std::string& name) {
  const std::size_t sec = json.find("\"" + section + "\":{");
  EXPECT_NE(sec, std::string::npos) << json;
  const std::size_t pos = json.find("\"" + name + "\":", sec);
  EXPECT_NE(pos, std::string::npos) << json;
  return std::stoull(json.substr(pos + name.size() + 3));
}

std::string run_line(const std::string& spec, int id = 1) {
  return "{\"op\":\"run\",\"id\":" + std::to_string(id) + ",\"spec\":\"" +
         spec + "\"}";
}

TEST(ServiceServer, RepeatRequestIsByteIdenticalCacheHit) {
  LightnetServer server;
  const std::string spec = "construction=slt topology=path n=24 seed=1";
  const std::string cold = server.handle_line(run_line(spec));
  const std::string warm = server.handle_line(run_line(spec));
  EXPECT_EQ(cold, warm);  // hit/miss is never visible in response bytes
  EXPECT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"key\":\""), std::string::npos) << cold;
  const std::string stats = server.stats_json();
  EXPECT_EQ(stat(stats, "artifact", "hits"), 1u);
  EXPECT_EQ(stat(stats, "artifact", "misses"), 1u);
  // One service run, several kernel executions: every Scheduler the run
  // constructs adopts the shared scratch. The hit served the second request
  // without any new adoption.
  const std::uint64_t adoptions = stat(stats, "scheduler", "arena_adoptions");
  EXPECT_GE(adoptions, 1u);
  server.handle_line(run_line(spec));  // another pure hit
  EXPECT_EQ(stat(server.stats_json(), "scheduler", "arena_adoptions"),
            adoptions);
}

TEST(ServiceServer, CachedResponseMatchesCacheDisabledServer) {
  ServiceOptions cold_opts;
  cold_opts.cache_enabled = false;
  LightnetServer cold_server(cold_opts);
  LightnetServer warm_server;
  const std::string spec = "construction=baswana_sen topology=er n=40 seed=2";
  const std::string cold = cold_server.handle_line(run_line(spec));
  warm_server.handle_line(run_line(spec));
  const std::string warm = warm_server.handle_line(run_line(spec));
  EXPECT_EQ(cold, warm);
}

TEST(ServiceServer, RecordIsByteIdenticalToCliOutput) {
  // The service response embeds exactly the record lightnet_cli prints for
  // the same resolved spec (with wall=0: service records never carry wall
  // time). This is the shared-emitter property the artifact cache rests on.
  LightnetServer server;
  const std::string response = server.handle_line(
      run_line("construction=elkin_neiman topology=er n=32 seed=3"));
  const std::size_t rec = response.find("\"record\":");
  ASSERT_NE(rec, std::string::npos) << response;
  // Strip the envelope: drop the prefix and the final '}'.
  const std::string service_record =
      response.substr(rec + 9, response.size() - rec - 10);

  std::FILE* out = std::tmpfile();
  std::FILE* err = std::tmpfile();
  const int exit_code =
      api::run_cli({"construction=elkin_neiman", "topology=er", "n=32",
                    "seed=3", "wall=0"},
                   out, err);
  EXPECT_EQ(exit_code, 0);
  std::rewind(out);
  std::string cli_record;
  int c;
  while ((c = std::fgetc(out)) != EOF && c != '\n')
    cli_record.push_back(static_cast<char>(c));
  std::fclose(out);
  std::fclose(err);
  EXPECT_EQ(service_record, cli_record);
}

TEST(ServiceServer, AbortedRunRoundTripsThroughCacheUnchanged) {
  LightnetServer server;
  const std::string spec =
      "construction=bfs_tree topology=path n=64 seed=1 quality=0 max_rounds=5";
  const std::string cold = server.handle_line(run_line(spec));
  const std::string warm = server.handle_line(run_line(spec));
  EXPECT_EQ(cold, warm);
  EXPECT_NE(cold.find("\"outcome\":\"aborted\""), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"max_rounds\":5"), std::string::npos) << cold;
  EXPECT_EQ(stat(server.stats_json(), "artifact", "hits"), 1u);
}

TEST(ServiceServer, DegradedRunRoundTripsThroughCacheUnchanged) {
  LightnetServer server;
  // Known-degraded configuration from the fault sweep: net under 5% drop
  // terminates with partial coverage instead of aborting.
  const std::string spec =
      "construction=net topology=er n=96 seed=1 quality=0 "
      "fault.drop=0.05 fault.seed=3";
  const std::string cold = server.handle_line(run_line(spec));
  const std::string warm = server.handle_line(run_line(spec));
  EXPECT_EQ(cold, warm);
  EXPECT_NE(cold.find("\"outcome\":\"degraded\""), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"validation\":{"), std::string::npos) << cold;
}

TEST(ServiceServer, FaultPlusThreadsIsClampedAndReported) {
  LightnetServer server;
  const std::string clamped = server.handle_line(run_line(
      "construction=bfs_tree topology=path n=48 seed=1 quality=0 "
      "fault.drop=0.05 fault.seed=1 threads=4"));
  EXPECT_NE(clamped.find("\"threads_clamped\":true"), std::string::npos)
      << clamped;
  const std::string serial = server.handle_line(run_line(
      "construction=bfs_tree topology=path n=48 seed=1 quality=0 "
      "fault.drop=0.05 fault.seed=1"));
  EXPECT_EQ(serial.find("\"threads_clamped\""), std::string::npos) << serial;
  // Keyed as requested: the clamped run must not alias its serial twin.
  const auto key_of = [](const std::string& r) {
    const std::size_t pos = r.find("\"key\":\"");
    return r.substr(pos + 7, 16);
  };
  EXPECT_NE(key_of(clamped), key_of(serial));
  const std::string stats = server.stats_json();
  EXPECT_EQ(stat(stats, "artifact", "misses"), 2u);  // two distinct entries
  EXPECT_NE(stats.find("\"threads_clamped\":1"), std::string::npos) << stats;
}

TEST(ServiceServer, ScenarioAndSubstratesSharedAcrossConstructions) {
  LightnetServer server;
  // net and mst_weight_estimate both round the same er:n=64 graph with the
  // default delta, so the second run shares the scenario AND its substrate.
  server.handle_line(run_line("construction=net topology=er n=64 seed=1 "
                              "quality=0"));
  server.handle_line(run_line(
      "construction=mst_weight_estimate topology=er n=64 seed=1 quality=0"));
  const std::string stats = server.stats_json();
  EXPECT_EQ(stat(stats, "scenario", "hits"), 1u);
  EXPECT_EQ(stat(stats, "scenario", "misses"), 1u);
  EXPECT_EQ(stat(stats, "scenario", "entries"), 1u);
  EXPECT_GE(stat(stats, "substrate", "shares"), 1u);
  EXPECT_GE(stat(stats, "substrate", "builds"), 1u);
  EXPECT_EQ(stat(stats, "artifact", "misses"), 2u);
}

TEST(ServiceServer, SubstrateCountersPartitionResidentBytes) {
  LightnetServer server;
  // Before any run, every substrate counter reads zero.
  const std::string idle = server.stats_json();
  EXPECT_EQ(stat(idle, "substrate", "builds"), 0u);
  EXPECT_EQ(stat(idle, "substrate", "resident_bytes"), 0u);
  // One substrate-using construction: exactly as many builds as distinct
  // rounding scales, no shares yet, and a nonzero substrate footprint that
  // is reported under "substrate", not folded into the scenario graphs.
  server.handle_line(run_line("construction=net topology=er n=64 seed=1 "
                              "quality=0"));
  const std::string cold = server.stats_json();
  EXPECT_GE(stat(cold, "substrate", "builds"), 1u);
  EXPECT_EQ(stat(cold, "substrate", "shares"), 0u);
  EXPECT_GT(stat(cold, "substrate", "resident_bytes"), 0u);
  EXPECT_GT(stat(cold, "scenario", "resident_bytes"), 0u);
  // A second construction on the same scenario shares the pooled substrate:
  // shares move, builds and resident bytes do not.
  server.handle_line(run_line(
      "construction=mst_weight_estimate topology=er n=64 seed=1 quality=0"));
  const std::string warm = server.stats_json();
  EXPECT_EQ(stat(warm, "substrate", "builds"),
            stat(cold, "substrate", "builds"));
  EXPECT_GE(stat(warm, "substrate", "shares"), 1u);
  EXPECT_EQ(stat(warm, "substrate", "resident_bytes"),
            stat(cold, "substrate", "resident_bytes"));
}

TEST(ServiceServer, InertLawSharesOneCacheEntry) {
  LightnetServer server;
  // grid ignores WeightLaw, so law=heavy_tail canonicalizes to the same
  // run key as law=uniform and the second request is a pure cache hit.
  const std::string a = server.handle_line(
      run_line("construction=slt topology=grid n=16 seed=1 law=uniform "
               "quality=0"));
  const std::string b = server.handle_line(
      run_line("construction=slt topology=grid n=16 seed=1 law=heavy_tail "
               "quality=0"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(stat(server.stats_json(), "artifact", "hits"), 1u);
}

TEST(ServiceServer, EvictedEntryRecomputesByteIdentically) {
  ServiceOptions opts;
  opts.cache_entries = 1;
  LightnetServer server(opts);
  const std::string spec_a = "construction=slt topology=path n=20 seed=1";
  const std::string spec_b = "construction=slt topology=path n=20 seed=2";
  const std::string first = server.handle_line(run_line(spec_a));
  server.handle_line(run_line(spec_b));  // evicts spec_a's record
  const std::string again = server.handle_line(run_line(spec_a));
  EXPECT_EQ(first, again);
  const std::string stats = server.stats_json();
  EXPECT_GE(stat(stats, "artifact", "evictions"), 1u);
  EXPECT_EQ(stat(stats, "artifact", "hits"), 0u);
  EXPECT_EQ(stat(stats, "artifact", "entries"), 1u);
}

TEST(ServiceServer, IdIsEchoedVerbatim) {
  LightnetServer server;
  EXPECT_EQ(server.handle_line("{\"op\":\"shutdown\",\"id\":1.50}"),
            "{\"id\":1.50,\"ok\":true,\"shutdown\":true}");
  LightnetServer server2;
  EXPECT_EQ(server2.handle_line("{\"op\":\"shutdown\",\"id\":\"req-7\"}"),
            "{\"id\":\"req-7\",\"ok\":true,\"shutdown\":true}");
  LightnetServer server3;
  EXPECT_EQ(server3.handle_line("{\"op\":\"shutdown\"}"),
            "{\"id\":null,\"ok\":true,\"shutdown\":true}");
  EXPECT_TRUE(server3.shutdown_requested());
}

TEST(ServiceServer, ProtocolErrorsAreResponsesNotCrashes) {
  LightnetServer server;
  const std::vector<std::string> bad = {
      "not json at all",
      "[1,2,3]",                                  // not an object
      "{\"id\":1}",                               // missing op
      "{\"op\":\"explode\",\"id\":1}",            // unknown op
      "{\"op\":\"run\",\"id\":1}",                // run without spec
      "{\"op\":\"run\",\"id\":1,\"spec\":42}",    // spec not a string
      "{\"op\":\"run\",\"id\":{},\"spec\":\"x\"}",  // container id
  };
  for (const std::string& line : bad) {
    const std::string response = server.handle_line(line);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << line;
    EXPECT_NE(response.find("\"error\":"), std::string::npos) << line;
  }
  EXPECT_EQ(stat(server.stats_json(), "artifact", "misses"), 0u);
}

TEST(ServiceServer, RejectsSweepsWallAndUnknownAxes) {
  LightnetServer server;
  const std::vector<std::string> bad_specs = {
      "construction=slt topology=path n=12,16 seed=1",  // sweep list
      "construction=slt,bfs_tree topology=path n=12",   // two constructions
      "construction=slt topology=path n=12 wall=1",     // forbidden axis
      "construction=slt topology=path n=12 flux=3",     // unknown key
      "topology=path n=12",                             // no construction
      "construction=slt topology=path n=12x",           // trailing garbage
      // nan and inf both print as null in a record, so serving either
      // from the cache would answer the other's spec.
      "construction=net topology=er n=64 radius=inf",
      "construction=net topology=er n=64 radius=nan",
      // A negative geo radius would build the auto radius under a cache
      // key of its own.
      "construction=net topology=geo n=64 geo_radius=-1",
      "construction=doubling_spanner topology=er n=64 hopset=1",  // removed
  };
  for (const std::string& spec : bad_specs) {
    const std::string response = server.handle_line(run_line(spec));
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << spec;
  }
  EXPECT_NE(server.stats_json().find("\"runs\":0,"), std::string::npos);
}

TEST(ServiceServer, StatsResponseHasEverySection) {
  LightnetServer server;
  server.handle_line(run_line("construction=bfs_tree topology=path n=16 "
                              "seed=1 quality=0"));
  const std::string response = server.handle_line("{\"op\":\"stats\",\"id\":9}");
  EXPECT_EQ(response.find("{\"id\":9,\"ok\":true,\"stats\":{"), 0u) << response;
  for (const char* section : {"\"artifact\":{", "\"scenario\":{",
                              "\"substrate\":{", "\"scheduler\":{"})
    EXPECT_NE(response.find(section), std::string::npos) << response;
  EXPECT_NE(response.find("\"requests\":"), std::string::npos);
  EXPECT_NE(response.find("\"cache_enabled\":true"), std::string::npos);
}

}  // namespace
}  // namespace lightnet::service

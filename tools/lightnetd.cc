// lightnetd: the long-running construction service (src/service/server.h).
//
//   lightnetd                      pipe mode: JSON lines on stdin/stdout
//   lightnetd --tcp=PORT           local TCP mode on 127.0.0.1:PORT (0 = pick)
//   lightnetd --cache-entries=N    artifact cache entry budget  (default 256)
//   lightnetd --cache-bytes=N      artifact cache byte budget   (default 64M)
//   lightnetd --scenario-entries=N scenario cache entry budget  (default 32)
//   lightnetd --no-cache           disable both cache layers (cold baseline)
#include <cstdint>
#include <cstdio>
#include <string>

#include "api/cli.h"
#include "service/server.h"

int main(int argc, char** argv) {
  using lightnet::api::parse_u64_strict;
  lightnet::service::ServiceOptions options;
  bool tcp = false;
  int port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t parsed = 0;
    if (arg.rfind("--tcp=", 0) == 0) {
      if (!parse_u64_strict(arg.substr(6), &parsed) || parsed > 65535) {
        std::fprintf(stderr, "lightnetd: invalid port '%s'\n", arg.c_str());
        return 1;
      }
      tcp = true;
      port = static_cast<int>(parsed);
    } else if (arg.rfind("--cache-entries=", 0) == 0) {
      if (!parse_u64_strict(arg.substr(16), &parsed) || parsed == 0) {
        std::fprintf(stderr, "lightnetd: invalid %s\n", arg.c_str());
        return 1;
      }
      options.cache_entries = parsed;
    } else if (arg.rfind("--cache-bytes=", 0) == 0) {
      if (!parse_u64_strict(arg.substr(14), &parsed) || parsed == 0) {
        std::fprintf(stderr, "lightnetd: invalid %s\n", arg.c_str());
        return 1;
      }
      options.cache_bytes = parsed;
    } else if (arg.rfind("--scenario-entries=", 0) == 0) {
      if (!parse_u64_strict(arg.substr(19), &parsed) || parsed == 0) {
        std::fprintf(stderr, "lightnetd: invalid %s\n", arg.c_str());
        return 1;
      }
      options.scenario_entries = parsed;
    } else if (arg == "--no-cache") {
      options.cache_enabled = false;
    } else {
      std::fprintf(stderr,
                   "lightnetd: unknown flag '%s'\n"
                   "usage: lightnetd [--tcp=PORT] [--cache-entries=N] "
                   "[--cache-bytes=N] [--scenario-entries=N] [--no-cache]\n",
                   arg.c_str());
      return 1;
    }
  }

  lightnet::service::LightnetServer server(options);
  if (tcp) return server.serve_tcp(port, stderr);
  return server.serve(stdin, stdout);
}

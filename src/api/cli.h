// The lightnet_cli driver: spec-string parsing and the sweep loop.
//
// A spec is a list of key=value tokens; list-valued keys take comma-
// separated values (or "all") and the driver runs the full cross product:
//
//   lightnet_cli construction=slt,light_spanner topology=er,grid
//                n=64,128 seed=1,2 law=uniform eps=0.25 k=2
//
// Keys:
//   construction  registry names or "all"            (default all)
//   topology      scenario families or "all"         (default er)
//   n             vertex counts                      (default 64)
//   seed          seeds                              (default 1)
//   law           unit|uniform|heavy_tail|exp_scales (default uniform)
//   threads       scheduler worker lane counts       (default 1)
//   eps gamma alpha k radius delta root              ConstructionParams
//   max_weight avg_degree geo_radius chord_weight    ScenarioSpec knobs
//   scenario      family[:n=..][:seed=..][:law=..]   one-spec sugar
//   fault.seed fault.drop fault.link_fail            congest::FaultPlan
//   fault.link_period fault.crash fault.crash_horizon
//   fault.restart fault.reorder                      (default: no faults)
//   max_rounds    graceful round cap (0 = scheduler default); capped runs
//                 carry a "validation" object like fault runs
//   full_sweep    0|1: scheduler reference mode      (default 0)
//   quality       0|1: exact quality metrics         (default 1)
//   wall          0|1: emit wall_ms (default: on, but off under faults so
//                 fault records are bit-reproducible)
//   list          print registered constructions and families, then exit
//   --help | -h   print the axis reference, then exit
//
// Every value is parsed strictly: an unknown key, an unconsumed suffix
// ('n=12x'), or an out-of-domain value is a hard error with a usage hint,
// never a silently-defaulted run.
//
// Each run emits one JSON line to `out` via api/record.h's run_and_record
// (the same emitter the lightnetd service uses, so CLI records and service
// responses are byte-identical for the same resolved spec).
//
// The parsing/sweep core is a library function so tests can drive it
// in-process; tools/lightnet_cli.cc is the thin main().
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/record.h"

namespace lightnet::api {

// Returns 0 on success, 1 on a spec error (message on `err`).
int run_cli(const std::vector<std::string>& args, std::FILE* out,
            std::FILE* err);

// Strict unsigned decimal: false on an empty token, a minus sign, a value
// past 2^64 - 1 or unconsumed characters ("12x"); *out is set only on
// success. The CLI's seed axes and lightnetd's size flags parse with it.
bool parse_u64_strict(const std::string& v, std::uint64_t* out);

// Parses a spec that must resolve to exactly ONE run — no comma lists, no
// "all", construction named explicitly — into `out`. Used by the lightnetd
// service, whose cache is keyed per resolved run. The `wall` axis is
// rejected (responses must be deterministic), and an inert weight law is
// canonicalized so equivalent specs share one cache entry. Returns "" on
// success, else the error message.
std::string parse_single_run_spec(const std::vector<std::string>& args,
                                  RunSpec* out);

}  // namespace lightnet::api

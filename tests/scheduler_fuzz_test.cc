// Program fuzzer for the round scheduler: seeded node programs run on the
// scheduler at threads 1/2/4/8 and on the naive round loop of
// tests/round_oracle.h, under fault-free and faulty plans, strict and
// relaxed, capped and uncapped (every config at threads=1 and at one
// pooled count, rotating through 2, 4 and 8). Every (round, vertex) invocation's inbox,
// the round the run stops in, and every CostStats model field must match.
//
// A fuzz program's sends are a pure function of (seed, round, vertex,
// inbox digest): fuzz_step decides them once, and a thin adapter per side
// replays the decision through NodeContext or the oracle's outbox. The
// programs mix send, send_on_link and send_words_on_link; inline,
// arena-resident and chunked payloads (wider than kBatchChunkWords);
// several channels; late wake-ups (vertices that stay non-quiescent for
// many rounds before they speak); and restarts in silent rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/scheduler.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "tests/round_oracle.h"
#include "tests/test_util.h"

namespace lightnet::congest {
namespace {

using lightnet::testing::OracleMessage;
using lightnet::testing::OracleOptions;
using lightnet::testing::OracleOutbox;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

struct FuzzSpec {
  std::uint64_t seed = 1;
  bool strict = true;   // at most one standard message per link per round
  int channels = 1;
  VertexId wide_vertex = kNoVertex;  // sends one chunked payload in round 1
  int horizon = 6;      // no sends from here on, except late wake-ups
};

enum class Api { kSend, kSendOnLink, kSendWords };

struct SendOp {
  Api api = Api::kSendOnLink;
  int link = 0;
  std::uint32_t tag = 0;
  std::uint8_t channel = 0;
  std::vector<std::uint64_t> words;
};

struct FuzzStep {
  std::vector<SendOp> sends;
  bool quiescent = true;
};

// The last round a vertex stays non-quiescent through (it speaks then: a
// late wake-up), or -1 for the three quarters of vertices that never do.
int awake_until(const FuzzSpec& spec, VertexId v) {
  const std::uint64_t h = mix(spec.seed ^ 0xa3a3, static_cast<std::uint64_t>(v));
  return h % 4 == 0 ? static_cast<int>((h >> 8) % (spec.horizon + 6)) : -1;
}

bool unique_neighbor(std::span<const Incidence> links, size_t link) {
  return std::count_if(links.begin(), links.end(), [&](const Incidence& inc) {
           return inc.neighbor == links[link].neighbor;
         }) == 1;
}

FuzzStep fuzz_step(const FuzzSpec& spec, int round, VertexId v,
                   std::span<const Incidence> links, std::uint64_t digest,
                   size_t inbox_size) {
  FuzzStep step;
  const int until = awake_until(spec, v);
  step.quiescent = round >= until;
  if (links.empty()) return step;
  const std::uint64_t h =
      mix(mix(spec.seed, static_cast<std::uint64_t>(round)),
          mix(static_cast<std::uint64_t>(v), digest));
  bool speak = false;
  if (round == until)
    speak = true;
  else if (round >= spec.horizon)
    speak = false;
  else if (round == 0)
    speak = h % 3 == 0;
  else if (inbox_size > 0)
    speak = h % 4 != 0;
  else
    speak = h % 5 == 0;  // awake or restarted vertices without mail
  const size_t deg = links.size();
  if (speak) {
    size_t count = 1 + (h >> 8) % 3;
    if (spec.strict) count = std::min(count, deg);
    const size_t first = (h >> 16) % deg;
    for (size_t i = 0; i < count; ++i) {
      const std::uint64_t hi = mix(h, i);
      SendOp op;
      op.link = static_cast<int>(spec.strict ? (first + i) % deg : hi % deg);
      op.tag = 7 + static_cast<std::uint32_t>(hi % 3);
      op.channel = static_cast<std::uint8_t>((hi >> 8) %
                                             static_cast<unsigned>(spec.channels));
      op.api = static_cast<Api>((hi >> 16) % 3);
      if (op.api == Api::kSend && !unique_neighbor(links, op.link))
        op.api = Api::kSendOnLink;
      size_t width = (hi >> 24) % (kMaxWords + 1);
      if (!spec.strict && op.api == Api::kSendWords && (hi >> 32) % 2 == 0)
        width = 4 + (hi >> 40) % 37;  // arena-resident
      for (size_t j = 0; j < width; ++j) op.words.push_back(mix(hi, j));
      step.sends.push_back(std::move(op));
    }
  }
  if (v == spec.wide_vertex && round == 1) {
    constexpr size_t kChunk = Scheduler::kBatchChunkWords;
    const size_t widths[] = {kChunk, 2 * kChunk, kChunk + 1, kChunk - 1};
    SendOp op;
    op.api = Api::kSendWords;
    op.link = static_cast<int>(h % deg);
    op.tag = 11;
    op.words.resize(widths[spec.seed % 4]);
    for (size_t j = 0; j < op.words.size(); ++j)
      op.words[j] = h + j * 0x9e3779b97f4a7c15ULL;
    step.sends.push_back(std::move(op));
  }
  return step;
}

std::uint64_t digest_delivery(VertexId from, EdgeId edge, std::uint32_t tag,
                              std::uint8_t channel,
                              std::span<const std::uint64_t> words) {
  std::uint64_t h = mix(static_cast<std::uint64_t>(from),
                        static_cast<std::uint64_t>(edge));
  h = mix(h, (static_cast<std::uint64_t>(tag) << 8) | channel);
  h = mix(h, words.size());
  for (std::uint64_t w : words) h = (h ^ w) * 0x100000001b3ULL;
  return h;
}

// One invocation as a program saw it.
struct Invocation {
  int round;
  size_t inbox_size;
  std::uint64_t digest;
  bool operator==(const Invocation&) const = default;
};
using Logs = std::vector<std::vector<Invocation>>;

// Scheduler side: replays fuzz_step's decision through NodeContext.
class FuzzProgram final : public NodeProgram {
 public:
  FuzzProgram(const FuzzSpec& spec, Logs& logs)
      : spec_(spec), logs_(logs), quiescent_(logs.size(), 1) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    const size_t v = static_cast<size_t>(ctx.self());
    std::uint64_t digest = 0;
    for (const Delivery& d : inbox)
      digest = mix(digest, digest_delivery(d.from, d.edge, d.msg.tag,
                                           d.msg.channel, ctx.payload(d.msg)));
    logs_[v].push_back({ctx.round(), inbox.size(), digest});
    const FuzzStep step = fuzz_step(spec_, ctx.round(), ctx.self(),
                                    ctx.links(), digest, inbox.size());
    for (const SendOp& op : step.sends) {
      if (op.api == Api::kSendWords) {
        ctx.send_words_on_link(op.link, op.tag, op.words, op.channel);
        continue;
      }
      Message msg;
      msg.tag = op.tag;
      msg.channel = op.channel;
      for (std::uint64_t w : op.words) msg.words[msg.size++] = w;
      if (op.api == Api::kSend)
        ctx.send(ctx.links()[static_cast<size_t>(op.link)].neighbor, msg);
      else
        ctx.send_on_link(op.link, msg);
    }
    quiescent_[v] = step.quiescent ? 1 : 0;
  }
  bool quiescent(VertexId v) const override {
    return quiescent_[static_cast<size_t>(v)] != 0;
  }

 private:
  const FuzzSpec& spec_;
  Logs& logs_;
  std::vector<std::uint8_t> quiescent_;
};

// Oracle side: the same decisions through the oracle's outbox.
struct FuzzModel {
  const FuzzSpec& spec;
  Logs logs;

  bool on_round(VertexId v, int round, std::span<const OracleMessage> inbox,
                OracleOutbox& out) {
    std::uint64_t digest = 0;
    for (const OracleMessage& m : inbox)
      digest = mix(digest,
                   digest_delivery(m.from, m.edge, m.tag, m.channel, m.words));
    logs[static_cast<size_t>(v)].push_back({round, inbox.size(), digest});
    const FuzzStep step =
        fuzz_step(spec, round, v, out.links(), digest, inbox.size());
    for (const SendOp& op : step.sends) {
      if (op.api == Api::kSendWords)
        out.send_words_on_link(op.link, op.tag, op.channel, op.words);
      else
        out.send_on_link(op.link, op.tag, op.channel, op.words);
    }
    return step.quiescent;
  }
};

// Runs the fuzz program on the scheduler; each vertex logs into logs[v].
CostStats run_scheduler(const WeightedGraph& g, const FuzzSpec& spec,
                        const SchedulerOptions& options, Logs& logs) {
  logs.assign(static_cast<size_t>(g.num_vertices()), {});
  Network net(g);
  FuzzProgram program(spec, logs);
  return Scheduler(net, program, options).run();
}

// "" when equal, else the first difference.
std::string compare(const CostStats& want, const CostStats& got) {
  const auto field = [](const char* name, std::uint64_t a, std::uint64_t b) {
    return a == b ? std::string() : std::string(name) + " oracle " +
                                        std::to_string(a) + " scheduler " +
                                        std::to_string(b);
  };
  for (const std::string& diff :
       {field("rounds", want.rounds, got.rounds),
        field("messages", want.messages, got.messages),
        field("words", want.words, got.words),
        field("max_edge_load", want.max_edge_load, got.max_edge_load),
        field("dropped", want.dropped, got.dropped),
        field("crashed_nodes", want.crashed_nodes, got.crashed_nodes),
        field("rounds_lost", want.rounds_lost, got.rounds_lost),
        field("rounds_capped", want.rounds_capped, got.rounds_capped),
        field("channels", want.per_channel.size(), got.per_channel.size())})
    if (!diff.empty()) return diff;
  for (size_t ch = 0; ch < want.per_channel.size(); ++ch) {
    const ChannelCost& a = want.per_channel[ch];
    const ChannelCost& b = got.per_channel[ch];
    for (const std::string& diff :
         {field("channel messages", a.messages, b.messages),
          field("channel words", a.words, b.words),
          field("channel max_edge_load", a.max_edge_load, b.max_edge_load)})
      if (!diff.empty()) return diff + " (channel " + std::to_string(ch) + ")";
  }
  return "";
}

std::string compare(const Logs& want, const Logs& got) {
  for (size_t v = 0; v < want.size(); ++v) {
    const auto& a = want[v];
    const auto& b = got[v];
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      if (i < a.size() && i < b.size() && a[i] == b[i]) continue;
      const auto show = [](const std::vector<Invocation>& log, size_t i) {
        return i < log.size() ? "round " + std::to_string(log[i].round) +
                                    " inbox " +
                                    std::to_string(log[i].inbox_size)
                              : std::string("nothing");
      };
      return "vertex " + std::to_string(v) + " invocation " +
             std::to_string(i) + ": oracle " + show(a, i) + ", scheduler " +
             show(b, i);
    }
  }
  return "";
}

struct Plan {
  std::string name;
  FaultPlan fault;
};

std::vector<Plan> fault_plans() {
  std::vector<Plan> plans(5);
  plans[0].name = "none";
  plans[1].name = "drop";
  plans[1].fault.seed = 5;
  plans[1].fault.drop = 0.2;
  plans[2].name = "reorder";
  plans[2].fault.seed = 6;
  plans[2].fault.reorder = true;
  plans[3].name = "link_fail";
  plans[3].fault.seed = 7;
  plans[3].fault.link_fail = 0.25;
  plans[3].fault.link_period = 3;
  plans[4].name = "crash_restart";
  plans[4].fault.seed = 8;
  plans[4].fault.crash = 0.15;
  plans[4].fault.crash_horizon = 10;
  plans[4].fault.restart_after = 4;
  return plans;
}

// The small zoo plus graphs spanning several 64-vertex frontier words, so
// that recipient shards and scan windows are not all one word.
std::vector<lightnet::testing::NamedGraph> fuzz_graphs() {
  auto graphs = lightnet::testing::small_graph_zoo();
  graphs.push_back({"grid12x12", grid(12, 12, /*perturb=*/true, 21)});
  graphs.push_back({"path200", path_graph(200, WeightLaw::kUnit, 1.0, 22)});
  graphs.push_back(
      {"er160", erdos_renyi(160, 0.04, WeightLaw::kUniform, 10.0, 23)});
  return graphs;
}

// Compares the oracle with the scheduler at threads=1 and at one pooled
// thread count; callers rotate it through 2, 4 and 8 over their configs so
// that every graph and every plan runs at each of them.
void check_against_oracle(const WeightedGraph& g, const FuzzSpec& spec,
                          SchedulerOptions options, int pooled_threads,
                          const std::string& context) {
  FuzzModel model{spec, Logs(static_cast<size_t>(g.num_vertices()))};
  OracleOptions oracle_options;
  oracle_options.max_rounds = options.max_rounds;
  oracle_options.strict_congest = options.strict_congest;
  oracle_options.full_sweep = options.full_sweep;
  oracle_options.channels = options.channels;
  oracle_options.fault = options.fault;
  const auto oracle =
      lightnet::testing::run_round_oracle(g, model, oracle_options);
  ASSERT_EQ(oracle.strict_violation_round, -1) << context;
  for (int threads : {1, pooled_threads}) {
    options.threads = threads;
    Logs logs;
    const CostStats cost = run_scheduler(g, spec, options, logs);
    const std::string where = context + " threads=" + std::to_string(threads);
    EXPECT_EQ(compare(oracle.cost, cost), "") << where;
    EXPECT_EQ(compare(model.logs, logs), "") << where;
  }
}

constexpr int kPooledThreads[] = {2, 4, 8};

TEST(SchedulerFuzz, MatchesRoundOracle) {
  int config = 0;
  for (const auto& [name, g] : fuzz_graphs()) {
    for (const Plan& plan : fault_plans()) {
      for (bool strict : {true, false}) {
        for (bool capped : {false, true}) {
          FuzzSpec spec;
          spec.seed = mix(g.num_vertices(), plan.fault.seed) ^ (strict << 1) ^
                      static_cast<std::uint64_t>(capped);
          spec.strict = strict;
          spec.channels = strict ? 1 : 3;
          if (!strict && !capped)
            spec.wide_vertex =
                static_cast<VertexId>(spec.seed % g.num_vertices());
          SchedulerOptions options;
          options.strict_congest = strict;
          options.channels = spec.channels;
          options.fault = plan.fault;
          options.max_rounds = capped ? 7 : 1'000'000;
          check_against_oracle(g, spec, options, kPooledThreads[config++ % 3],
                               name + " plan=" + plan.name +
                                   (strict ? " strict" : " relaxed") +
                                   (capped ? " capped" : ""));
        }
      }
    }
  }
}

// full_sweep invokes every live vertex every round; the oracle does too.
TEST(SchedulerFuzz, FullSweepMatchesRoundOracle) {
  const auto plans = fault_plans();
  int config = 0;
  for (const auto& [name, g] : fuzz_graphs()) {
    for (const Plan& plan : {plans[0], plans[4]}) {
      FuzzSpec spec;
      spec.seed = mix(g.num_vertices(), 99);
      spec.strict = false;
      spec.channels = 2;
      SchedulerOptions options;
      options.strict_congest = false;
      options.channels = 2;
      options.full_sweep = true;
      options.fault = plan.fault;
      check_against_oracle(g, spec, options, kPooledThreads[config++ % 3],
                           name + " full_sweep plan=" + plan.name);
    }
  }
}

// Restarts are the only wake-ups the scheduler makes outside the round's
// jobs on these paths. Here every one lands in a silent round: crashes
// come in rounds 0-7 and restarts 24 rounds later, long after the last
// send (a late wake-up speaks by round horizon + 5 = 11). On graphs several
// bitmap words wide, no other mark is then near a restarted vertex, so
// only the restart's own mark can widen the scan window to its word.
TEST(SchedulerFuzz, RestartsInSilentRoundsMatchRoundOracle) {
  FaultPlan late;
  late.seed = 12;
  late.crash = 0.2;
  late.crash_horizon = 8;
  late.restart_after = 24;
  int config = 0;
  for (const auto& [name, g] : fuzz_graphs()) {
    if (g.num_vertices() <= 64) continue;  // one frontier word
    for (bool strict : {true, false}) {
      FuzzSpec spec;
      spec.seed =
          mix(g.num_vertices(), 31) ^ static_cast<std::uint64_t>(strict);
      spec.strict = strict;
      spec.channels = strict ? 1 : 2;
      SchedulerOptions options;
      options.strict_congest = strict;
      options.channels = spec.channels;
      options.fault = late;
      check_against_oracle(g, spec, options, kPooledThreads[config++ % 3],
                           name + " late restarts" +
                               (strict ? " strict" : " relaxed"));
    }
  }
}

// Relaxed programs under a strict scheduler: the scheduler aborts the run
// exactly when the oracle sees a slot carry a second unit.
TEST(SchedulerFuzz, StrictViolationsAgreeWithOracle) {
  for (const auto& [name, g] : fuzz_graphs()) {
    FuzzSpec spec;
    spec.seed = mix(g.num_vertices(), 7);
    spec.strict = false;
    FuzzModel model{spec, Logs(static_cast<size_t>(g.num_vertices()))};
    OracleOptions oracle_options;
    const auto oracle =
        lightnet::testing::run_round_oracle(g, model, oracle_options);
    if (oracle.strict_violation_round < 0) continue;
    for (int threads : {1, 4}) {
      SchedulerOptions options;
      options.threads = threads;
      Logs logs;
      EXPECT_THROW(run_scheduler(g, spec, options, logs), std::logic_error)
          << name << " threads=" << threads;
      // The abort came from a send of the oracle's violation round: no
      // program saw a later round.
      int last_round = -1;
      for (const auto& log : logs)
        for (const Invocation& inv : log)
          last_round = std::max(last_round, inv.round);
      EXPECT_EQ(last_round, oracle.strict_violation_round)
          << name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace lightnet::congest

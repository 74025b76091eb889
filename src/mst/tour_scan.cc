#include "mst/tour_scan.h"

#include "congest/scheduler.h"
#include "support/assert.h"

namespace lightnet {

namespace {

using congest::Delivery;
using congest::Message;
using congest::NodeContext;
using congest::NodeProgram;

constexpr std::uint32_t kTagScan = 50;

// Token moving along the tour: (destination position, carried R value).
// The destination identifies which appearance of the receiving vertex the
// token addresses; the carried value is R of the most recent break point
// (or anchor) behind it.
class ScanProgram final : public NodeProgram {
 public:
  ScanProgram(const EulerTourResult& tour, const std::vector<char>& is_anchor,
              const std::vector<char>& is_interval_end,
              const std::vector<Weight>& threshold, std::vector<char>& joined)
      : tour_(tour), is_anchor_(is_anchor),
        is_interval_end_(is_interval_end), threshold_(threshold),
        joined_(joined) {}

  void on_round(NodeContext& ctx, std::span<const Delivery> inbox) override {
    if (ctx.round() == 0) {
      // Anchors launch their interval's token toward the next position.
      for (const TourAppearance& app :
           tour_.appearances[static_cast<size_t>(ctx.self())]) {
        if (is_anchor_[static_cast<size_t>(app.index)])
          forward(ctx, app.index, app.time);
      }
      return;
    }
    for (const Delivery& d : inbox) {
      LN_ASSERT(d.msg.tag == kTagScan);
      const std::int64_t pos = static_cast<std::int64_t>(d.msg.word(0));
      const Weight carried = Message::decode_weight(d.msg.word(1));
      LN_ASSERT_MSG(tour_.sequence[static_cast<size_t>(pos)] == ctx.self(),
                    "scan token delivered to the wrong host");
      const Weight r = tour_.times[static_cast<size_t>(pos)];
      Weight next_carried = carried;
      if (r - carried > threshold_[static_cast<size_t>(pos)]) {
        joined_[static_cast<size_t>(pos)] = 1;
        next_carried = r;
      }
      forward(ctx, pos, next_carried);
    }
  }

  bool quiescent(VertexId) const override { return true; }  // purely reactive

 private:
  void forward(NodeContext& ctx, std::int64_t pos, Weight carried) {
    if (is_interval_end_[static_cast<size_t>(pos)]) return;
    const std::int64_t next = pos + 1;
    const VertexId next_host = tour_.sequence[static_cast<size_t>(next)];
    ctx.send(next_host,
             Message(kTagScan, {static_cast<std::uint64_t>(next),
                                Message::encode_weight(carried)}));
  }

  const EulerTourResult& tour_;
  const std::vector<char>& is_anchor_;
  const std::vector<char>& is_interval_end_;
  const std::vector<Weight>& threshold_;
  std::vector<char>& joined_;
};

}  // namespace

TourScanResult tour_interval_scan(const WeightedGraph& g,
                                  const EulerTourResult& tour,
                                  const std::vector<std::int64_t>& anchors,
                                  const std::vector<Weight>& threshold,
                                  congest::SchedulerOptions sched) {
  LN_REQUIRE(threshold.size() ==
                 static_cast<size_t>(tour.num_positions),
             "one threshold per tour position required");
  LN_REQUIRE(!anchors.empty() && anchors.front() == 0,
             "the first anchor must be tour position 0");
  const size_t num_positions = static_cast<size_t>(tour.num_positions);
  std::vector<char> is_anchor(num_positions, 0);
  for (std::int64_t a : anchors) {
    LN_REQUIRE(a >= 0 && a < tour.num_positions, "anchor out of range");
    is_anchor[static_cast<size_t>(a)] = 1;
  }
  // A position ends its interval if the next position is an anchor (or the
  // tour ends there).
  std::vector<char> is_interval_end(num_positions, 0);
  for (size_t j = 0; j < num_positions; ++j) {
    if (j + 1 >= num_positions || is_anchor[j + 1]) is_interval_end[j] = 1;
  }

  std::vector<char> joined(num_positions, 0);
  congest::Network net(g);
  ScanProgram program(tour, is_anchor, is_interval_end, threshold, joined);
  TourScanResult result;
  result.cost = congest::Scheduler(net, program, sched).run();
  for (size_t j = 0; j < num_positions; ++j)
    if (joined[j]) result.joined.push_back(static_cast<std::int64_t>(j));
  return result;
}

}  // namespace lightnet

#include "core/mst_weight_estimator.h"

#include <cmath>
#include <string>

#include "api/substrate_pool.h"
#include "core/nets.h"
#include "graph/mst.h"
#include "routines/approx_spt.h"
#include "support/assert.h"

namespace lightnet {

MstEstimateResult estimate_mst_weight(const WeightedGraph& g, double delta,
                                      const api::RunContext& ctx) {
  LN_REQUIRE(delta >= 0.0, "delta must be nonnegative");
  MstEstimateResult result;
  result.exact = mst_weight(g);
  // build_net(R, δ) yields a ((1+δ)R, R/(1+δ))-net, i.e. an (α·s, s)-net
  // with s = R/(1+δ) and α = (1+δ)².
  const double alpha = (1.0 + delta) * (1.0 + delta);
  result.alpha = alpha;

  // Start below the minimum distance so the first net is all of V (every
  // point can cover only itself), as the Theorem 7 proof requires.
  const Weight min_w = g.min_edge_weight();
  double separation = min_w / (2.0 * alpha);

  // One rounded graph + Network shared by every scale's net (the δ slack
  // is scale-independent); pool-acquired so service runs share it with
  // other constructions at the same δ.
  const auto net_handle = api::acquire_substrate(ctx, g, delta);
  const RoundedSubstrate& net_substrate = *net_handle;

  int scale_index = 0;
  for (;; separation *= 2.0, ++scale_index) {
    NetParams params;
    params.radius = separation * (1.0 + delta);
    params.delta = delta;
    const NetResult net = build_net(
        g, params,
        ctx.child(0x505349ULL + static_cast<std::uint64_t>(scale_index)), {},
        &net_substrate);
    result.ledger.absorb(net.ledger,
                         "scale-" + std::to_string(scale_index));
    result.scales.push_back({separation, net.net.size()});
    result.psi +=
        static_cast<double>(net.net.size()) * alpha * 2.0 * separation;
    // Claim 7: an s-separated set has at most ⌈2L/s⌉ points.
    LN_ASSERT_MSG(static_cast<double>(net.net.size()) <=
                      std::ceil(2.0 * result.exact / separation) + 1.0,
                  "Claim 7 violated in estimator");
    if (net.net.size() <= 1) break;
    LN_ASSERT_MSG(scale_index < 200,
                  "estimator did not converge to a single net point");
  }
  result.ratio = result.psi / result.exact;
  return result;
}

}  // namespace lightnet

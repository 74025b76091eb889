#include "api/substrate_pool.h"

#include <bit>

#include "api/run_context.h"

namespace lightnet::api {

std::shared_ptr<const RoundedSubstrate> SubstratePool::acquire(
    double epsilon) {
  const std::uint64_t key = std::bit_cast<std::uint64_t>(epsilon);
  auto it = by_eps_.find(key);
  if (it != by_eps_.end()) {
    ++shares_;
    return it->second;
  }
  auto substrate = std::make_shared<const RoundedSubstrate>(*graph_, epsilon);
  ++builds_;
  by_eps_.emplace(key, substrate);
  return substrate;
}

std::size_t substrate_bytes(const RoundedSubstrate& s) {
  const std::size_t n = static_cast<std::size_t>(s.rounded.num_vertices());
  const std::size_t m = static_cast<std::size_t>(s.rounded.num_edges());
  // Rounded edge list + CSR incidence (both directions) + the Network's
  // offsets/dir-slot sidecars. Coefficients match the containers' element
  // types; container headers and allocator slack are ignored.
  return m * sizeof(Edge) + 2 * m * (sizeof(Incidence) + sizeof(std::uint32_t)) +
         n * sizeof(int);
}

std::size_t SubstratePool::resident_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, substrate] : by_eps_) {
    (void)key;
    total += substrate_bytes(*substrate);
  }
  return total;
}

std::shared_ptr<const RoundedSubstrate> acquire_substrate(
    const RunContext& ctx, const WeightedGraph& g, double epsilon) {
  if (ctx.substrate_pool != nullptr && ctx.substrate_pool->graph() == &g)
    return ctx.substrate_pool->acquire(epsilon);
  return std::make_shared<const RoundedSubstrate>(g, epsilon);
}

}  // namespace lightnet::api

#include "service/cache.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/rng.h"

namespace lightnet::service {

namespace {

constexpr std::uint16_t kCounterMax = std::numeric_limits<std::uint16_t>::max();

// Entry budgets past this share one sketch size (2^20 columns a row, 8 MiB
// in all), so an outsized --cache-entries cannot make the sketch itself the
// service's largest allocation.
constexpr std::size_t kMaxSketchEntries = std::size_t{1} << 17;

std::size_t sketch_entries(std::size_t entries) {
  return std::clamp<std::size_t>(entries, 1, kMaxSketchEntries);
}

// The counter a key's column stream picks in `row`; each call advances the
// stream, so row r takes the stream's r-th output.
std::size_t cell(std::uint64_t& stream, std::size_t row, std::size_t width) {
  return row * width + (splitmix64(stream) & (width - 1));
}

// estimate × cost, saturating instead of wrapping to a small score.
std::uint64_t weigh(std::uint32_t estimate, std::uint64_t cost) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  return estimate != 0 && cost > kMax / estimate ? kMax : estimate * cost;
}

}  // namespace

FrequencySketch::FrequencySketch(std::size_t entries)
    : width_(std::bit_ceil(8 * sketch_entries(entries))),
      sample_size_(32 * sketch_entries(entries)),
      counters_(kRows * width_, 0) {}

void FrequencySketch::record(std::uint64_t key_hash) {
  std::uint64_t stream = key_hash;
  for (std::size_t row = 0; row < kRows; ++row) {
    std::uint16_t& c = counters_[cell(stream, row, width_)];
    if (c != kCounterMax) ++c;
  }
  if (++recorded_ == sample_size_) {
    for (std::uint16_t& c : counters_) c >>= 1;
    recorded_ = 0;
  }
}

std::uint32_t FrequencySketch::estimate(std::uint64_t key_hash) const {
  std::uint64_t stream = key_hash;
  std::uint16_t least = kCounterMax;
  for (std::size_t row = 0; row < kRows; ++row)
    least = std::min(least, counters_[cell(stream, row, width_)]);
  return least;
}

ArtifactCache::ArtifactCache(std::size_t max_entries, std::size_t max_bytes)
    : lru_(max_entries, max_bytes, SizeOfRecord{}), sketch_(max_entries) {}

const std::string* ArtifactCache::get(const std::string& key,
                                      std::uint64_t key_hash) {
  sketch_.record(key_hash);
  const Record* cached = lru_.get(key);
  return cached == nullptr ? nullptr : &cached->json;
}

bool ArtifactCache::offer(const std::string& key, std::uint64_t key_hash,
                          const std::string& json, std::uint64_t messages) {
  const std::uint64_t cost = 1 + messages;
  const Lru::Entry* victim = lru_.coldest();
  const bool evicts =
      victim != nullptr &&
      (lru_.entries() >= lru_.max_entries() ||
       lru_.resident_bytes() + json.size() > lru_.max_bytes());
  if (evicts && weigh(sketch_.estimate(key_hash), cost) <=
                    weigh(sketch_.estimate(victim->value.key_hash),
                          victim->value.cost)) {
    ++rejected_;
    return false;
  }
  lru_.insert(key, Record{json, key_hash, cost});
  return true;
}

}  // namespace lightnet::service

#include "serve/shard_map.h"

#include <algorithm>

#include "util/check.h"

namespace retia::serve {

namespace {

// Ring points per replica. More points smooth the key distribution at the
// cost of a larger (still tiny) ring.
constexpr int64_t kVirtualNodes = 64;

}  // namespace

uint64_t ShardMap::Mix(uint64_t x) {
  // splitmix64 finalizer: cheap, deterministic across platforms, and
  // avalanches enough that sequential entity ids spread over the ring.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

ShardMap::ShardMap(const std::vector<int64_t>& shard_ids)
    : num_shards_(static_cast<int64_t>(shard_ids.size())) {
  RETIA_CHECK_MSG(!shard_ids.empty(), "shard map needs at least one replica");
  ring_.reserve(shard_ids.size() * static_cast<size_t>(kVirtualNodes));
  for (const int64_t shard : shard_ids) {
    for (int64_t vnode = 0; vnode < kVirtualNodes; ++vnode) {
      // Mix the pair (shard, vnode) into one ring position. The nested mix
      // decorrelates the two coordinates so vnodes of one shard don't
      // cluster.
      const uint64_t position =
          Mix(Mix(static_cast<uint64_t>(shard)) ^ static_cast<uint64_t>(vnode));
      ring_.push_back(Point{position, shard});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    // Tie-break on shard id so equal positions (vanishingly rare) still
    // order deterministically.
    return a.position != b.position ? a.position < b.position
                                    : a.shard < b.shard;
  });
}

int64_t ShardMap::ShardFor(int64_t subject) const {
  RETIA_CHECK(!ring_.empty());
  const uint64_t key = Mix(static_cast<uint64_t>(subject));
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const Point& p, uint64_t k) { return p.position < k; });
  return it == ring_.end() ? ring_.front().shard : it->shard;
}

}  // namespace retia::serve

#ifndef RETIA_SERVE_SHARD_MAP_H_
#define RETIA_SERVE_SHARD_MAP_H_

// Consistent-hash ring mapping subject entities to replica shards
// (docs/SERVING_TOPOLOGY.md §Shard map). Each replica contributes 64
// virtual points on a 64-bit ring, placed by a deterministic
// splitmix64 mix of (shard id, vnode index) — NOT std::hash, whose value
// is implementation-defined and would silently reshuffle the fleet across
// compilers. A subject routes to the owner of the first ring point at or
// after mix(subject), wrapping at the top.
//
// The property the router buys with this: adding or removing one replica
// remaps only the keys that hashed into that replica's arcs; every other
// subject keeps its shard (serve_router_test pins this). Removing a dead
// replica is an operator decision — the ring itself keeps routing to it
// and the router reports kShardUnavailable, so failures are visible
// instead of silently shifting load.

#include <cstdint>
#include <vector>

namespace retia::serve {

class ShardMap {
 public:
  // `shard_ids` are the replica ids on the ring (need not be contiguous).
  explicit ShardMap(const std::vector<int64_t>& shard_ids);

  // Shard owning `subject`. Dies (CHECK) only on an empty ring, which is a
  // construction bug, not a runtime condition.
  int64_t ShardFor(int64_t subject) const;

  int64_t num_shards() const { return num_shards_; }

  // Deterministic 64-bit mix used for ring placement and key lookup;
  // exposed so tests can reason about arc boundaries.
  static uint64_t Mix(uint64_t x);

 private:
  struct Point {
    uint64_t position;
    int64_t shard;
  };
  std::vector<Point> ring_;  // sorted by position
  int64_t num_shards_;
};

}  // namespace retia::serve

#endif  // RETIA_SERVE_SHARD_MAP_H_

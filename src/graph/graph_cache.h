#ifndef RETIA_GRAPH_GRAPH_CACHE_H_
#define RETIA_GRAPH_GRAPH_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/hypergraph.h"
#include "graph/subgraph.h"
#include "tkg/dataset.h"

namespace retia::graph {

// Lazily-built cache of per-timestamp subgraphs and twin hyperrelation
// subgraphs for a dataset. Training revisits the same timestamps every
// epoch, so graph construction (including Algorithm 1 and the
// tensor::AggregateRows plans of Eqs. 1, 4, 7 and 9) is paid once.
//
// Threading: subgraph(), hypergraph(), and Prefetch() are safe to call
// concurrently from any number of threads (Prefetch builds a history's
// snapshots in parallel, and serving engines evolve different timestamps
// against one cache). Construction is pure and deterministic, so when two
// threads race on the same timestamp both build identical objects and the
// first insert wins; returned references stay valid for the cache's
// lifetime (entries are never evicted). Lookups take one mutex;
// construction itself runs outside the lock.
//
// Streaming: the cache reads the dataset's fact-bearing timestamps live
// (TkgDataset::all_times()), so buckets appended at the frontier become
// visible to HistoryBefore / subgraph without a rebuild. Because the
// append path only ever adds whole new timestamps, previously built
// subgraphs stay valid; only a vocabulary growth (GrowVocab) invalidates
// them — callers rebuild the cache after growing (stream::OnlineTrainer
// does).
class GraphCache {
 public:
  explicit GraphCache(const tkg::TkgDataset* dataset);

  const tkg::TkgDataset& dataset() const { return *dataset_; }

  // Subgraph at timestamp `t` (possibly empty if the timestamp has no
  // facts; an empty Subgraph is still valid). Thread-safe.
  const Subgraph& subgraph(int64_t t);

  // Twin hyperrelation subgraph of timestamp `t` (Algorithm 1).
  // Thread-safe.
  const HyperSubgraph& hypergraph(int64_t t);

  // Builds (and caches) the snapshots of the timestamps in `times` that
  // are not cached yet, one par::ParallelShards shard per timestamp on
  // par::DefaultPool(). With `hypergraphs` set the twin hyperrelation
  // subgraphs are built too (they subsume the subgraphs). Purely a
  // warm-up: subgraph()/hypergraph() return the same objects whether or
  // not Prefetch ran.
  void Prefetch(const std::vector<int64_t>& times, bool hypergraphs);

  // The latest `k` fact-bearing timestamps strictly before `t`, ascending.
  // Fewer than `k` are returned near the start of the dataset.
  std::vector<int64_t> HistoryBefore(int64_t t, int64_t k) const;

 private:
  const tkg::TkgDataset* dataset_;
  mutable std::mutex mu_;  // guards the two maps (not the built objects)
  std::map<int64_t, std::unique_ptr<Subgraph>> subgraphs_;
  std::map<int64_t, std::unique_ptr<HyperSubgraph>> hypergraphs_;
};

}  // namespace retia::graph

#endif  // RETIA_GRAPH_GRAPH_CACHE_H_

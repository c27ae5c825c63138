#include "graph/graph_cache.h"

#include <algorithm>
#include <utility>

#include "par/parallel_for.h"
#include "util/check.h"

namespace retia::graph {

GraphCache::GraphCache(const tkg::TkgDataset* dataset) : dataset_(dataset) {
  RETIA_CHECK(dataset != nullptr);
}

const Subgraph& GraphCache::subgraph(int64_t t) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subgraphs_.find(t);
    if (it != subgraphs_.end()) return *it->second;
  }
  // Build outside the lock so concurrent timestamps construct in parallel.
  // Construction is pure, so a losing racer built an identical object and
  // simply drops it (emplace keeps the first insert).
  auto built = std::make_unique<Subgraph>(dataset_->FactsAt(t),
                                          dataset_->num_entities(),
                                          dataset_->num_relations());
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = subgraphs_.emplace(t, std::move(built));
  return *it->second;
}

const HyperSubgraph& GraphCache::hypergraph(int64_t t) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = hypergraphs_.find(t);
    if (it != hypergraphs_.end()) return *it->second;
  }
  const Subgraph& g = subgraph(t);
  auto built = std::make_unique<HyperSubgraph>(g);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = hypergraphs_.emplace(t, std::move(built));
  return *it->second;
}

void GraphCache::Prefetch(const std::vector<int64_t>& times,
                          bool hypergraphs) {
  // Only the missing timestamps fan out, so a warm cache costs one lock
  // and no pool dispatch.
  std::vector<int64_t> missing;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t t : times) {
      if (!(hypergraphs ? hypergraphs_.contains(t) : subgraphs_.contains(t))) {
        missing.push_back(t);
      }
    }
  }
  par::ParallelShards(static_cast<int64_t>(missing.size()), [&](int64_t i) {
    const int64_t t = missing[static_cast<size_t>(i)];
    if (hypergraphs) {
      hypergraph(t);
    } else {
      subgraph(t);
    }
  });
}

std::vector<int64_t> GraphCache::HistoryBefore(int64_t t, int64_t k) const {
  // Read the dataset's times live so frontier buckets appended by
  // retia::stream enter the history window without a cache rebuild.
  const std::vector<int64_t>& all_times = dataset_->all_times();
  auto end = std::lower_bound(all_times.begin(), all_times.end(), t);
  auto begin = end;
  for (int64_t i = 0; i < k && begin != all_times.begin(); ++i) --begin;
  return {begin, end};
}

}  // namespace retia::graph

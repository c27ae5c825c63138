#include "stream/ingest.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"

namespace retia::stream {

StreamIngest::StreamIngest(tkg::TkgDataset* live, const IngestConfig& config)
    : live_(live), config_(config) {
  RETIA_CHECK(live != nullptr);
  RETIA_CHECK(config.max_entities >= live->num_entities());
  floor_ = live->max_time();
  frontier_ = floor_;
}

IngestStatus StreamIngest::Validate(const tkg::Quadruple& q) {
  if (q.subject < 0 || q.relation < 0 || q.object < 0 || q.time < 0) {
    return IngestStatus::kRejectedInvalid;
  }
  if (q.time <= floor_) return IngestStatus::kRejectedLate;
  if (q.relation >= live_->num_relations()) {
    return IngestStatus::kRejectedUnseenRelation;
  }
  // Compare ids, not id + 1: an id of INT64_MAX must be rejected, not
  // overflow into an accepted fact that the next seal cannot append.
  const int64_t largest = std::max(q.subject, q.object);
  if (largest >= live_->num_entities()) {
    if (config_.unseen_policy != UnseenPolicy::kGrowEntities ||
        largest >= config_.max_entities) {
      return IngestStatus::kRejectedUnseenEntity;
    }
    const int64_t needed = largest + 1;  // <= max_entities, cannot overflow
    counters_.grown_entities += needed - live_->num_entities();
    RETIA_OBS_COUNTER_ADD("stream.ingest.grown_entities",
                          needed - live_->num_entities());
    live_->GrowVocab(needed, live_->num_relations());
  }
  return IngestStatus::kAccepted;
}

IngestStatus StreamIngest::Offer(const tkg::Quadruple& q) {
  ++counters_.offered;
  RETIA_OBS_COUNTER_ADD("stream.ingest.offered", 1);
  const IngestStatus status = Validate(q);
  switch (status) {
    case IngestStatus::kAccepted:
      break;
    case IngestStatus::kRejectedInvalid:
      ++counters_.rejected_invalid;
      RETIA_OBS_COUNTER_ADD("stream.ingest.rejected", 1);
      return status;
    case IngestStatus::kRejectedLate:
      ++counters_.rejected_late;
      RETIA_OBS_COUNTER_ADD("stream.ingest.rejected", 1);
      return status;
    case IngestStatus::kRejectedUnseenEntity:
      ++counters_.rejected_unseen_entity;
      RETIA_OBS_COUNTER_ADD("stream.ingest.rejected", 1);
      return status;
    case IngestStatus::kRejectedUnseenRelation:
      ++counters_.rejected_unseen_relation;
      RETIA_OBS_COUNTER_ADD("stream.ingest.rejected", 1);
      return status;
  }
  SealedBucket& bucket = open_[q.time];
  bucket.time = q.time;
  bucket.facts.push_back(q);
  bucket.arrival_ns.push_back(obs::NowNs());
  ++counters_.accepted;
  RETIA_OBS_COUNTER_ADD("stream.ingest.accepted", 1);
  return IngestStatus::kAccepted;
}

int64_t StreamIngest::OfferBatch(const std::vector<tkg::Quadruple>& quads) {
  int64_t accepted = 0;
  for (const tkg::Quadruple& q : quads) {
    if (Offer(q) == IngestStatus::kAccepted) ++accepted;
  }
  return accepted;
}

void StreamIngest::Seal(int64_t t, SealedBucket bucket,
                        std::vector<SealedBucket>* out) {
  live_->AppendBucket(t, bucket.facts);
  frontier_ = t;
  ++counters_.sealed_buckets;
  counters_.sealed_facts += static_cast<int64_t>(bucket.facts.size());
  RETIA_OBS_COUNTER_ADD("stream.ingest.sealed_buckets", 1);
  RETIA_OBS_COUNTER_ADD("stream.ingest.sealed_facts",
                        static_cast<int64_t>(bucket.facts.size()));
  out->push_back(std::move(bucket));
}

std::vector<SealedBucket> StreamIngest::SealBefore(int64_t t) {
  std::vector<SealedBucket> sealed;
  while (!open_.empty() && open_.begin()->first < t) {
    auto node = open_.extract(open_.begin());
    Seal(node.key(), std::move(node.mapped()), &sealed);
  }
  // Advance the floor even past empty timesteps: once a watermark is
  // announced, anything older is late by definition.
  floor_ = std::max(floor_, t - 1);
  return sealed;
}

std::vector<SealedBucket> StreamIngest::Flush() {
  std::vector<SealedBucket> sealed;
  while (!open_.empty()) {
    auto node = open_.extract(open_.begin());
    Seal(node.key(), std::move(node.mapped()), &sealed);
    floor_ = std::max(floor_, frontier_);
  }
  return sealed;
}

int64_t StreamIngest::pending() const {
  int64_t n = 0;
  for (const auto& [t, bucket] : open_) {
    n += static_cast<int64_t>(bucket.facts.size());
  }
  return n;
}

}  // namespace retia::stream

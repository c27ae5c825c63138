#include "baselines/tirgn.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace retia::baselines {

using tensor::Tensor;

TirgnModel::TirgnModel(const TirgnConfig& config) : config_(config) {
  local_ = std::make_unique<RegcnModel>(config.local);
  RegisterModule("local", local_.get());
  gate_ = RegisterParameter("gate", Tensor::Full({1}, config.gate_init));
}

void TirgnModel::SetDataset(const tkg::TkgDataset* dataset) {
  RETIA_CHECK(dataset != nullptr);
  dataset_ = dataset;
  const int64_t m = dataset->num_relations();
  object_index_.clear();
  relation_index_.clear();
  for (const std::vector<tkg::Quadruple>* split :
       {&dataset->train(), &dataset->valid(), &dataset->test()}) {
    for (const tkg::Quadruple& q : *split) {
      object_index_[{q.subject, q.relation}][q.object].push_back(q.time);
      object_index_[{q.object, q.relation + m}][q.subject].push_back(q.time);
      relation_index_[{q.subject, q.object}][q.relation].push_back(q.time);
    }
  }
  for (auto* index : {&object_index_, &relation_index_}) {
    for (auto& [key, candidates] : *index) {
      for (auto& [candidate, times] : candidates) {
        std::sort(times.begin(), times.end());
      }
    }
  }
}

float TirgnModel::GateValue() const {
  return 1.0f / (1.0f + std::exp(-gate_.Data()[0]));
}

namespace {

// Number of occurrences with time <= up_to in a sorted timestamp list.
int64_t CountUpTo(const std::vector<int64_t>& times, int64_t up_to) {
  return std::upper_bound(times.begin(), times.end(), up_to) - times.begin();
}

}  // namespace

Tensor TirgnModel::GlobalObjectProbs(
    const std::vector<std::pair<int64_t, int64_t>>& queries,
    int64_t up_to) const {
  RETIA_CHECK_MSG(dataset_ != nullptr, "call SetDataset() first");
  const int64_t n = dataset_->num_entities();
  Tensor probs =
      Tensor::Zeros({static_cast<int64_t>(queries.size()), n});
  float* p = probs.Data();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto it = object_index_.find(queries[i]);
    if (it == object_index_.end()) continue;
    int64_t total = 0;
    for (const auto& [candidate, times] : it->second) {
      total += CountUpTo(times, up_to);
    }
    if (total == 0) continue;
    for (const auto& [candidate, times] : it->second) {
      const int64_t count = CountUpTo(times, up_to);
      if (count > 0) {
        p[i * n + candidate] =
            static_cast<float>(count) / static_cast<float>(total);
      }
    }
  }
  return probs;
}

Tensor TirgnModel::GlobalRelationProbs(
    const std::vector<std::pair<int64_t, int64_t>>& queries,
    int64_t up_to) const {
  RETIA_CHECK_MSG(dataset_ != nullptr, "call SetDataset() first");
  const int64_t m = dataset_->num_relations();
  Tensor probs =
      Tensor::Zeros({static_cast<int64_t>(queries.size()), m});
  float* p = probs.Data();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto it = relation_index_.find(queries[i]);
    if (it == relation_index_.end()) continue;
    int64_t total = 0;
    for (const auto& [candidate, times] : it->second) {
      total += CountUpTo(times, up_to);
    }
    if (total == 0) continue;
    for (const auto& [candidate, times] : it->second) {
      const int64_t count = CountUpTo(times, up_to);
      if (count > 0) {
        p[i * m + candidate] =
            static_cast<float>(count) / static_cast<float>(total);
      }
    }
  }
  return probs;
}

std::vector<core::EvolutionModel::StepState> TirgnModel::Evolve(
    graph::GraphCache& cache, const std::vector<int64_t>& history) {
  last_history_end_ = history.empty() ? -1 : history.back();
  return local_->Evolve(cache, history);
}

Tensor TirgnModel::ScoreObjects(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  Tensor local = local_->ScoreObjects(states, queries);
  Tensor global = GlobalObjectProbs(queries, last_history_end_);
  // The gate gradient flows through the scaling of the local branch (the
  // global branch is a constant); alpha itself adapts via that path.
  const float alpha = GateValue();
  return tensor::Add(tensor::Scale(local, 1.0f - alpha),
                     tensor::Scale(global, alpha));
}

Tensor TirgnModel::ScoreRelations(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  Tensor local = local_->ScoreRelations(states, queries);
  Tensor global = GlobalRelationProbs(queries, last_history_end_);
  const float alpha = GateValue();
  return tensor::Add(tensor::Scale(local, 1.0f - alpha),
                     tensor::Scale(global, alpha));
}

}  // namespace retia::baselines

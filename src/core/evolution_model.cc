#include "core/evolution_model.h"

#include "core/decoder.h"
#include "obs/obs.h"
#include "par/parallel_for.h"
#include "tensor/ops.h"

namespace retia::core {

using tensor::Tensor;

namespace {

// Splits (a, b) query pairs into the two row-index lists they gather.
void SplitQueries(const std::vector<std::pair<int64_t, int64_t>>& queries,
                  std::vector<int64_t>* first, std::vector<int64_t>* second) {
  first->reserve(queries.size());
  second->reserve(queries.size());
  for (const auto& [a, b] : queries) {
    first->push_back(a);
    second->push_back(b);
  }
}

}  // namespace

EvolutionModel::LossParts EvolutionModel::JointLoss(
    const std::vector<StepState>& states,
    const std::vector<tkg::Quadruple>& facts, int64_t num_relations,
    float lambda_entity) {
  RETIA_CHECK(!states.empty());
  RETIA_CHECK(!facts.empty());

  // Entity task: object queries plus inverse subject queries (Sec. III-A).
  std::vector<std::pair<int64_t, int64_t>> entity_queries;
  std::vector<int64_t> entity_targets;
  entity_queries.reserve(facts.size() * 2);
  for (const tkg::Quadruple& q : facts) {
    entity_queries.emplace_back(q.subject, q.relation);
    entity_targets.push_back(q.object);
    entity_queries.emplace_back(q.object, q.relation + num_relations);
    entity_targets.push_back(q.subject);
  }
  Tensor p_entity = ScoreObjects(states, entity_queries);
  Tensor loss_e = tensor::NllFromProbs(p_entity, entity_targets);

  // Relation task (Eq. 12/14).
  std::vector<std::pair<int64_t, int64_t>> relation_queries;
  std::vector<int64_t> relation_targets;
  relation_queries.reserve(facts.size());
  for (const tkg::Quadruple& q : facts) {
    relation_queries.emplace_back(q.subject, q.object);
    relation_targets.push_back(q.relation);
  }
  Tensor p_relation = ScoreRelations(states, relation_queries);
  Tensor loss_r = tensor::NllFromProbs(p_relation, relation_targets);

  LossParts parts;
  parts.entity_loss = loss_e.Item();
  parts.relation_loss = loss_r.Item();
  parts.joint = tensor::Add(tensor::Scale(loss_e, lambda_entity),
                            tensor::Scale(loss_r, 1.0f - lambda_entity));
  return parts;
}

Tensor SumStateDecodes(const nn::Module& decoder, size_t num_states,
                       bool all_states,
                       const std::function<Tensor(size_t)>& decode) {
  RETIA_OBS_TRACE_SPAN("core.decode");
  RETIA_CHECK(num_states > 0);
  const size_t first = all_states ? 0 : num_states - 1;
  const int64_t n = static_cast<int64_t>(num_states - first);
  // With no autograd tape to record and no RNG stream to keep ordered
  // (dropout is a pass-through outside training), the per-state decodes
  // are independent and fan out on the pool. The per-state math and the
  // state-order sum are those of the serial loop below, so the result is
  // bit-identical to it for every pool width.
  if (n > 1 && !decoder.training() && !tensor::GradModeEnabled()) {
    std::vector<Tensor> per_state(static_cast<size_t>(n));
    par::ParallelShards(n, [&](int64_t j) {
      tensor::NoGradGuard guard;  // grad mode is thread-local
      const size_t slot = static_cast<size_t>(j);
      per_state[slot] = decode(first + slot);
    });
    Tensor total = per_state[0];
    for (size_t j = 1; j < per_state.size(); ++j) {
      total = tensor::Add(total, per_state[j]);
    }
    return total;
  }
  Tensor total;
  for (size_t i = first; i < num_states; ++i) {
    Tensor p = decode(i);
    total = total.defined() ? tensor::Add(total, p) : p;
  }
  return total;
}

Tensor DecodeObjects(const ConvTransEDecoder& decoder,
                     const std::vector<EvolutionModel::StepState>& states,
                     bool all_states,
                     const std::vector<std::pair<int64_t, int64_t>>& queries,
                     util::Rng* rng) {
  std::vector<int64_t> subj_idx;
  std::vector<int64_t> rel_idx;
  SplitQueries(queries, &subj_idx, &rel_idx);
  return SumStateDecodes(decoder, states.size(), all_states, [&](size_t i) {
    const EvolutionModel::StepState& st = states[i];
    Tensor s_emb = tensor::GatherRows(st.entities, subj_idx);
    Tensor r_emb = tensor::GatherRows(st.relations, rel_idx);
    Tensor logits = decoder.Forward(s_emb, r_emb, st.entities, rng);
    return tensor::Softmax(logits);
  });
}

Tensor DecodeRelations(const ConvTransEDecoder& decoder,
                       const std::vector<EvolutionModel::StepState>& states,
                       bool all_states, int64_t num_relations,
                       const std::vector<std::pair<int64_t, int64_t>>& queries,
                       util::Rng* rng) {
  std::vector<int64_t> subj_idx;
  std::vector<int64_t> obj_idx;
  SplitQueries(queries, &subj_idx, &obj_idx);
  return SumStateDecodes(decoder, states.size(), all_states, [&](size_t i) {
    const EvolutionModel::StepState& st = states[i];
    Tensor s_emb = tensor::GatherRows(st.entities, subj_idx);
    Tensor o_emb = tensor::GatherRows(st.entities, obj_idx);
    // Candidates are the M forward relations (the paper's p^r is
    // M-dimensional).
    Tensor candidates = tensor::SliceRows(st.relations, 0, num_relations);
    Tensor logits = decoder.Forward(s_emb, o_emb, candidates, rng);
    return tensor::Softmax(logits);
  });
}

}  // namespace retia::core

#include "core/rgcn.h"

#include <string>

#include "nn/init.h"
#include "tensor/ops.h"

namespace retia::core {

using tensor::Tensor;

namespace {
constexpr float kRReluLo = 1.0f / 8.0f;
constexpr float kRReluHi = 1.0f / 3.0f;
}  // namespace

EntityRgcnLayer::EntityRgcnLayer(int64_t dim, int64_t num_relations_aug,
                                 int64_t num_bases, float dropout,
                                 util::Rng* rng)
    : num_bases_(num_bases), dropout_(dropout) {
  RETIA_CHECK(num_bases >= 1);
  for (int64_t b = 0; b < num_bases; ++b) {
    bases_.push_back(RegisterParameter("basis" + std::to_string(b),
                                       nn::XavierUniform({dim, dim}, rng)));
  }
  coeff_ = RegisterParameter(
      "coeff", nn::XavierUniform({num_relations_aug, num_bases}, rng));
  self_weight_ =
      RegisterParameter("self_weight", nn::XavierUniform({dim, dim}, rng));
}

Tensor EntityRgcnLayer::Forward(const Tensor& nodes, const Tensor& relations,
                                const graph::Subgraph& g,
                                util::Rng* rng) const {
  g.CheckEntityRows(nodes.Dim(0));
  RETIA_CHECK_EQ(relations.Dim(0), g.num_relations_aug());
  // The gather / per-edge GEMM / aggregation kernels below run on
  // par::DefaultPool() with deterministic fixed shards (GatherRows /
  // MatMulTransposeB / AggregateRows in tensor/), so the message passing
  // parallelizes across edges while staying bit-identical to the serial
  // aggregation for every thread count. Each edge is transformed before
  // the aggregation; aggregating first, as the relation layer does, would
  // change the rounding.
  // Per-edge input: e_s + r.
  Tensor x = tensor::Add(tensor::GatherRows(nodes, g.src()),
                         tensor::GatherRows(relations, g.rel()));
  // Basis-decomposed per-edge transform:
  //   m_e = sum_b coeff[rel_e, b] * (x_e V_b^T).
  Tensor coeff_e = tensor::GatherRows(coeff_, g.rel());
  Tensor msg;
  for (int64_t b = 0; b < num_bases_; ++b) {
    Tensor part = tensor::MulColBroadcast(
        tensor::MatMulTransposeB(x, bases_[b]),
        tensor::SliceCols(coeff_e, b, 1));
    msg = msg.defined() ? tensor::Add(msg, part) : part;
  }
  // Degree normalisation 1/c_{o,r} and the sum over in-edges, in one op.
  Tensor agg = tensor::AggregateRows(msg, g.edge_aggregation());
  // Self loop and activation.
  Tensor out = tensor::Add(agg, tensor::MatMulTransposeB(nodes, self_weight_));
  out = tensor::RRelu(out, kRReluLo, kRReluHi, training(), rng);
  return tensor::Dropout(out, dropout_, training(), rng);
}

RelationRgcnLayer::RelationRgcnLayer(int64_t dim, float dropout,
                                     util::Rng* rng)
    : dropout_(dropout) {
  for (int64_t hr = 0; hr < graph::kNumHyperRelationsAug; ++hr) {
    weights_.push_back(RegisterParameter("w_hr" + std::to_string(hr),
                                         nn::XavierUniform({dim, dim}, rng)));
  }
  self_weight_ =
      RegisterParameter("self_weight", nn::XavierUniform({dim, dim}, rng));
}

Tensor RelationRgcnLayer::Forward(const Tensor& relations,
                                  const Tensor& hyperrelations,
                                  const graph::HyperSubgraph& hg,
                                  util::Rng* rng) const {
  RETIA_CHECK_EQ(hyperrelations.Dim(0), graph::kNumHyperRelationsAug);
  Tensor out = tensor::MatMulTransposeB(relations, self_weight_);
  if (hg.num_edges() > 0) {
    // Eq. 1 is linear in (r_s + hr) up to f, so it aggregates before it
    // transforms: row r_o of `slots` holds, in column block hr, the
    // normalised sum of r_s + hr over R_{r_o}^{hr}, and one GEMM against
    // the eight W_hr side by side applies every transform. That costs
    // E*d + 8*2M*d^2 instead of a d x d product per hyperedge.
    Tensor slots = tensor::Add(
        tensor::AggregateRows(relations, hg.relation_aggregation()),
        tensor::AggregateRows(hyperrelations,
                              hg.hyperrelation_aggregation()));
    out = tensor::Add(out, tensor::MatMulTransposeB(
                               slots, tensor::ConcatCols(weights_)));
  }
  out = tensor::RRelu(out, kRReluLo, kRReluHi, training(), rng);
  return tensor::Dropout(out, dropout_, training(), rng);
}

EntityRgcnStack::EntityRgcnStack(int64_t dim, int64_t num_relations_aug,
                                 int64_t num_bases, int64_t layers,
                                 float dropout, util::Rng* rng) {
  for (int64_t l = 0; l < layers; ++l) {
    layers_.push_back(std::make_unique<EntityRgcnLayer>(
        dim, num_relations_aug, num_bases, dropout, rng));
    RegisterModule("layer" + std::to_string(l), layers_.back().get());
  }
}

Tensor EntityRgcnStack::Forward(const Tensor& nodes, const Tensor& relations,
                                const graph::Subgraph& g,
                                util::Rng* rng) const {
  Tensor h = nodes;
  for (const auto& layer : layers_) h = layer->Forward(h, relations, g, rng);
  return h;
}

RelationRgcnStack::RelationRgcnStack(int64_t dim, int64_t layers,
                                     float dropout, util::Rng* rng) {
  for (int64_t l = 0; l < layers; ++l) {
    layers_.push_back(std::make_unique<RelationRgcnLayer>(dim, dropout, rng));
    RegisterModule("layer" + std::to_string(l), layers_.back().get());
  }
}

Tensor RelationRgcnStack::Forward(const Tensor& relations,
                                  const Tensor& hyperrelations,
                                  const graph::HyperSubgraph& hg,
                                  util::Rng* rng) const {
  Tensor h = relations;
  for (const auto& layer : layers_)
    h = layer->Forward(h, hyperrelations, hg, rng);
  return h;
}

}  // namespace retia::core

#include "stream/grow.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace retia::stream {

std::unique_ptr<core::RetiaModel> CloneModel(const core::RetiaModel& model) {
  std::unique_ptr<core::RetiaModel> clone = model.Clone();
  clone->SetTraining(false);
  return clone;
}

serve::EngineSnapshot FrozenSnapshot(const core::RetiaModel& model,
                                     const tkg::TkgDataset& dataset) {
  serve::EngineSnapshot snapshot;
  snapshot.model = CloneModel(model);
  snapshot.dataset = std::make_unique<tkg::TkgDataset>(dataset);
  snapshot.graph_cache =
      std::make_unique<graph::GraphCache>(snapshot.dataset.get());
  return snapshot;
}

std::unique_ptr<core::RetiaModel> GrowEntityVocab(
    const core::RetiaModel& model, int64_t new_num_entities) {
  core::RetiaConfig config = model.config();
  RETIA_CHECK_LE(config.num_entities, new_num_entities);
  RETIA_CHECK_MSG(config.use_eam,
                  "entity-vocab growth needs the trainable entity channel "
                  "(config.use_eam); ablated models must reject unseen "
                  "entities");
  RETIA_CHECK_MSG(!model.has_entity_types(),
                  "static-constraint models hold a per-entity type table "
                  "and cannot grow online; use UnseenPolicy::kReject");
  const int64_t old_n = config.num_entities;
  config.num_entities = new_num_entities;
  auto grown = std::make_unique<core::RetiaModel>(config);

  std::map<std::string, tensor::Tensor> old_params;
  for (auto& [name, t] : model.NamedParameters()) old_params.emplace(name, t);

  for (auto& [name, dst] : grown->NamedParameters()) {
    auto it = old_params.find(name);
    RETIA_CHECK_MSG(it != old_params.end(),
                    "grown model parameter '" << name
                                              << "' missing in the source");
    const tensor::Tensor& src = it->second;
    tensor::FloatBuffer& dst_data = dst.impl().data;
    const tensor::FloatBuffer& src_data = src.impl().data;
    if (name == "entity_init.table") {
      // [N, d] row-major: the old rows carry over, the new tail keeps the
      // grown model's fresh Xavier init.
      RETIA_CHECK_EQ(src.Dim(0), old_n);
      RETIA_CHECK_EQ(dst.Dim(0), new_num_entities);
      RETIA_CHECK_EQ(src.Dim(1), dst.Dim(1));
      std::copy(src_data.begin(), src_data.end(), dst_data.begin());
    } else {
      // Every other parameter is entity-count independent.
      RETIA_CHECK_MSG(src_data.size() == dst_data.size(),
                      "parameter '" << name << "' changed shape on growth");
      dst_data = src_data;
    }
  }
  grown->SetTraining(model.training());
  return grown;
}

}  // namespace retia::stream

#include "serve/snapshot.h"

#include <string>
#include <utility>

#include "ckpt/model_io.h"

namespace retia::serve {

ckpt::Result SaveModelSnapshot(const core::RetiaModel& model,
                               const std::string& prefix,
                               const std::string& dataset_name) {
  return ckpt::SaveModelArtifact(model, prefix + ".ckpt", dataset_name);
}

ckpt::Result SaveQuantizedModelSnapshot(const core::RetiaModel& model,
                                        const std::string& prefix,
                                        const std::string& dataset_name) {
  return ckpt::SaveQuantizedModelArtifact(model, prefix + ".ckpt",
                                          dataset_name);
}

ckpt::Result LoadModelSnapshot(const std::string& prefix,
                               std::unique_ptr<core::RetiaModel>* model,
                               std::string* dataset_name) {
  std::unique_ptr<core::RetiaModel> loaded;
  RETIA_CKPT_RETURN_IF_ERROR(
      ckpt::LoadModelArtifact(prefix + ".ckpt", &loaded, dataset_name));
  loaded->SetTraining(false);
  *model = std::move(loaded);
  return ckpt::Result::Ok();
}

}  // namespace retia::serve

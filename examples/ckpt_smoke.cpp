// Crash/resume smoke driver for retia::ckpt, used by scripts/check.sh to
// prove resume-exact training end to end against a real SIGKILL:
//
//   ckpt_smoke straight <dir>   train 4 epochs uninterrupted, dump the
//                               final parameter bytes to
//                               <dir>/params_straight.bin
//   ckpt_smoke crashy <dir>     same run, saving the training state to
//                               <dir>/state.ckpt after every epoch; the
//                               caller arms RETIA_FAIL_CRASH_AFTER_RENAME
//                               so the process is SIGKILLed mid-run
//   ckpt_smoke resume <dir>     resume from <dir>/state.ckpt, finish the
//                               run, dump <dir>/params_resumed.bin
//
// The two .bin dumps must be byte-identical (`cmp` in check.sh): the
// dropout RNG stream, Adam moments and best-validation snapshot all
// round-trip through the artifact.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "ckpt/result.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"

namespace {

retia::tkg::TkgDataset MakeDataset() {
  retia::tkg::SyntheticConfig config;
  config.name = "ckpt-smoke";
  config.num_entities = 60;
  config.num_relations = 8;
  config.num_timestamps = 20;
  config.facts_per_timestamp = 15;
  config.num_schemas = 60;
  return retia::tkg::GenerateSynthetic(config);
}

retia::core::RetiaConfig MakeModelConfig(const retia::tkg::TkgDataset& d) {
  retia::core::RetiaConfig config;
  config.num_entities = d.num_entities();
  config.num_relations = d.num_relations();
  config.dim = 16;
  config.history_len = 2;
  // Dropout makes training consume the model RNG, so this smoke also
  // proves the RNG stream round-trips through the artifact.
  config.dropout = 0.2f;
  return config;
}

bool DumpParams(const retia::core::RetiaModel& model,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  for (const retia::tensor::Tensor& p :
       const_cast<retia::core::RetiaModel&>(model).Parameters()) {
    const retia::tensor::FloatBuffer& data = p.impl().data;
    if (std::fwrite(data.data(), sizeof(float), data.size(), f) !=
        data.size()) {
      std::fclose(f);
      return false;
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace retia;
  if (argc != 3) {
    std::cerr << "usage: ckpt_smoke straight|crashy|resume <dir>\n";
    return 2;
  }
  const std::string mode = argv[1];
  const std::string dir = argv[2];
  const std::string state_path = dir + "/state.ckpt";

  const tkg::TkgDataset dataset = MakeDataset();
  core::RetiaModel model(MakeModelConfig(dataset));
  graph::GraphCache cache(&dataset);

  train::TrainConfig tc;
  tc.max_epochs = 4;
  tc.patience = 99;
  tc.verbose = true;
  if (mode == "crashy" || mode == "resume") tc.checkpoint_path = state_path;
  train::Trainer trainer(&model, &cache, tc);

  if (mode == "resume") {
    ckpt::Result resumed = trainer.ResumeState(state_path);
    if (!resumed.ok()) {
      std::cerr << "resume failed: " << resumed.ToString() << "\n";
      return 1;
    }
    std::cout << "resumed at epoch " << trainer.next_epoch() << "\n";
  } else if (mode != "straight" && mode != "crashy") {
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
  }

  trainer.TrainGeneral();

  const std::string dump =
      dir + (mode == "straight" ? "/params_straight.bin"
                                : "/params_resumed.bin");
  if (mode != "crashy" && !DumpParams(model, dump)) {
    std::cerr << "failed to write " << dump << "\n";
    return 1;
  }
  if (mode != "crashy") std::cout << "wrote " << dump << "\n";
  return 0;
}

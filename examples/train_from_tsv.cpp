// Command-line trainer: runs RETIA on a dataset in the standard benchmark
// TSV format (one fact per line: "subject\trelation\tobject\ttimestamp",
// integer ids). This is the path for using this library on the original
// ICEWS/YAGO/WIKI dumps or any custom TKG export.
//
// Usage:
//   train_from_tsv <quadruples.tsv> [options]
//     --granularity N     divide raw timestamps by N (e.g. 24 for hourly
//                         ICEWS dumps sliced into days)        [default 1]
//     --dim N             embedding dimensionality             [default 32]
//     --history N         history length k                     [default 3]
//     --epochs N          max general-training epochs          [default 15]
//     --patience N        early-stopping patience              [default 5]
//     --offline           skip online continuous training
//     --filtered          report time-aware filtered metrics too
//     --save PATH         write a model artifact (RETIACKPT2) after
//                         training
//     --load PATH         start from the parameters of a model artifact
//                         (skips training if --epochs 0)
//     --resume PATH       crash-safe training: save the full training
//                         state (parameters, Adam, RNG, epoch cursor) to
//                         PATH after every epoch, and continue from it
//                         when PATH already exists. A killed run resumed
//                         this way reaches bit-identical parameters.
//
// With no argument, a demonstration dataset is generated, saved to
// /tmp/retia_demo.tsv and used, so the binary is runnable standalone.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "ckpt/result.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "ckpt/model_io.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace retia;

  std::string data_path;
  int64_t granularity = 1;
  core::RetiaConfig config;
  config.dim = 32;
  config.history_len = 3;
  train::TrainConfig tc;
  tc.max_epochs = 15;
  tc.patience = 5;
  tc.verbose = true;
  bool online = true;
  bool filtered = false;
  std::string save_path;
  std::string load_path;
  std::string resume_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--granularity") granularity = std::stoll(next());
    else if (arg == "--dim") config.dim = std::stoll(next());
    else if (arg == "--history") config.history_len = std::stoll(next());
    else if (arg == "--epochs") tc.max_epochs = std::stoll(next());
    else if (arg == "--patience") tc.patience = std::stoll(next());
    else if (arg == "--offline") online = false;
    else if (arg == "--filtered") filtered = true;
    else if (arg == "--save") save_path = next();
    else if (arg == "--load") load_path = next();
    else if (arg == "--resume") resume_path = next();
    else if (arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return 1;
    } else {
      data_path = arg;
    }
  }

  if (data_path.empty()) {
    std::cout << "no dataset given; generating a demo TKG at "
                 "/tmp/retia_demo.tsv\n";
    tkg::SyntheticConfig demo;
    demo.name = "demo";
    demo.num_entities = 120;
    demo.num_relations = 12;
    demo.num_timestamps = 40;
    demo.facts_per_timestamp = 30;
    demo.num_schemas = 160;
    demo.max_period = 4;
    tkg::TkgDataset d = tkg::GenerateSynthetic(demo);
    std::vector<tkg::Quadruple> all = d.train();
    all.insert(all.end(), d.valid().begin(), d.valid().end());
    all.insert(all.end(), d.test().begin(), d.test().end());
    tkg::SaveQuadrupleFile("/tmp/retia_demo.tsv", all);
    data_path = "/tmp/retia_demo.tsv";
  }

  // Load, derive vocabulary sizes, split 80/10/10 by time.
  std::vector<tkg::Quadruple> quads =
      tkg::LoadQuadrupleFile(data_path, granularity);
  if (quads.empty()) {
    std::cerr << "no quadruples in " << data_path << "\n";
    return 1;
  }
  int64_t num_entities = 0;
  int64_t num_relations = 0;
  for (const tkg::Quadruple& q : quads) {
    num_entities = std::max({num_entities, q.subject + 1, q.object + 1});
    num_relations = std::max(num_relations, q.relation + 1);
  }
  std::vector<tkg::Quadruple> train_q, valid_q, test_q;
  tkg::SplitByTime(quads, tkg::SplitProportions{}, &train_q, &valid_q,
                   &test_q);
  tkg::TkgDataset dataset(data_path, num_entities, num_relations, train_q,
                          valid_q, test_q);
  tkg::DatasetStats stats = dataset.Stats();
  std::cout << "dataset: " << stats.num_entities << " entities, "
            << stats.num_relations << " relations, " << stats.num_train
            << "/" << stats.num_valid << "/" << stats.num_test
            << " train/valid/test facts over " << stats.num_timestamps
            << " timestamps\n";

  config.num_entities = num_entities;
  config.num_relations = num_relations;
  core::RetiaModel model(config);
  std::cout << "RETIA with " << model.NumParameters() << " parameters (d="
            << config.dim << ", k=" << config.history_len << ")\n";
  if (!load_path.empty()) {
    // The artifact's parameters must match this model's names and shapes.
    std::unique_ptr<core::RetiaModel> saved;
    ckpt::Result loaded = ckpt::LoadModelArtifact(load_path, &saved, nullptr);
    if (loaded.ok()) {
      loaded = ckpt::DecodeParamsInto(&model, ckpt::EncodeParams(*saved));
    }
    if (!loaded.ok()) {
      std::cerr << "cannot load " << load_path << ": " << loaded.ToString()
                << "\n";
      return 1;
    }
    std::cout << "loaded checkpoint " << load_path << "\n";
  }

  graph::GraphCache cache(&dataset);
  tc.checkpoint_path = resume_path;
  train::Trainer trainer(&model, &cache, tc);
  if (!resume_path.empty()) {
    ckpt::Result resumed = trainer.ResumeState(resume_path);
    if (resumed.ok()) {
      std::cout << "resumed training state from " << resume_path
                << " (next epoch " << trainer.next_epoch() << ")\n";
    } else if (resumed.code() == ckpt::ErrorCode::kIoError) {
      std::cout << "no training state at " << resume_path
                << "; starting fresh\n";
    } else {
      std::cerr << "cannot resume from " << resume_path << ": "
                << resumed.ToString() << "\n";
      return 1;
    }
  }
  if (tc.max_epochs > 0) {
    util::Timer timer;
    trainer.TrainGeneral();
    std::cout << "general training: " << util::FormatDuration(timer.Seconds())
              << "\n";
  }
  if (!save_path.empty()) {
    const ckpt::Result saved =
        ckpt::SaveModelArtifact(model, save_path, dataset.name());
    if (!saved.ok()) {
      std::cerr << "cannot save " << save_path << ": " << saved.ToString()
                << "\n";
      return 1;
    }
    std::cout << "saved checkpoint to " << save_path << "\n";
  }

  eval::EvalResult raw = trainer.Evaluate(dataset.test_times(), online);
  std::cout << (online ? "online" : "offline") << " raw metrics: entity MRR "
            << raw.entity.Mrr() << " H@1 " << raw.entity.Hits1() << " H@3 "
            << raw.entity.Hits3() << " H@10 " << raw.entity.Hits10()
            << " | relation MRR " << raw.relation.Mrr() << "\n";
  if (filtered) {
    eval::EvalOptions options;
    options.time_aware_filter = true;
    eval::EvalResult f =
        trainer.Evaluate(dataset.test_times(), /*online=*/false, options);
    std::cout << "time-aware filtered: entity MRR " << f.entity.Mrr()
              << " H@10 " << f.entity.Hits10() << " | relation MRR "
              << f.relation.Mrr() << "\n";
  }
  return 0;
}

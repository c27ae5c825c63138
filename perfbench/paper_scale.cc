// Paper-scale stage split of one RETIA history evolution (d = 200, ~23k
// entities, ~250 relations, the ICEWS18 shape): Algorithm 1's twin
// hyperrelation subgraph against Evolve, and the EAM, RAM and TIM costs
// as differences between RetiaConfig ablation switches. One history step,
// evolved twice per variant, keeps it near 45 s on one core, which is also
// why paper scale stays out of the gated workloads.

#include <string>
#include <vector>

#include "core/retia.h"
#include "graph/graph_cache.h"
#include "tensor/tensor.h"
#include "tkg/synthetic.h"
#include "workloads.h"

namespace perfbench {

using namespace retia;

void TracePaperScale(Report* report, Trace* trace) {
  report->Line("paper-scale evolution (d=200, 23000 entities, 250 relations, "
               "1 history step)");
  tkg::SyntheticConfig data;
  data.name = "perfbench-paper";
  data.num_entities = 23000;
  data.num_relations = 250;
  data.num_timestamps = 10;
  data.facts_per_timestamp = 1500;
  data.num_schemas = 6000;
  data.seed = 17;
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(data);
  graph::GraphCache cache(&dataset);
  const std::vector<int64_t> history =
      cache.HistoryBefore(dataset.max_time() + 1, 1);

  SpanLog log;
  log.Time("paper.graph.GraphCache.hypergraph", -1, 0, [&] {
    for (int64_t t : history) cache.hypergraph(t);
  });

  core::RetiaConfig full;
  full.num_entities = dataset.num_entities();
  full.num_relations = dataset.num_relations();
  full.dim = 200;
  full.history_len = 1;
  full.dropout = 0.0f;
  core::RetiaConfig no_eam = full;
  no_eam.use_eam = false;
  core::RetiaConfig no_ram = full;
  no_ram.use_ram = false;
  core::RetiaConfig no_agg = full;  // TIM's relation LSTM, no RAM aggregation
  no_agg.relation_mode = core::RelationMode::kMpLstm;
  core::RetiaConfig no_hyper = full;  // RAM over static hyperrelations
  no_hyper.hyper_mode = core::HyperMode::kNone;
  const std::vector<std::pair<const char*, const core::RetiaConfig*>> variants =
      {{"paper.core.Evolve[full]", &full},
       {"paper.core.Evolve[use_eam=false]", &no_eam},
       {"paper.core.Evolve[use_ram=false]", &no_ram},
       {"paper.core.Evolve[relation_mode=kMpLstm]", &no_agg},
       {"paper.core.Evolve[hyper_mode=kNone]", &no_hyper}};
  // Two interleaved rounds; each variant keeps its faster evolution, the
  // one less disturbed by other load on the host.
  tensor::NoGradGuard guard;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [name, config] : variants) {
      core::RetiaModel model(*config);
      model.SetTraining(false);
      log.Time(name, -1, round, [&] { model.Evolve(cache, history); });
    }
  }
  trace->Add(log);

  const auto ms = [&](const char* name) { return trace->MinUs(name) / 1e3; };
  const double evolve = ms("paper.core.Evolve[full]");
  const double without_eam = ms("paper.core.Evolve[use_eam=false]");
  const double without_ram = ms("paper.core.Evolve[use_ram=false]");
  const double without_agg = ms("paper.core.Evolve[relation_mode=kMpLstm]");
  const double without_hyper = ms("paper.core.Evolve[hyper_mode=kNone]");
  report->Metric("paper.graph.hypergraph_ms",
                 ms("paper.graph.GraphCache.hypergraph"), "ms",
                 "Algorithm 1, fresh cache");
  report->Metric("paper.core.evolve_ms", evolve, "ms", "full RETIA");
  report->Metric("paper.core.eam_ms", evolve - without_eam, "ms",
                 "full - use_eam=false");
  // The RAM proper: hyperrelation-subgraph R-GCN + R-GRU over static
  // hyperrelation embeddings.
  report->Metric("paper.core.ram_ms", without_hyper - without_agg, "ms",
                 "hyper_mode=kNone - relation_mode=kMpLstm");
  // The TIM: hyper pooling + HLSTM, and relation pooling + LSTM.
  report->Metric("paper.core.tim_ms",
                 (evolve - without_hyper) + (without_agg - without_ram), "ms",
                 "(full - hyper_mode=kNone) + (relation_mode=kMpLstm - "
                 "use_ram=false)");
}

}  // namespace perfbench

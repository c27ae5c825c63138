#ifndef RETIA_TKG_DATASET_H_
#define RETIA_TKG_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace retia::tkg {

// One fact (s, r, o, t). Entities and relations are dense integer ids;
// timestamps are dense integers after granularity normalisation (one unit =
// one temporal subgraph, matching the paper's G_t slicing).
struct Quadruple {
  int64_t subject = 0;
  int64_t relation = 0;
  int64_t object = 0;
  int64_t time = 0;

  friend bool operator==(const Quadruple&, const Quadruple&) = default;
  friend auto operator<=>(const Quadruple&, const Quadruple&) = default;
};

// Table V style summary of a dataset.
struct DatasetStats {
  std::string name;
  int64_t num_entities = 0;
  int64_t num_relations = 0;
  int64_t num_train = 0;
  int64_t num_valid = 0;
  int64_t num_test = 0;
  int64_t num_timestamps = 0;
  std::string granularity;
};

// A temporal knowledge graph with train/valid/test splits. The splits are
// time-ordered (train timestamps < valid timestamps < test timestamps),
// matching the extrapolation protocol: models may only see strictly earlier
// subgraphs when forecasting a timestamp.
//
// Every split and every timestamp's facts are held as an immutable shared
// bucket that is never written after it is built, so a copy of a dataset
// shares all of them: copying costs one pointer per timestamp, not one
// per fact, and a copy reads the same facts at the same addresses as its
// source.
class TkgDataset {
 public:
  TkgDataset(std::string name, int64_t num_entities, int64_t num_relations,
             std::vector<Quadruple> train, std::vector<Quadruple> valid,
             std::vector<Quadruple> test, std::string granularity = "synthetic");

  const std::string& name() const { return name_; }
  int64_t num_entities() const { return num_entities_; }
  int64_t num_relations() const { return num_relations_; }

  const std::vector<Quadruple>& train() const { return *train_; }
  const std::vector<Quadruple>& valid() const { return *valid_; }
  const std::vector<Quadruple>& test() const { return *test_; }

  // All facts at timestamp `t`, across every split (streamed buckets
  // included), in split order. Empty vector when the timestamp has no
  // facts. Used to build evaluation histories under the raw protocol (all
  // previously *observed* facts are available as history). The reference
  // stays valid as long as this dataset or any copy of it.
  const std::vector<Quadruple>& FactsAt(int64_t t) const;

  // Sorted list of timestamps that carry at least one fact, per split.
  const std::vector<int64_t>& train_times() const { return train_times_; }
  const std::vector<int64_t>& valid_times() const { return valid_times_; }
  const std::vector<int64_t>& test_times() const { return test_times_; }

  // ---- Streaming append path (src/stream) --------------------------------
  //
  // A live dataset is grown at the frontier only: retia::stream seals one
  // timestep bucket at a time and appends it here, so every timestamp is
  // appended exactly once and historical subgraphs never change after the
  // fact (lazily-built GraphCache entries stay valid). Appends are NOT
  // thread-safe; the stream pipeline serializes them against readers by
  // only publishing copies to the serving tier. An append never touches a
  // bucket a copy shares.

  // Appends one sealed bucket of facts, all at timestamp `t`, which must be
  // strictly greater than every existing timestamp (max_time()). Facts must
  // respect the current vocabulary bounds.
  void AppendBucket(int64_t t, const std::vector<Quadruple>& facts);

  // Raises the entity/relation vocabulary bounds (never shrinks). Existing
  // facts keep their ids; the caller is responsible for growing any model
  // that scores against this dataset (see stream::GrowEntityVocab).
  void GrowVocab(int64_t num_entities, int64_t num_relations);

  // Sorted fact-bearing timestamps across every split and streamed bucket.
  const std::vector<int64_t>& all_times() const { return all_times_; }

  // Newest fact-bearing timestamp, or -1 for an empty dataset.
  int64_t max_time() const {
    return all_times_.empty() ? -1 : all_times_.back();
  }

  // Number of distinct timestamps across all splits.
  int64_t num_timestamps() const {
    return static_cast<int64_t>(all_times_.size());
  }

  DatasetStats Stats() const;

 private:
  using Bucket = std::shared_ptr<const std::vector<Quadruple>>;

  std::string name_;
  int64_t num_entities_;
  int64_t num_relations_;
  std::string granularity_;
  Bucket train_;
  Bucket valid_;
  Bucket test_;
  std::vector<int64_t> train_times_;
  std::vector<int64_t> valid_times_;
  std::vector<int64_t> test_times_;
  std::vector<int64_t> all_times_;
  // buckets_[i] holds the facts at all_times_[i].
  std::vector<Bucket> buckets_;
};

// Reads quadruples from the benchmark TSV format used by the RE-GCN/RETIA
// releases: one fact per line, "subject\trelation\tobject\ttime" (extra
// columns are ignored). Timestamps are divided by `time_granularity` when
// it is > 1 (the raw ICEWS dumps use 24h granularity in hours).
std::vector<Quadruple> LoadQuadrupleFile(const std::string& path,
                                         int64_t time_granularity = 1);

// Writes quadruples in the same TSV format.
void SaveQuadrupleFile(const std::string& path,
                       const std::vector<Quadruple>& quads);

// Splits facts into train/valid/test by time proportions (default 80/10/10
// as in the paper). Facts are grouped by timestamp: every fact of one
// timestamp lands in the same split.
struct SplitProportions {
  double train = 0.8;
  double valid = 0.1;
};
void SplitByTime(std::vector<Quadruple> all, const SplitProportions& prop,
                 std::vector<Quadruple>* train, std::vector<Quadruple>* valid,
                 std::vector<Quadruple>* test);

}  // namespace retia::tkg

#endif  // RETIA_TKG_DATASET_H_

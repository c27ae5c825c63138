#include "tkg/dataset.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/check.h"

namespace retia::tkg {

namespace {

std::vector<int64_t> DistinctTimes(const std::vector<Quadruple>& quads) {
  std::set<int64_t> times;
  for (const Quadruple& q : quads) times.insert(q.time);
  return {times.begin(), times.end()};
}

void CheckIds(const Quadruple& q, int64_t num_entities,
              int64_t num_relations) {
  RETIA_CHECK_LE(0, q.subject);
  RETIA_CHECK_LT(q.subject, num_entities);
  RETIA_CHECK_LE(0, q.object);
  RETIA_CHECK_LT(q.object, num_entities);
  RETIA_CHECK_LE(0, q.relation);
  RETIA_CHECK_LT(q.relation, num_relations);
}

}  // namespace

TkgDataset::TkgDataset(std::string name, int64_t num_entities,
                       int64_t num_relations, std::vector<Quadruple> train,
                       std::vector<Quadruple> valid,
                       std::vector<Quadruple> test, std::string granularity)
    : name_(std::move(name)),
      num_entities_(num_entities),
      num_relations_(num_relations),
      granularity_(std::move(granularity)),
      train_(std::make_shared<const std::vector<Quadruple>>(std::move(train))),
      valid_(std::make_shared<const std::vector<Quadruple>>(std::move(valid))),
      test_(std::make_shared<const std::vector<Quadruple>>(std::move(test))) {
  std::map<int64_t, std::vector<Quadruple>> by_time;
  for (const Bucket& split : {train_, valid_, test_}) {
    for (const Quadruple& q : *split) {
      CheckIds(q, num_entities_, num_relations_);
      RETIA_CHECK_LE(0, q.time);
      by_time[q.time].push_back(q);
    }
  }
  train_times_ = DistinctTimes(*train_);
  valid_times_ = DistinctTimes(*valid_);
  test_times_ = DistinctTimes(*test_);
  for (auto& [t, facts] : by_time) {
    all_times_.push_back(t);
    buckets_.push_back(
        std::make_shared<const std::vector<Quadruple>>(std::move(facts)));
  }
}

void TkgDataset::AppendBucket(int64_t t, const std::vector<Quadruple>& facts) {
  RETIA_CHECK_MSG(t > max_time(),
                  "AppendBucket(" << t << ") is not past the frontier "
                                  << max_time()
                                  << "; buckets seal strictly in time order");
  RETIA_CHECK(!facts.empty());
  for (const Quadruple& q : facts) {
    RETIA_CHECK_EQ(q.time, t);
    CheckIds(q, num_entities_, num_relations_);
  }
  all_times_.push_back(t);  // t > max_time() keeps the vector sorted
  buckets_.push_back(std::make_shared<const std::vector<Quadruple>>(facts));
}

void TkgDataset::GrowVocab(int64_t num_entities, int64_t num_relations) {
  RETIA_CHECK_LE(num_entities_, num_entities);
  RETIA_CHECK_LE(num_relations_, num_relations);
  num_entities_ = num_entities;
  num_relations_ = num_relations;
}

const std::vector<Quadruple>& TkgDataset::FactsAt(int64_t t) const {
  static const std::vector<Quadruple> kEmpty;
  auto it = std::lower_bound(all_times_.begin(), all_times_.end(), t);
  if (it == all_times_.end() || *it != t) return kEmpty;
  return *buckets_[static_cast<size_t>(it - all_times_.begin())];
}

DatasetStats TkgDataset::Stats() const {
  DatasetStats s;
  s.name = name_;
  s.num_entities = num_entities_;
  s.num_relations = num_relations_;
  s.num_train = static_cast<int64_t>(train_->size());
  s.num_valid = static_cast<int64_t>(valid_->size());
  s.num_test = static_cast<int64_t>(test_->size());
  s.num_timestamps = num_timestamps();
  s.granularity = granularity_;
  return s;
}

std::vector<Quadruple> LoadQuadrupleFile(const std::string& path,
                                         int64_t time_granularity) {
  std::ifstream in(path);
  RETIA_CHECK_MSG(in.good(), "cannot open " << path);
  std::vector<Quadruple> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream iss(line);
    Quadruple q;
    if (!(iss >> q.subject >> q.relation >> q.object >> q.time)) continue;
    if (time_granularity > 1) q.time /= time_granularity;
    out.push_back(q);
  }
  return out;
}

void SaveQuadrupleFile(const std::string& path,
                       const std::vector<Quadruple>& quads) {
  std::ofstream out(path);
  RETIA_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  for (const Quadruple& q : quads) {
    out << q.subject << '\t' << q.relation << '\t' << q.object << '\t'
        << q.time << '\n';
  }
}

void SplitByTime(std::vector<Quadruple> all, const SplitProportions& prop,
                 std::vector<Quadruple>* train, std::vector<Quadruple>* valid,
                 std::vector<Quadruple>* test) {
  RETIA_CHECK(prop.train > 0.0 && prop.valid >= 0.0 &&
              prop.train + prop.valid < 1.0 + 1e-9);
  std::sort(all.begin(), all.end(),
            [](const Quadruple& a, const Quadruple& b) {
              return a.time < b.time ||
                     (a.time == b.time && std::tie(a.subject, a.relation,
                                                   a.object) <
                                              std::tie(b.subject, b.relation,
                                                       b.object));
            });
  const std::vector<int64_t> times = DistinctTimes(all);
  const int64_t total = static_cast<int64_t>(times.size());
  RETIA_CHECK_MSG(total >= 3, "need at least 3 timestamps to split");
  int64_t n_train = std::max<int64_t>(
      1, static_cast<int64_t>(prop.train * static_cast<double>(total)));
  int64_t n_valid = std::max<int64_t>(
      1, static_cast<int64_t>(prop.valid * static_cast<double>(total)));
  if (n_train + n_valid >= total) {
    n_train = total - 2;
    n_valid = 1;
  }
  const int64_t valid_from = times[n_train];
  const int64_t test_from = times[n_train + n_valid];
  train->clear();
  valid->clear();
  test->clear();
  for (const Quadruple& q : all) {
    if (q.time < valid_from) {
      train->push_back(q);
    } else if (q.time < test_from) {
      valid->push_back(q);
    } else {
      test->push_back(q);
    }
  }
}

}  // namespace retia::tkg

#include "meta/knowledge_base.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "model/features.h"

namespace sparktune {

SimilarityPairPlan PlanSimilarityPairs(size_t num_tasks, uint64_t seed) {
  SimilarityPairPlan plan;
  const size_t n = num_tasks;
  for (size_t s = 0; s < std::min(n, kMaxSelfPairs); ++s) {
    plan.self.push_back(n <= kMaxSelfPairs ? s : s * n / kMaxSelfPairs);
  }
  const uint64_t total = n < 2 ? 0 : static_cast<uint64_t>(n) * (n - 1) / 2;
  if (total <= kMaxCrossPairs) {
    for (size_t i = 0; i + 1 < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) plan.cross.emplace_back(i, j);
    }
    return plan;
  }
  // Floyd's sampling: kMaxCrossPairs distinct indices into the pairs
  // (i, j), i < j, numbered in row order, one draw each.
  Rng rng(seed);
  std::set<uint64_t> picked;
  for (uint64_t j = total - kMaxCrossPairs; j < total; ++j) {
    const uint64_t t =
        static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(j)));
    picked.insert(picked.count(t) > 0 ? j : t);
  }
  size_t i = 0;
  uint64_t row_start = 0;  // index of the pair (i, i + 1)
  for (uint64_t index : picked) {
    while (index >= row_start + (n - 1 - i)) {
      row_start += n - 1 - i;
      ++i;
    }
    plan.cross.emplace_back(i, i + 1 + static_cast<size_t>(index - row_start));
  }
  return plan;
}

KnowledgeBase::KnowledgeBase(const ConfigSpace* space,
                             KnowledgeBaseOptions options)
    : space_(space), options_(options) {
  assert(space_ != nullptr);
  // Shared probe set for surrogate-ranking distances.
  Rng rng(options_.seed);
  probes_.reserve(static_cast<size_t>(options_.num_probe_configs));
  for (int i = 0; i < options_.num_probe_configs; ++i) {
    probes_.push_back(space_->ToUnit(space_->Sample(&rng)));
  }
}

Status KnowledgeBase::AddTask(const std::string& id,
                              const std::vector<double>& meta_features,
                              const RunHistory& history,
                              const std::vector<double>& importance) {
  if (history.empty()) {
    return Status::InvalidArgument("task history is empty: " + id);
  }
  TaskRecord rec;
  rec.id = id;
  rec.meta_features = meta_features;
  rec.importance = importance;

  // Collect non-failed observations (infeasible ones still carry signal).
  std::vector<std::pair<double, size_t>> ranked;  // (objective, history idx)
  for (size_t i = 0; i < history.size(); ++i) {
    if (history.failed(i) || !std::isfinite(history.objective(i))) continue;
    rec.x.push_back(space_->ToUnit(history.config(i)));
    rec.y.push_back(history.objective(i));
    if (history.feasible(i)) ranked.emplace_back(history.objective(i), i);
  }
  if (rec.x.size() < 3) {
    return Status::FailedPrecondition(
        "task has fewer than 3 usable observations: " + id);
  }
  // Base surrogates live in log-objective space, matching the Advisor's
  // log-target surrogates they are ensembled with (rankings are unchanged;
  // scales become commensurable across tasks).
  for (auto& v : rec.y) v = std::log(std::max(v, 1e-9));
  std::sort(ranked.begin(), ranked.end());  // ties break on history index
  for (size_t i = 0; i < std::min<size_t>(3, ranked.size()); ++i) {
    rec.top_configs.push_back(history.config(ranked[i].second));
  }

  rec.y_mean = Mean(rec.y);
  rec.y_scale = Stddev(rec.y);
  if (rec.y_scale < 1e-12) rec.y_scale = 1.0;

  auto schema = BuildFeatureSchema(*space_, 0);
  auto gp = std::make_shared<GaussianProcess>(schema, options_.gp);
  SPARKTUNE_RETURN_IF_ERROR(gp->Fit(rec.x, rec.y));
  for (const Prediction& p : gp->PredictBatch(probes_)) {
    rec.probe_means.push_back(p.mean);
  }
  rec.surrogate = std::move(gp);

  records_.push_back(std::move(rec));
  return Status::OK();
}

Status KnowledgeBase::TrainSimilarityModel() {
  if (records_.size() < 2) {
    return Status::FailedPrecondition(
        "similarity training needs at least 2 tasks");
  }
  // Self-pairs anchor the model at distance 0 for identical meta-features;
  // essential when only a handful of tasks exist. Cross-pairs are sampled
  // at fleet scale: labelling is quadratic in the number of tasks and the
  // GBDT needs only a few thousand examples.
  const SimilarityPairPlan plan =
      PlanSimilarityPairs(records_.size(), options_.seed ^ 0x9a1b);
  std::vector<SimilarityModel::LabelledPair> pairs;
  pairs.reserve(plan.self.size() + plan.cross.size());
  for (size_t i : plan.self) {
    pairs.push_back(
        {records_[i].meta_features, records_[i].meta_features, 0.0});
  }
  for (const auto& [i, j] : plan.cross) {
    pairs.push_back(
        {records_[i].meta_features, records_[j].meta_features,
         RankingDistance(records_[i].probe_means, records_[j].probe_means)});
  }
  return similarity_.Train(pairs);
}

std::vector<double> KnowledgeBase::DistancesTo(
    const std::vector<double>& meta) const {
  std::vector<double> d(records_.size(), 1.0);
  if (records_.empty()) return d;
  if (similarity_.trained()) {
    for (size_t i = 0; i < records_.size(); ++i) {
      d[i] = similarity_.PredictDistance(meta, records_[i].meta_features);
    }
    return d;
  }
  // Fallback: z-scored Euclidean mapped to [0, 1).
  size_t dims = meta.size();
  std::vector<double> mean(dims, 0.0), sd(dims, 0.0);
  for (const auto& r : records_) {
    for (size_t k = 0; k < dims; ++k) mean[k] += r.meta_features[k];
  }
  for (auto& m : mean) m /= static_cast<double>(records_.size());
  for (const auto& r : records_) {
    for (size_t k = 0; k < dims; ++k) {
      double diff = r.meta_features[k] - mean[k];
      sd[k] += diff * diff;
    }
  }
  for (auto& s : sd) {
    s = std::sqrt(s / static_cast<double>(records_.size()));
    if (s < 1e-9) s = 1.0;
  }
  for (size_t i = 0; i < records_.size(); ++i) {
    double acc = 0.0;
    for (size_t k = 0; k < dims; ++k) {
      double z = (meta[k] - records_[i].meta_features[k]) / sd[k];
      acc += z * z;
    }
    double dist = std::sqrt(acc / static_cast<double>(dims));
    d[i] = dist / (1.0 + dist);
  }
  return d;
}

std::vector<int> KnowledgeBase::MostSimilar(const std::vector<double>& meta,
                                            int k) const {
  std::vector<double> d = DistancesTo(meta);
  std::vector<int> order(records_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return d[static_cast<size_t>(a)] < d[static_cast<size_t>(b)];
  });
  order.resize(std::min<size_t>(static_cast<size_t>(k), order.size()));
  return order;
}

std::vector<Configuration> KnowledgeBase::WarmStartConfigs(
    const std::vector<double>& meta) const {
  std::vector<Configuration> out;
  for (int idx : MostSimilar(meta, options_.warm_start_tasks)) {
    const TaskRecord& rec = records_[static_cast<size_t>(idx)];
    if (!rec.top_configs.empty()) out.push_back(rec.top_configs.front());
  }
  return out;
}

SurrogateFactory KnowledgeBase::MakeMetaSurrogateFactory(
    const std::vector<double>& meta) const {
  std::vector<double> d = DistancesTo(meta);
  // Calibrate distances to the knowledge base's own range: cost surfaces
  // share a strong global resource trend, so raw Kendall distances sit in a
  // narrow band (every task looks "somewhat similar"). Min-max rescaling
  // restores contrast so the truly similar tasks dominate the ensemble.
  double d_min = 1.0, d_max = 0.0;
  for (double v : d) {
    d_min = std::min(d_min, v);
    d_max = std::max(d_max, v);
  }
  auto calibrated = [&](double v) {
    if (d_max - d_min < 1e-9) return v;
    return (v - d_min) / (d_max - d_min);
  };
  std::vector<int> order = MostSimilar(meta, options_.max_ensemble_bases);
  std::vector<BaseSurrogate> bases;
  for (int idx : order) {
    const TaskRecord& rec = records_[static_cast<size_t>(idx)];
    BaseSurrogate b;
    b.model = rec.surrogate;
    b.similarity = 1.0 - calibrated(d[static_cast<size_t>(idx)]);
    b.input_dims = space_->size();
    b.y_mean = rec.y_mean;
    b.y_scale = rec.y_scale;
    bases.push_back(std::move(b));
  }
  GpOptions gp = options_.gp;
  return [bases = std::move(bases), gp](const std::vector<FeatureKind>& schema)
             -> std::unique_ptr<Surrogate> {
    MetaEnsembleOptions opts;
    opts.gp = gp;
    return std::make_unique<MetaEnsembleSurrogate>(schema, bases, opts);
  };
}

std::vector<double> KnowledgeBase::SuggestImportance(
    const std::vector<double>& meta) const {
  std::vector<double> d = DistancesTo(meta);
  std::vector<double> acc(space_->size(), 0.0);
  double total_w = 0.0;
  for (size_t i = 0; i < records_.size(); ++i) {
    const TaskRecord& rec = records_[i];
    if (rec.importance.size() != acc.size()) continue;
    double w = 1.0 - d[i];
    if (w <= 0.0) continue;
    for (size_t k = 0; k < acc.size(); ++k) acc[k] += w * rec.importance[k];
    total_w += w;
  }
  if (total_w <= 0.0) return {};
  for (auto& v : acc) v /= total_w;
  return acc;
}

}  // namespace sparktune

// Meta-knowledge learner (paper §5): a store of completed tuning tasks
// (meta-features, run histories, fitted base surrogates, importance
// scores). It trains the similarity model, and serves the three transfer
// mechanisms:
//   * warm-start initial configurations (best config of the top-3 most
//     similar tasks, §5.2),
//   * the meta-surrogate ensemble factory,
//   * importance-score transfer for sub-space suggestion.
//
// All tasks in one knowledge base share a ConfigSpace; configurations are
// compared in normalized unit coordinates so tasks from differently-sized
// clusters of the same parameter set remain commensurable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bo/advisor.h"
#include "bo/history.h"
#include "meta/meta_features.h"
#include "meta/meta_surrogate.h"
#include "meta/similarity.h"
#include "model/gp.h"
#include "space/config_space.h"

namespace sparktune {

struct TaskRecord {
  std::string id;
  std::vector<double> meta_features;
  // Config-only encoded observations (unit cube) and objective values.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  // Best configurations, best first (up to 3 kept).
  std::vector<Configuration> top_configs;
  std::shared_ptr<Surrogate> surrogate;  // GP fit on (x, y)
  // The surrogate's predicted means over the knowledge base's probe set:
  // the similarity labels need nothing else from it.
  std::vector<double> probe_means;
  std::vector<double> importance;        // optional, space-indexed
  double y_mean = 0.0;
  double y_scale = 1.0;
};

// The labelled pairs behind one similarity fit. Up to 63 tasks that is
// every task with itself and every cross pair (C(63, 2) = 1953). Beyond
// that, kMaxSelfPairs evenly spaced self-pairs and kMaxCrossPairs cross
// pairs drawn without replacement, so a fit stays bounded at any fleet
// size.
inline constexpr size_t kMaxSelfPairs = 64;
inline constexpr size_t kMaxCrossPairs = 2000;

struct SimilarityPairPlan {
  std::vector<size_t> self;                      // record indices, ascending
  std::vector<std::pair<size_t, size_t>> cross;  // i < j, ascending
};

// Pairs for `num_tasks` records; `seed` drives the cross-pair draw.
SimilarityPairPlan PlanSimilarityPairs(size_t num_tasks, uint64_t seed);

struct KnowledgeBaseOptions {
  GpOptions gp;
  SimilarityModelOptions similarity;
  int num_probe_configs = 64;
  uint64_t seed = 99;
  int warm_start_tasks = 3;  // top-k similar tasks for warm starting
  int max_ensemble_bases = 5;
};

class KnowledgeBase {
 public:
  KnowledgeBase(const ConfigSpace* space, KnowledgeBaseOptions options = {});

  // Register a completed (or in-progress) task. Fits its base surrogate on
  // feasible observations. `importance` may be empty.
  Status AddTask(const std::string& id,
                 const std::vector<double>& meta_features,
                 const RunHistory& history,
                 const std::vector<double>& importance = {});

  size_t size() const { return records_.size(); }
  const std::vector<TaskRecord>& records() const { return records_; }
  // Shared probe configurations (unit cube) behind the similarity labels.
  const std::vector<std::vector<double>>& probes() const { return probes_; }

  // Train M_reg from pairwise surrogate distances over a shared probe set.
  // Needs >= 2 tasks.
  Status TrainSimilarityModel();
  bool similarity_trained() const { return similarity_.trained(); }

  // Distances from `meta` to every record (via M_reg when trained,
  // z-scored-Euclidean fallback otherwise), aligned with records().
  std::vector<double> DistancesTo(const std::vector<double>& meta) const;

  // Indices of the most similar records, closest first.
  std::vector<int> MostSimilar(const std::vector<double>& meta, int k) const;

  // Warm-start configurations: best config of each of the top-k most
  // similar tasks (paper §5.2 "initial design with warm-starting").
  std::vector<Configuration> WarmStartConfigs(
      const std::vector<double>& meta) const;

  // Factory producing MetaEnsembleSurrogate instances wired with the most
  // similar base surrogates (weights 1 - dist). Pass to
  // Advisor::SetObjectiveSurrogateFactory.
  SurrogateFactory MakeMetaSurrogateFactory(
      const std::vector<double>& meta) const;

  // Similarity-weighted average of stored importance scores; empty when no
  // record carries importance.
  std::vector<double> SuggestImportance(const std::vector<double>& meta) const;

 private:
  const ConfigSpace* space_;
  KnowledgeBaseOptions options_;
  std::vector<TaskRecord> records_;
  SimilarityModel similarity_;
  std::vector<std::vector<double>> probes_;  // shared probe configs (unit)
};

}  // namespace sparktune

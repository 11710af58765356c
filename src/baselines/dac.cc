#include "baselines/dac.h"

#include <algorithm>
#include <cmath>

namespace sparktune {

namespace {

// Data-size buckets (quantile edges over the history), and the samples a
// bucket forest needs before it overrides the global model.
constexpr int kDataSizeBuckets = 3;
constexpr int kMinBucketSamples = 6;

}  // namespace

RunHistory Dac::Tune(const ConfigSpace& space, JobEvaluator* evaluator,
                     const TuningObjective& objective, int budget,
                     uint64_t seed) {
  Rng rng(seed);
  RunHistory history;
  int init = std::clamp(static_cast<int>(options_.init_fraction * budget), 1,
                        budget);
  for (int i = 0; i < init; ++i) {
    Configuration c = space.Sample(&rng);
    history.Add(EvaluateConfig(space, evaluator, objective, c, i));
  }

  GeneticAlgorithm ga(options_.ga);
  for (int i = init; i < budget; ++i) {
    // Partition history into datasize buckets (quantile edges).
    std::vector<double> sizes;
    for (const auto& o : history.observations()) {
      sizes.push_back(std::max(0.0, o.data_size_gb));
    }
    std::vector<double> sorted = sizes;
    std::sort(sorted.begin(), sorted.end());
    auto bucket_of = [&](double ds) {
      int b = 0;
      for (int k = 1; k < kDataSizeBuckets; ++k) {
        double edge = sorted[sorted.size() * static_cast<size_t>(k) /
                             static_cast<size_t>(kDataSizeBuckets)];
        if (ds > edge) b = k;
      }
      return b;
    };

    double next_ds = std::max(0.0, evaluator->NextDataSizeHintGb());
    int target_bucket = bucket_of(next_ds);

    // Train global + target-bucket forests (features include datasize).
    std::vector<std::vector<double>> gx, bx;
    std::vector<double> gy, by;
    for (size_t k = 0; k < history.size(); ++k) {
      const Observation& o = history.at(k);
      std::vector<double> f = space.ToUnit(o.config);
      f.push_back(std::log1p(std::max(0.0, o.data_size_gb)) / 10.0);
      gx.push_back(f);
      gy.push_back(o.objective);
      if (bucket_of(std::max(0.0, o.data_size_gb)) == target_bucket) {
        bx.push_back(std::move(f));
        by.push_back(o.objective);
      }
    }
    ForestOptions fopts = options_.forest;
    fopts.seed = seed + static_cast<uint64_t>(i) * 2 + 1;
    RandomForest global(fopts);
    bool global_ok = global.Fit(gx, gy).ok();
    RandomForest bucket(fopts);
    bool bucket_ok =
        static_cast<int>(bx.size()) >= kMinBucketSamples &&
        bucket.Fit(bx, by).ok();

    Configuration next;
    if (global_ok || bucket_ok) {
      const RandomForest& model = bucket_ok ? bucket : global;
      double ds_feature = std::log1p(next_ds) / 10.0;
      auto fitness = [&](const Configuration& c) {
        std::vector<double> f = space.ToUnit(c);
        f.push_back(ds_feature);
        return model.Predict(f).mean;
      };
      std::vector<Configuration> seeds;
      if (int best = history.BestFeasibleIndex(); best >= 0) {
        seeds.push_back(history.config(static_cast<size_t>(best)));
      }
      next = ga.Minimize(space, fitness, &rng, seeds);
      if (history.Contains(next)) next = space.Sample(&rng);
    } else {
      next = space.Sample(&rng);
    }
    history.Add(EvaluateConfig(space, evaluator, objective, next, i));
  }
  return history;
}

}  // namespace sparktune

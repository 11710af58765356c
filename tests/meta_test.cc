// Tests for the meta-learning stack: meta-features, similarity learning,
// the ensemble surrogate and the knowledge base.
#include <gtest/gtest.h>

#include <cmath>

#include "meta/knowledge_base.h"
#include "meta/meta_features.h"
#include "meta/meta_surrogate.h"
#include "meta/similarity.h"
#include "sparksim/hibench.h"
#include "sparksim/runtime_model.h"

namespace sparktune {
namespace {

EventLog LogFor(const std::string& task) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  SimOptions opts;
  opts.noise_sigma = 0.0;
  SparkSimulator sim(cluster, opts);
  auto w = HiBenchTask(task);
  EXPECT_TRUE(w.ok());
  SparkConf conf = DecodeSparkConf(space, space.Default());
  return sim.Execute(*w, conf, w->input_gb, 3).event_log;
}

TEST(MetaFeaturesTest, Produces75Dimensions) {
  EventLog log = LogFor("WordCount");
  auto f = ExtractMetaFeatures(log);
  EXPECT_EQ(static_cast<int>(f.size()), kNumMetaFeatures);
  EXPECT_EQ(MetaFeatureNames().size(), f.size());
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(MetaFeaturesTest, SqlFlagAndIterationSignals) {
  auto wc = ExtractMetaFeatures(LogFor("WordCount"));
  auto join = ExtractMetaFeatures(LogFor("Join"));
  auto kmeans = ExtractMetaFeatures(LogFor("KMeans"));
  // Feature 9 = SQL flag.
  EXPECT_EQ(wc[9], 0.0);
  EXPECT_EQ(join[9], 1.0);
  // Feature 5 = iterative fraction: KMeans iterates, WordCount does not.
  EXPECT_GT(kmeans[5], wc[5]);
}

TEST(MetaFeaturesTest, DistinguishesWorkloadFamilies) {
  auto wc = ExtractMetaFeatures(LogFor("WordCount"));
  auto km = ExtractMetaFeatures(LogFor("KMeans"));
  double dist = 0.0;
  for (size_t i = 0; i < wc.size(); ++i) dist += std::fabs(wc[i] - km[i]);
  EXPECT_GT(dist, 1.0);
}

TEST(MetaFeaturesTest, AverageMetaFeatures) {
  std::vector<std::vector<double>> fs = {{1.0, 2.0}, {3.0, 4.0}};
  auto avg = AverageMetaFeatures(fs);
  EXPECT_DOUBLE_EQ(avg[0], 2.0);
  EXPECT_DOUBLE_EQ(avg[1], 3.0);
}

class FnSurrogate final : public Surrogate {
 public:
  explicit FnSurrogate(std::function<double(const std::vector<double>&)> fn,
                       double var = 1.0)
      : fn_(std::move(fn)), var_(var) {}
  Status Fit(const std::vector<std::vector<double>>&,
             const std::vector<double>&) override {
    return Status::OK();
  }
  Prediction Predict(const std::vector<double>& x) const override {
    return {fn_(x), var_};
  }
  size_t num_observations() const override { return 10; }

 private:
  std::function<double(const std::vector<double>&)> fn_;
  double var_;
};

std::vector<std::vector<double>> Probes1D(int n) {
  std::vector<std::vector<double>> p;
  for (int i = 0; i < n; ++i) {
    p.push_back({static_cast<double>(i) / n});
  }
  return p;
}

TEST(SimilarityTest, IdenticalRankingGivesZeroDistance) {
  FnSurrogate a([](const std::vector<double>& x) { return x[0]; });
  FnSurrogate b([](const std::vector<double>& x) { return 100.0 * x[0]; });
  EXPECT_NEAR(SurrogateDistance(a, b, Probes1D(50)), 0.0, 1e-9);
}

TEST(SimilarityTest, InvertedRankingGivesMaxDistance) {
  FnSurrogate a([](const std::vector<double>& x) { return x[0]; });
  FnSurrogate b([](const std::vector<double>& x) { return -x[0]; });
  EXPECT_NEAR(SurrogateDistance(a, b, Probes1D(50)), 1.0, 1e-9);
}

TEST(SimilarityModelTest, LearnsMetaFeatureDistance) {
  // Tasks characterized by one meta-feature; distance = |a - b| clipped.
  Rng rng(3);
  std::vector<SimilarityModel::LabelledPair> pairs;
  for (int i = 0; i < 120; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    pairs.push_back({{a, 0.5}, {b, 0.5}, std::min(1.0, std::fabs(a - b))});
  }
  SimilarityModel model;
  ASSERT_TRUE(model.Train(pairs).ok());
  EXPECT_LT(model.PredictDistance({0.5, 0.5}, {0.52, 0.5}), 0.25);
  EXPECT_GT(model.PredictDistance({0.05, 0.5}, {0.95, 0.5}), 0.5);
  // Symmetry by construction.
  EXPECT_DOUBLE_EQ(model.PredictDistance({0.1, 0.5}, {0.9, 0.5}),
                   model.PredictDistance({0.9, 0.5}, {0.1, 0.5}));
}

TEST(SimilarityModelTest, RejectsEmptyTraining) {
  SimilarityModel model;
  EXPECT_FALSE(model.Train({}).ok());
}

TEST(MetaSurrogateTest, WeightsNormalizeToOne) {
  std::vector<FeatureKind> schema = {FeatureKind::kNumeric};
  auto base = std::make_shared<FnSurrogate>(
      [](const std::vector<double>& x) { return x[0]; }, 0.1);
  BaseSurrogate b;
  b.model = base;
  b.similarity = 0.8;
  b.input_dims = 1;
  b.y_scale = 1.0;
  MetaEnsembleSurrogate ens(schema, {b});
  std::vector<std::vector<double>> x = {{0.1}, {0.4}, {0.5}, {0.7},
                                        {0.8}, {0.9}, {0.2}, {0.3}};
  std::vector<double> y = {1.0, 4.0, 5.0, 7.0, 8.0, 9.0, 2.0, 3.0};
  ASSERT_TRUE(ens.Fit(x, y).ok());
  double total = ens.self_weight();
  for (double w : ens.base_weights()) total += w;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(ens.self_weight(), 0.0);
}

TEST(MetaSurrogateTest, AccurateSelfModelEarnsHighWeight) {
  std::vector<FeatureKind> schema = {FeatureKind::kNumeric};
  // Base surrogate is anti-correlated with the target.
  auto bad_base = std::make_shared<FnSurrogate>(
      [](const std::vector<double>& x) { return -x[0]; }, 0.1);
  BaseSurrogate b;
  b.model = bad_base;
  b.similarity = 0.3;
  b.input_dims = 1;
  MetaEnsembleSurrogate ens(schema, {b});
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 18; ++i) {
    double t = i / 18.0;
    x.push_back({t});
    y.push_back(10.0 * t);
  }
  ASSERT_TRUE(ens.Fit(x, y).ok());
  // GP fits the smooth trend well: CV Kendall near 1 -> self weight beats
  // the base's 0.3 similarity.
  EXPECT_GT(ens.self_weight(), ens.base_weights()[0]);
}

TEST(MetaSurrogateTest, BaseKnowledgeHelpsWithFewObservations) {
  std::vector<FeatureKind> schema = {FeatureKind::kNumeric};
  // Base knows the true function shape.
  auto oracle = std::make_shared<FnSurrogate>(
      [](const std::vector<double>& x) {
        return std::pow(x[0] - 0.3, 2);
      },
      0.01);
  BaseSurrogate b;
  b.model = oracle;
  b.similarity = 0.95;
  b.input_dims = 1;
  b.y_mean = 0.1;  // oracle's own scale stats
  b.y_scale = 0.1;
  MetaEnsembleSurrogate ens(schema, {b});
  // Only three observations of the true function (scaled by 100).
  std::vector<std::vector<double>> x = {{0.0}, {0.5}, {1.0}};
  std::vector<double> y = {9.0, 4.0, 49.0};
  ASSERT_TRUE(ens.Fit(x, y).ok());
  // The ensemble should rank unseen points like the oracle: 0.3 best.
  double at_opt = ens.Predict({0.3}).mean;
  double at_far = ens.Predict({0.9}).mean;
  EXPECT_LT(at_opt, at_far);
}

TEST(KnowledgeBaseTest, WarmStartFromMostSimilarTask) {
  ConfigSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0, 0.5)).ok());
  KnowledgeBaseOptions opts;
  opts.warm_start_tasks = 1;
  KnowledgeBase kb(&space, opts);

  auto add_task = [&](const std::string& id, double meta, double best_x) {
    RunHistory h;
    Rng rng(static_cast<uint64_t>(meta * 1000) + 17);
    for (int i = 0; i < 12; ++i) {
      Observation o;
      double x = rng.Uniform();
      o.config = Configuration({x});
      o.objective = std::pow(x - best_x, 2);
      o.feasible = true;
      h.Add(o);
    }
    // Make sure the exact best config is present.
    Observation best;
    best.config = Configuration({best_x});
    best.objective = 0.0;
    best.feasible = true;
    h.Add(best);
    ASSERT_TRUE(kb.AddTask(id, {meta}, h).ok());
  };
  add_task("low", 0.1, 0.2);
  add_task("high", 0.9, 0.8);
  ASSERT_EQ(kb.size(), 2u);
  ASSERT_TRUE(kb.TrainSimilarityModel().ok());
  EXPECT_TRUE(kb.similarity_trained());

  // A new task whose meta-features resemble "high".
  auto warm = kb.WarmStartConfigs({0.85});
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_NEAR(warm[0][0], 0.8, 1e-9);
  auto warm_low = kb.WarmStartConfigs({0.12});
  ASSERT_EQ(warm_low.size(), 1u);
  EXPECT_NEAR(warm_low[0][0], 0.2, 1e-9);
}

TEST(KnowledgeBaseTest, FallbackDistanceWithoutModel) {
  ConfigSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0, 0.5)).ok());
  KnowledgeBase kb(&space);
  RunHistory h;
  for (int i = 0; i < 5; ++i) {
    Observation o;
    o.config = Configuration({i / 5.0});
    o.objective = i;
    o.feasible = true;
    h.Add(o);
  }
  ASSERT_TRUE(kb.AddTask("a", {0.0, 1.0}, h).ok());
  ASSERT_TRUE(kb.AddTask("b", {1.0, 0.0}, h).ok());
  auto d = kb.DistancesTo({0.05, 0.95});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_LT(d[0], d[1]);  // closer to task a
}

TEST(KnowledgeBaseTest, RejectsTinyHistories) {
  ConfigSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0, 0.5)).ok());
  KnowledgeBase kb(&space);
  RunHistory h;
  Observation o;
  o.config = Configuration({0.5});
  o.feasible = true;
  h.Add(o);
  EXPECT_FALSE(kb.AddTask("tiny", {0.5}, h).ok());
  EXPECT_FALSE(kb.AddTask("empty", {0.5}, RunHistory{}).ok());
}

TEST(KnowledgeBaseTest, SimilarityPairsStayBoundedAtFleetScale) {
  // Up to 63 tasks: every self-pair and every cross pair, in loop order.
  const SimilarityPairPlan small = PlanSimilarityPairs(63, 5);
  EXPECT_EQ(small.self.size(), 63u);
  ASSERT_EQ(small.cross.size(), 63u * 62u / 2);
  EXPECT_EQ(small.cross.front(), (std::pair<size_t, size_t>{0, 1}));
  EXPECT_EQ(small.cross[62], (std::pair<size_t, size_t>{1, 2}));
  EXPECT_EQ(small.cross.back(), (std::pair<size_t, size_t>{61, 62}));
  // 200 tasks: both caps hold, the pairs are distinct and ordered, and the
  // draw is a function of the seed.
  const SimilarityPairPlan big = PlanSimilarityPairs(200, 5);
  ASSERT_EQ(big.self.size(), kMaxSelfPairs);
  EXPECT_EQ(big.self.front(), 0u);
  EXPECT_LT(big.self.back(), 200u);
  ASSERT_EQ(big.cross.size(), kMaxCrossPairs);
  for (size_t c = 0; c < big.cross.size(); ++c) {
    EXPECT_LT(big.cross[c].first, big.cross[c].second);
    EXPECT_LT(big.cross[c].second, 200u);
    if (c > 0) {
      EXPECT_LT(big.cross[c - 1], big.cross[c]);
    }
  }
  EXPECT_EQ(PlanSimilarityPairs(200, 5).cross, big.cross);
  EXPECT_NE(PlanSimilarityPairs(200, 6).cross, big.cross);
}

TEST(KnowledgeBaseTest, TrainsOnTwoHundredRecordsDeterministically) {
  ConfigSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0, 0.5)).ok());
  auto fill = [&](KnowledgeBase* kb) {
    Rng rng(41);
    for (int t = 0; t < 200; ++t) {
      const double meta = rng.Uniform();
      RunHistory h;
      for (int i = 0; i < 4; ++i) {
        Observation o;
        o.config = Configuration({rng.Uniform()});
        o.objective = 1.0 + std::pow(o.config[0] - meta, 2);
        o.feasible = true;
        h.Add(o);
      }
      ASSERT_TRUE(kb->AddTask("t" + std::to_string(t), {meta, 1.0 - meta}, h)
                      .ok());
    }
    ASSERT_TRUE(kb->TrainSimilarityModel().ok());
  };
  KnowledgeBase a(&space), b(&space);
  fill(&a);
  fill(&b);
  const std::vector<double> da = a.DistancesTo({0.3, 0.7});
  const std::vector<double> db = b.DistancesTo({0.3, 0.7});
  ASSERT_EQ(da.size(), 200u);
  for (size_t i = 0; i < da.size(); ++i) EXPECT_EQ(da[i], db[i]) << i;
}

TEST(KnowledgeBaseTest, ImportanceTransferWeightsBySimilarity) {
  ConfigSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0, 0.5)).ok());
  ASSERT_TRUE(space.Add(Parameter::Float("y", 0.0, 1.0, 0.5)).ok());
  KnowledgeBase kb(&space);
  RunHistory h;
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    Observation o;
    o.config = Configuration({rng.Uniform(), rng.Uniform()});
    o.objective = i;
    o.feasible = true;
    h.Add(o);
  }
  ASSERT_TRUE(kb.AddTask("a", {0.0}, h, {0.9, 0.1}).ok());
  ASSERT_TRUE(kb.AddTask("b", {1.0}, h, {0.1, 0.9}).ok());
  auto imp = kb.SuggestImportance({0.02});
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], imp[1]);  // dominated by task "a"
}

}  // namespace
}  // namespace sparktune

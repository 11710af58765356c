// Equivalence suite for the fast paths of the knowledge-base harvest.
// Every fit of the presorted tree core (forest/tree.h) must reproduce the
// per-node-sort reference of tests/tree_reference.h node for node:
// feature, threshold, children, value, sample count and impurity decrease,
// compared as bits. Covers ragged shapes, heavy ties, bootstrap repeats,
// feature bagging, GBDT row subsampling, the depth and leaf-size edges, and
// forest and GBDT fits at 1, 2 and 4 threads. The similarity labels the
// knowledge base computes from cached probe means must equal
// SurrogateDistance bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "bo/history.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "forest/gbdt.h"
#include "forest/random_forest.h"
#include "forest/tree.h"
#include "meta/knowledge_base.h"
#include "meta/similarity.h"
#include "space/config_space.h"
#include "tree_reference.h"

namespace sparktune {
namespace {

using Nodes = std::vector<RegressionTree::Node>;

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Success when `got` equals `want` bit for bit; else names the first
// differing node and field.
::testing::AssertionResult SameNodes(const Nodes& want, const Nodes& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "node count " << got.size() << ", reference " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const RegressionTree::Node& a = want[i];
    const RegressionTree::Node& b = got[i];
    const char* field = nullptr;
    if (a.is_leaf != b.is_leaf) field = "is_leaf";
    if (a.feature != b.feature) field = "feature";
    if (Bits(a.threshold) != Bits(b.threshold)) field = "threshold";
    if (a.left != b.left || a.right != b.right) field = "children";
    if (Bits(a.value) != Bits(b.value)) field = "value";
    if (a.num_samples != b.num_samples) field = "num_samples";
    if (Bits(a.impurity_decrease) != Bits(b.impurity_decrease)) {
      field = "impurity_decrease";
    }
    if (field != nullptr) {
      return ::testing::AssertionFailure() << "node " << i << ": " << field;
    }
  }
  return ::testing::AssertionSuccess();
}

struct Data {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

// n rows of nf features in [0, 1). `levels` > 0 rounds every feature to
// that many distinct values, so the columns are heavy with ties; 0 keeps
// them continuous. `coarse_y` rounds the target to quarters, so split
// scores tie exactly across features (and sums no longer depend on order).
Data MakeData(size_t n, size_t nf, int levels, uint64_t seed,
              bool coarse_y = false) {
  Rng rng(seed);
  auto quantize = [&](double u) {
    return levels > 0 ? std::floor(u * levels) / levels : u;
  };
  Data d;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(nf);
    for (double& v : row) v = quantize(rng.Uniform());
    const double signal = std::sin(3.0 * row[0]) +
                          (nf > 1 ? row[1] * row[1] : 0.0) +
                          0.1 * rng.Normal();
    d.x.push_back(std::move(row));
    d.y.push_back(coarse_y ? std::round(4.0 * signal) / 4.0 : signal);
  }
  return d;
}

std::vector<int> Bootstrap(size_t n, size_t draws, Rng* rng) {
  std::vector<int> sample(draws);
  for (int& s : sample) {
    s = static_cast<int>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  }
  return sample;
}

// One presorted fit and one reference fit of the same tree, each with its
// own copy of the feature-bagging stream.
::testing::AssertionResult TreeMatches(const TreeOptions& opts, const Data& d,
                                       const std::vector<int>& sample,
                                       uint64_t rng_seed) {
  Rng ref_rng(rng_seed), rng(rng_seed);
  const Nodes want =
      reference::NaiveTree(opts, d.x, d.y, &ref_rng).Fit(sample);
  RegressionTree tree(opts);
  Status st = tree.Fit(d.x, d.y, sample, &rng);
  if (!st.ok()) return ::testing::AssertionFailure() << st.ToString();
  return SameNodes(want, tree.nodes());
}

TEST(TreeEquivalenceTest, RaggedShapesAndHeavyTies) {
  Rng pick(2024);
  for (int c = 0; c < 40; ++c) {
    const size_t n = static_cast<size_t>(pick.UniformInt(3, 300));
    const size_t nf = static_cast<size_t>(pick.UniformInt(1, 40));
    // Every other case draws each feature from only 2-7 levels; every
    // fourth has a coarse target.
    const int levels = c % 2 == 0 ? 0 : static_cast<int>(pick.UniformInt(2, 7));
    const bool coarse_y = c % 4 == 3;
    const Data d =
        MakeData(n, nf, levels, 100 + static_cast<uint64_t>(c), coarse_y);
    SCOPED_TRACE("n=" + std::to_string(n) + " nf=" + std::to_string(nf) +
                 " levels=" + std::to_string(levels) +
                 " coarse_y=" + std::to_string(coarse_y));
    EXPECT_TRUE(TreeMatches(TreeOptions{}, d, {}, 1));
    TreeOptions shallow = {.max_depth = 4, .min_samples_leaf = 1,
                           .min_samples_split = 2, .max_features = -1};
    EXPECT_TRUE(TreeMatches(shallow, d, {}, 1));
  }
}

TEST(TreeEquivalenceTest, BootstrapRepeatsAndFeatureBagging) {
  Rng pick(77);
  for (int c = 0; c < 24; ++c) {
    const size_t n = static_cast<size_t>(pick.UniformInt(3, 300));
    const size_t nf = static_cast<size_t>(pick.UniformInt(1, 40));
    const int levels = static_cast<int>(pick.UniformInt(0, 7));
    const Data d = MakeData(n, nf, levels == 1 ? 0 : levels,
                            500 + static_cast<uint64_t>(c));
    SCOPED_TRACE("n=" + std::to_string(n) + " nf=" + std::to_string(nf) +
                 " levels=" + std::to_string(levels));
    Rng draw(900 + static_cast<uint64_t>(c));
    // Bootstrap of n draws (repeats and gaps), and a short subsample.
    const std::vector<int> boot = Bootstrap(n, n, &draw);
    const std::vector<int> part = Bootstrap(n, n / 3 + 1, &draw);
    TreeOptions bagged;
    bagged.max_features =
        std::max(1, static_cast<int>(std::sqrt(static_cast<double>(nf))));
    EXPECT_TRUE(TreeMatches(TreeOptions{}, d, boot, 3));
    EXPECT_TRUE(TreeMatches(bagged, d, boot, 3));
    EXPECT_TRUE(TreeMatches(bagged, d, part, 4));
    // A permuted subsample without repeats, as GBDT draws per round.
    const std::vector<int> perm = draw.SampleWithoutReplacement(
        static_cast<int>(n), std::max(2, static_cast<int>(0.8 * n)));
    EXPECT_TRUE(TreeMatches(TreeOptions{}, d, perm, 5));
  }
}

TEST(TreeEquivalenceTest, DepthAndLeafSizeEdges) {
  const Data cont = MakeData(57, 6, 0, 11);
  const Data tied = MakeData(57, 6, 3, 12);
  const Data coarse = MakeData(57, 6, 3, 13, /*coarse_y=*/true);
  for (const Data* d : {&cont, &tied, &coarse}) {
    for (int depth : {0, 1, 2, 14}) {
      for (int min_leaf : {0, 1, 2, 9, 28, 29}) {
        for (int min_split : {0, 1, 2, 5, 57, 58}) {
          TreeOptions opts = {.max_depth = depth,
                              .min_samples_leaf = min_leaf,
                              .min_samples_split = min_split,
                              .max_features = -1};
          SCOPED_TRACE("depth=" + std::to_string(depth) +
                       " min_leaf=" + std::to_string(min_leaf) +
                       " min_split=" + std::to_string(min_split));
          EXPECT_TRUE(TreeMatches(opts, *d, {}, 1));
        }
      }
    }
  }
  // Adjacent doubles: the midpoint rounds onto the upper value, so the
  // threshold test routes every row left and the node stays a leaf.
  const double lo = 1.0, hi = std::nextafter(1.0, 2.0);
  const Data adjacent = {{{lo}, {lo}, {hi}, {hi}}, {0.0, 0.0, 1.0, 1.0}};
  TreeOptions tiny = {.max_depth = 3, .min_samples_leaf = 1,
                      .min_samples_split = 2, .max_features = -1};
  EXPECT_TRUE(TreeMatches(tiny, adjacent, {}, 1));
  // A single row and a single feature-less row set.
  EXPECT_TRUE(TreeMatches(tiny, Data{{{0.5}}, {2.0}}, {}, 1));
  EXPECT_TRUE(TreeMatches(tiny, Data{{{}, {}, {}}, {1.0, 2.0, 3.0}}, {}, 1));
}

// RandomForest::Fit with reference trees: the same master stream, forks,
// bootstrap draws and bagging width.
std::vector<Nodes> ReferenceForest(const ForestOptions& o, const Data& d) {
  const int nf = static_cast<int>(d.x[0].size());
  const int max_features =
      o.feature_fraction > 0.0
          ? std::max(1, static_cast<int>(o.feature_fraction * nf))
          : std::max(1, static_cast<int>(std::sqrt(nf)));
  const size_t n = d.x.size();
  const size_t boot_n = static_cast<size_t>(std::max(
      1, static_cast<int>(o.bootstrap_fraction * static_cast<double>(n))));
  TreeOptions topts = o.tree;
  topts.max_features = max_features < nf ? max_features : -1;
  Rng rng(o.seed);
  std::vector<Rng> tree_rngs =
      ForkRngs(&rng, static_cast<size_t>(o.num_trees));
  std::vector<Nodes> trees;
  for (Rng& tree_rng : tree_rngs) {
    const std::vector<int> sample = Bootstrap(n, boot_n, &tree_rng);
    trees.push_back(
        reference::NaiveTree(topts, d.x, d.y, &tree_rng).Fit(sample));
  }
  return trees;
}

TEST(TreeEquivalenceTest, ForestMatchesReferenceAtAnyThreadCount) {
  const Data tied = MakeData(120, 9, 4, 31);
  const Data cont = MakeData(45, 30, 0, 32);
  for (const Data* d : {&tied, &cont}) {
    ForestOptions opts;
    opts.num_trees = 12;
    opts.seed = 5;
    const std::vector<Nodes> want = ReferenceForest(opts, *d);
    for (int threads : {1, 2, 4}) {
      opts.num_threads = threads;
      RandomForest forest(opts);
      ASSERT_TRUE(forest.Fit(d->x, d->y).ok());
      ASSERT_EQ(forest.trees().size(), want.size());
      for (size_t t = 0; t < want.size(); ++t) {
        EXPECT_TRUE(SameNodes(want[t], forest.trees()[t].nodes()))
            << "threads=" << threads << " tree " << t;
      }
    }
  }
}

// GbdtRegressor::Fit with reference trees (no early stopping).
std::vector<Nodes> ReferenceGbdt(const GbdtOptions& o, const Data& d) {
  const size_t n = d.x.size();
  std::vector<double> pred(n, Mean(d.y));
  std::vector<double> residual(n);
  const int sub_n =
      std::max(2, static_cast<int>(o.subsample * static_cast<double>(n)));
  Rng rng(o.seed);
  std::vector<Nodes> trees;
  for (int round = 0; round < o.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) residual[i] = d.y[i] - pred[i];
    Rng round_rng = rng.Fork();
    std::vector<int> sample;
    if (sub_n < static_cast<int>(n)) {
      sample = round_rng.SampleWithoutReplacement(static_cast<int>(n), sub_n);
    }
    trees.push_back(
        reference::NaiveTree(o.tree, d.x, residual, &round_rng).Fit(sample));
    for (size_t i = 0; i < n; ++i) {
      pred[i] += o.learning_rate * reference::PredictNodes(trees.back(), d.x[i]);
    }
  }
  return trees;
}

TEST(TreeEquivalenceTest, GbdtMatchesReferenceAtAnyThreadCount) {
  const Data tied = MakeData(96, 12, 5, 41);
  const Data cont = MakeData(150, 7, 0, 42);
  for (const Data* d : {&tied, &cont}) {
    for (double subsample : {0.8, 1.0}) {
      GbdtOptions opts;
      opts.num_rounds = 25;
      opts.subsample = subsample;
      const std::vector<Nodes> want = ReferenceGbdt(opts, *d);
      for (int threads : {1, 2, 4}) {
        opts.num_threads = threads;
        GbdtRegressor gbdt(opts);
        ASSERT_TRUE(gbdt.Fit(d->x, d->y).ok());
        ASSERT_EQ(gbdt.trees().size(), want.size());
        for (size_t t = 0; t < want.size(); ++t) {
          EXPECT_TRUE(SameNodes(want[t], gbdt.trees()[t].nodes()))
              << "subsample=" << subsample << " threads=" << threads
              << " round " << t;
        }
      }
    }
  }
}

TEST(LabelCacheEquivalenceTest, CachedProbeMeansGiveSurrogateDistance) {
  ConfigSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("a", 0.0, 1.0, 0.5)).ok());
  ASSERT_TRUE(space.Add(Parameter::Float("b", 0.0, 1.0, 0.5)).ok());
  ASSERT_TRUE(space.Add(Parameter::Int("c", 1, 8, 4)).ok());
  KnowledgeBase kb(&space);
  Rng rng(61);
  for (int t = 0; t < 6; ++t) {
    const double shift = 0.15 * t;
    RunHistory history;
    for (int i = 0; i < 10; ++i) {
      Observation o;
      o.config = space.Sample(&rng);
      const std::vector<double> u = space.ToUnit(o.config);
      o.objective = 2.0 + std::pow(u[0] - shift, 2) +
                    (t % 2 == 0 ? u[1] : -u[1]) + 0.1 * u[2];
      o.feasible = true;
      history.Add(o);
    }
    ASSERT_TRUE(kb.AddTask("task" + std::to_string(t), {shift, 1.0 - shift},
                           history)
                    .ok());
  }
  const std::vector<TaskRecord>& records = kb.records();
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].probe_means.size(), kb.probes().size());
    for (size_t j = i + 1; j < records.size(); ++j) {
      EXPECT_EQ(Bits(RankingDistance(records[i].probe_means,
                                     records[j].probe_means)),
                Bits(SurrogateDistance(*records[i].surrogate,
                                       *records[j].surrogate, kb.probes())))
          << "pair " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace sparktune

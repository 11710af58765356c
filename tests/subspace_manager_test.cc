// Tests for adaptive sub-space generation: expert seeding, TuRBO-style K
// adaptation, fANOVA-driven re-ranking.
#include <gtest/gtest.h>

#include "bo/subspace_manager.h"
#include "common/rng.h"

namespace sparktune {
namespace {

ConfigSpace MakeSpace(int n) {
  ConfigSpace s;
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        s.Add(Parameter::Float("p" + std::to_string(i), 0.0, 1.0, 0.5)).ok());
  }
  return s;
}

TEST(SubspaceManagerTest, StartsAtKInitWithExpertRanking) {
  ConfigSpace space = MakeSpace(20);
  SubspaceOptions opts;  // k_init 10
  SubspaceManager mgr(&space, opts, {"p7", "p3", "p11"});
  EXPECT_EQ(mgr.K(), 10);
  auto ranking = mgr.Ranking();
  EXPECT_EQ(ranking[0], 7);
  EXPECT_EQ(ranking[1], 3);
  EXPECT_EQ(ranking[2], 11);
  Subspace sub = mgr.Current(space.Default());
  EXPECT_EQ(sub.num_free(), 10u);
  EXPECT_TRUE(sub.IsFree(7));
}

TEST(SubspaceManagerTest, GrowsAfterConsecutiveSuccesses) {
  ConfigSpace space = MakeSpace(20);
  SubspaceOptions opts;  // kTauSucc 3, step 2
  SubspaceManager mgr(&space, opts, {});
  mgr.ReportOutcome(true);
  mgr.ReportOutcome(true);
  EXPECT_EQ(mgr.K(), 10);  // not yet
  mgr.ReportOutcome(true);
  EXPECT_EQ(mgr.K(), 12);
}

TEST(SubspaceManagerTest, FailureResetsSuccessStreak) {
  ConfigSpace space = MakeSpace(20);
  SubspaceManager mgr(&space, SubspaceOptions{}, {});
  mgr.ReportOutcome(true);
  mgr.ReportOutcome(true);
  mgr.ReportOutcome(false);
  mgr.ReportOutcome(true);
  mgr.ReportOutcome(true);
  EXPECT_EQ(mgr.K(), 10);
  mgr.ReportOutcome(true);
  EXPECT_EQ(mgr.K(), 12);
}

TEST(SubspaceManagerTest, ShrinksAfterConsecutiveFailures) {
  ConfigSpace space = MakeSpace(20);
  SubspaceManager mgr(&space, SubspaceOptions{}, {});
  for (int i = 0; i < 5; ++i) mgr.ReportOutcome(false);
  EXPECT_EQ(mgr.K(), 8);
  for (int i = 0; i < 5; ++i) mgr.ReportOutcome(false);
  EXPECT_EQ(mgr.K(), 6);
}

TEST(SubspaceManagerTest, KStaysWithinBounds) {
  ConfigSpace space = MakeSpace(12);
  SubspaceOptions opts;
  opts.k_init = 10;
  opts.k_min = 4;
  SubspaceManager mgr(&space, opts, {});
  for (int i = 0; i < 100; ++i) mgr.ReportOutcome(false);
  EXPECT_EQ(mgr.K(), 4);
  for (int i = 0; i < 100; ++i) mgr.ReportOutcome(true);
  EXPECT_EQ(mgr.K(), 12);  // capped at space size
}

TEST(SubspaceManagerTest, FanovaUpdateRerank) {
  ConfigSpace space = MakeSpace(4);
  SubspaceOptions opts;
  opts.k_init = 2;
  opts.k_min = 2;
  opts.fanova_min_obs = 8;
  opts.fanova_period = 1;
  // Expert thinks p0 matters most.
  SubspaceManager mgr(&space, opts, {"p0", "p1", "p2", "p3"});
  EXPECT_EQ(mgr.Ranking()[0], 0);

  // Reality: only p2 matters. Feed strong evidence repeatedly so the
  // running average overturns the prior.
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    std::vector<double> row = {rng.Uniform(), rng.Uniform(), rng.Uniform(),
                               rng.Uniform()};
    y.push_back(100.0 * row[2]);
    x.push_back(std::move(row));
  }
  for (int rep = 0; rep < 6; ++rep) {
    mgr.MaybeUpdateImportance(x, y);
    // Trick the period gate by growing the dataset.
    x.push_back({0.5, 0.5, 0.5, 0.5});
    y.push_back(50.0);
  }
  EXPECT_GT(mgr.SaveState().last_fanova_size, 0u);
  EXPECT_EQ(mgr.Ranking()[0], 2);
  Subspace sub = mgr.Current(space.Default());
  EXPECT_TRUE(sub.IsFree(2));
}

TEST(SubspaceManagerTest, NoFanovaBeforeMinObservations) {
  ConfigSpace space = MakeSpace(3);
  SubspaceOptions opts;
  opts.fanova_min_obs = 10;
  SubspaceManager mgr(&space, opts, {});
  std::vector<std::vector<double>> x(5, {0.5, 0.5, 0.5});
  std::vector<double> y(5, 1.0);
  mgr.MaybeUpdateImportance(x, y);
  EXPECT_EQ(mgr.SaveState().last_fanova_size, 0u);
}

TEST(SubspaceManagerTest, SeedImportanceBlends) {
  ConfigSpace space = MakeSpace(3);
  SubspaceManager mgr(&space, SubspaceOptions{}, {});
  mgr.SeedImportance({0.0, 0.0, 1.0}, 10.0);  // heavy vote for p2
  EXPECT_EQ(mgr.Ranking()[0], 2);
}

}  // namespace
}  // namespace sparktune

// Tests for the Spark simulator substrate: cluster placement, the
// 30-parameter space, workload validity, drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sparksim/cluster.h"
#include "sparksim/drift.h"
#include "sparksim/event_log.h"
#include "sparksim/hibench.h"
#include "sparksim/spark_conf.h"
#include "sparksim/workload.h"

namespace sparktune {
namespace {

TEST(ClusterTest, PlacementPacksByCoresAndMemory) {
  ClusterSpec c;
  c.num_nodes = 2;
  c.cores_per_node = 16;
  c.mem_per_node_gb = 64.0;
  // 4-core, 8 GB executors: per node min(16/4, 64/8) = 4 -> capacity 8.
  Placement p = PlaceExecutors(c, 100, 4, 8.0);
  EXPECT_EQ(p.granted_executors, 8);
  EXPECT_FALSE(p.fully_granted);
  // Memory-bound: 1-core 32 GB executors -> min(16, 2) = 2/node -> 4.
  p = PlaceExecutors(c, 100, 1, 32.0);
  EXPECT_EQ(p.granted_executors, 4);
}

TEST(ClusterTest, FullyGrantedWhenFits) {
  ClusterSpec c = ClusterSpec::HiBenchCluster();
  Placement p = PlaceExecutors(c, 10, 2, 4.0);
  EXPECT_EQ(p.granted_executors, 10);
  EXPECT_TRUE(p.fully_granted);
}

TEST(ClusterTest, OversizedExecutorGetsNothing) {
  ClusterSpec c;
  c.num_nodes = 2;
  c.cores_per_node = 8;
  c.mem_per_node_gb = 16.0;
  Placement p = PlaceExecutors(c, 4, 2, 32.0);  // memory larger than a node
  EXPECT_EQ(p.granted_executors, 0);
}

TEST(SparkConfTest, SpaceHasThirtyParameters) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::HiBenchCluster());
  EXPECT_EQ(static_cast<int>(space.size()), kNumSparkParams);
  // Table 5 head parameters exist.
  EXPECT_GE(space.IndexOf(spark_param::kExecutorInstances), 0);
  EXPECT_GE(space.IndexOf(spark_param::kMemoryStorageFraction), 0);
  EXPECT_GE(space.IndexOf(spark_param::kIoCompressionCodec), 0);
}

TEST(SparkConfTest, DecodeMatchesConfiguration) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  Configuration c = space.Default();
  space.Set(&c, spark_param::kExecutorInstances, 12);
  space.Set(&c, spark_param::kExecutorCores, 3);
  space.Set(&c, spark_param::kExecutorMemory, 6);
  space.Set(&c, spark_param::kSerializer, 1);
  space.Set(&c, spark_param::kShuffleCompress, 0);
  SparkConf conf = DecodeSparkConf(space, c);
  EXPECT_EQ(conf.executor_instances, 12);
  EXPECT_EQ(conf.executor_cores, 3);
  EXPECT_DOUBLE_EQ(conf.executor_memory_gb, 6.0);
  EXPECT_EQ(conf.serializer, Serializer::kKryo);
  EXPECT_FALSE(conf.shuffle_compress);
  EXPECT_NEAR(conf.container_mem_gb(), 6.0 + 384.0 / 1024.0, 1e-9);
}

TEST(SparkConfTest, ResourceFunctionIsWhiteBoxAndMonotone) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  Configuration c = space.Default();
  SparkConf base = DecodeSparkConf(space, c);
  double r0 = ResourceFunction(base);
  space.Set(&c, spark_param::kExecutorInstances,
            space.Get(c, spark_param::kExecutorInstances) * 2);
  double r1 = ResourceFunction(DecodeSparkConf(space, c));
  EXPECT_GT(r1, r0);
  space.Set(&c, spark_param::kExecutorMemory, 32);
  double r2 = ResourceFunction(DecodeSparkConf(space, c));
  EXPECT_GT(r2, r1);
}

TEST(SparkConfTest, ExpertRankingNamesResolve) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  auto ranking = ExpertParameterRanking();
  EXPECT_EQ(ranking.size(), space.size());
  for (const auto& name : ranking) {
    EXPECT_GE(space.IndexOf(name), 0) << name;
  }
  // Mirrors Table 5's top entries.
  EXPECT_EQ(ranking[0], spark_param::kExecutorInstances);
  EXPECT_EQ(ranking[1], spark_param::kExecutorMemory);
}

TEST(SparkConfTest, RangesScaleWithCluster) {
  ConfigSpace small = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  ConfigSpace big = BuildSparkSpace(ClusterSpec::ProductionGroup());
  int idx = small.IndexOf(spark_param::kExecutorInstances);
  EXPECT_LT(small.param(static_cast<size_t>(idx)).hi(),
            big.param(static_cast<size_t>(idx)).hi());
}

TEST(WorkloadTest, AllHiBenchTasksValid) {
  auto tasks = AllHiBenchTasks();
  EXPECT_EQ(tasks.size(), 16u);
  for (const auto& w : tasks) {
    EXPECT_TRUE(w.Valid()) << w.name;
    EXPECT_GE(w.DagDepth(), 2) << w.name;
    EXPECT_GT(w.input_gb, 0.0) << w.name;
  }
}

TEST(WorkloadTest, HeadlineTasksMatchPaper) {
  auto tasks = HeadlineHiBenchTasks();
  ASSERT_EQ(tasks.size(), 6u);
  std::vector<std::string> names;
  for (const auto& w : tasks) names.push_back(w.name);
  EXPECT_EQ(names, (std::vector<std::string>{"Bayes", "KMeans", "NWeight",
                                             "WordCount", "PageRank",
                                             "TeraSort"}));
}

TEST(WorkloadTest, LookupByName) {
  auto w = HiBenchTask("TeraSort");
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->name, "TeraSort");
  EXPECT_FALSE(HiBenchTask("NoSuchTask").ok());
}

TEST(WorkloadTest, ShuffleOpClassification) {
  EXPECT_TRUE(IsShuffleOp(StageOp::kReduceByKey));
  EXPECT_TRUE(IsShuffleOp(StageOp::kJoin));
  EXPECT_TRUE(IsShuffleOp(StageOp::kSortByKey));
  EXPECT_FALSE(IsShuffleOp(StageOp::kMap));
  EXPECT_FALSE(IsShuffleOp(StageOp::kSource));
  EXPECT_FALSE(IsShuffleOp(StageOp::kBroadcastJoin));
}

TEST(WorkloadTest, InvalidDagRejected) {
  WorkloadSpec w;
  w.name = "bad";
  StageSpec s;
  s.op = StageOp::kMap;
  s.deps = {0};  // self/forward reference
  w.stages.push_back(s);
  EXPECT_FALSE(w.Valid());
}

TEST(DriftTest, NoneIsIdentity) {
  DriftModel d = DriftModel::None();
  for (double h : {0.0, 5.0, 100.0}) {
    EXPECT_DOUBLE_EQ(d.Multiplier(h, 1, 0), 1.0);
  }
}

TEST(DriftTest, DiurnalOscillatesAroundBase) {
  DriftModel d = DriftModel::Diurnal(0.3, 0.0);
  double lo = 10.0, hi = 0.0;
  for (int h = 0; h < 24; ++h) {
    double m = d.Multiplier(h, 1, h);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_NEAR(lo, 0.7, 0.02);
  EXPECT_NEAR(hi, 1.3, 0.02);
  // Periodicity.
  EXPECT_NEAR(d.Multiplier(3.0, 1, 0), d.Multiplier(27.0, 1, 0), 1e-9);
}

TEST(DriftTest, NoiseIsDeterministicPerExecution) {
  DriftModel d = DriftModel::Diurnal(0.2, 0.1);
  EXPECT_DOUBLE_EQ(d.Multiplier(5.0, 42, 3), d.Multiplier(5.0, 42, 3));
  EXPECT_NE(d.Multiplier(5.0, 42, 3), d.Multiplier(5.0, 42, 4));
}

TEST(DriftTest, TrendGrows) {
  DriftModel d;
  d.trend_per_day = 0.01;
  EXPECT_GT(d.Multiplier(24.0 * 30, 1, 0), d.Multiplier(0.0, 1, 0));
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Summarize's quantile and skewness as it used to compute them: each
// quantile sorted its own copy, and the skewness took its own mean and
// standard deviation.
double QuantileOfCopy(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double SkewnessOf(const std::vector<double>& v) {
  if (v.size() < 3) return 0.0;
  double m = Mean(v);
  double s = Stddev(v);
  if (s <= 0.0) return 0.0;
  double acc = 0.0;
  for (double x : v) {
    double z = (x - m) / s;
    acc += z * z * z;
  }
  return acc / static_cast<double>(v.size());
}

TEST(EventLogTest, SummarizeMatchesItsOldCompositionBitForBit) {
  // Summarize sorts one copy for both quantiles and reuses one mean and
  // one standard deviation; every field keeps the bits of the old
  // composition. Samples hold ties (repeated values and zeros), at the
  // sizes where the helpers' small-sample cases switch.
  Rng rng(4096);
  for (size_t n : {1u, 2u, 3u, 96u}) {
    for (int trial = 0; trial < 25; ++trial) {
      SCOPED_TRACE("n " + std::to_string(n) + ", trial " +
                   std::to_string(trial));
      std::vector<double> v(n);
      for (double& x : v) {
        x = rng.Bernoulli(0.4)
                ? 0.5 * static_cast<double>(rng.UniformInt(0, 3))
                : rng.Uniform(0.0, 10.0);
      }
      const TaskMetricSummary s = Summarize(v);
      EXPECT_EQ(Bits(s.mean), Bits(Mean(v)));
      EXPECT_EQ(Bits(s.stddev), Bits(Stddev(v)));
      EXPECT_EQ(Bits(s.min), Bits(Min(v)));
      EXPECT_EQ(Bits(s.max), Bits(Max(v)));
      EXPECT_EQ(Bits(s.p50), Bits(QuantileOfCopy(v, 0.5)));
      EXPECT_EQ(Bits(s.p90), Bits(QuantileOfCopy(v, 0.9)));
      EXPECT_EQ(Bits(s.skewness), Bits(SkewnessOf(v)));
      EXPECT_EQ(Bits(s.total), Bits(Sum(v)));
    }
  }
}

}  // namespace
}  // namespace sparktune

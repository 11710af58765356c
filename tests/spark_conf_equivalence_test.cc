// Equivalence suite for the slot decode of Spark configurations.
// DecodeSparkConf reads each parameter at its spark_slot; it must match the
// name-based reference of tests/spark_conf_reference.h field for field, as
// bits, on the default and 1,000 sampled configurations of every cluster's
// space, and SimulatorEvaluator::ResourceRate (the advisor's R(x)) must
// keep its bits.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sparksim/hibench.h"
#include "sparksim/spark_conf.h"
#include "spark_conf_reference.h"
#include "tuner/evaluator.h"

namespace sparktune {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameConf(const SparkConf& got, const SparkConf& want,
                    const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.executor_instances, want.executor_instances);
  EXPECT_EQ(got.executor_cores, want.executor_cores);
  EXPECT_EQ(Bits(got.executor_memory_gb), Bits(want.executor_memory_gb));
  EXPECT_EQ(Bits(got.executor_memory_overhead_mb),
            Bits(want.executor_memory_overhead_mb));
  EXPECT_EQ(got.driver_cores, want.driver_cores);
  EXPECT_EQ(Bits(got.driver_memory_gb), Bits(want.driver_memory_gb));
  EXPECT_EQ(got.default_parallelism, want.default_parallelism);
  EXPECT_EQ(got.sql_shuffle_partitions, want.sql_shuffle_partitions);
  EXPECT_EQ(Bits(got.memory_fraction), Bits(want.memory_fraction));
  EXPECT_EQ(Bits(got.memory_storage_fraction),
            Bits(want.memory_storage_fraction));
  EXPECT_EQ(got.shuffle_compress, want.shuffle_compress);
  EXPECT_EQ(got.shuffle_spill_compress, want.shuffle_spill_compress);
  EXPECT_EQ(got.broadcast_compress, want.broadcast_compress);
  EXPECT_EQ(got.rdd_compress, want.rdd_compress);
  EXPECT_EQ(got.io_codec, want.io_codec);
  EXPECT_EQ(got.serializer, want.serializer);
  EXPECT_EQ(Bits(got.kryo_buffer_kb), Bits(want.kryo_buffer_kb));
  EXPECT_EQ(Bits(got.kryo_buffer_max_mb), Bits(want.kryo_buffer_max_mb));
  EXPECT_EQ(Bits(got.reducer_max_size_in_flight_mb),
            Bits(want.reducer_max_size_in_flight_mb));
  EXPECT_EQ(Bits(got.shuffle_file_buffer_kb),
            Bits(want.shuffle_file_buffer_kb));
  EXPECT_EQ(got.shuffle_sort_bypass_merge_threshold,
            want.shuffle_sort_bypass_merge_threshold);
  EXPECT_EQ(got.shuffle_io_num_connections_per_peer,
            want.shuffle_io_num_connections_per_peer);
  EXPECT_EQ(got.speculation, want.speculation);
  EXPECT_EQ(Bits(got.speculation_multiplier),
            Bits(want.speculation_multiplier));
  EXPECT_EQ(Bits(got.locality_wait_sec), Bits(want.locality_wait_sec));
  EXPECT_EQ(Bits(got.scheduler_revive_interval_ms),
            Bits(want.scheduler_revive_interval_ms));
  EXPECT_EQ(got.task_max_failures, want.task_max_failures);
  EXPECT_EQ(Bits(got.broadcast_block_size_mb),
            Bits(want.broadcast_block_size_mb));
  EXPECT_EQ(Bits(got.storage_memory_map_threshold_mb),
            Bits(want.storage_memory_map_threshold_mb));
  EXPECT_EQ(Bits(got.network_timeout_sec), Bits(want.network_timeout_sec));
}

std::vector<std::pair<std::string, ClusterSpec>> Clusters() {
  return {{"hibench", ClusterSpec::HiBenchCluster()},
          {"production", ClusterSpec::ProductionGroup()},
          {"small-sql", ClusterSpec::SmallSqlGroup()}};
}

TEST(SparkConfEquivalenceTest, EverySlotHoldsItsNamedParameter) {
  namespace sp = spark_param;
  namespace ss = spark_slot;
  const std::vector<std::pair<int, const char*>> slots = {
      {ss::kExecutorInstances, sp::kExecutorInstances},
      {ss::kExecutorCores, sp::kExecutorCores},
      {ss::kExecutorMemory, sp::kExecutorMemory},
      {ss::kExecutorMemoryOverhead, sp::kExecutorMemoryOverhead},
      {ss::kDriverCores, sp::kDriverCores},
      {ss::kDriverMemory, sp::kDriverMemory},
      {ss::kDefaultParallelism, sp::kDefaultParallelism},
      {ss::kSqlShufflePartitions, sp::kSqlShufflePartitions},
      {ss::kMemoryFraction, sp::kMemoryFraction},
      {ss::kMemoryStorageFraction, sp::kMemoryStorageFraction},
      {ss::kShuffleCompress, sp::kShuffleCompress},
      {ss::kShuffleSpillCompress, sp::kShuffleSpillCompress},
      {ss::kBroadcastCompress, sp::kBroadcastCompress},
      {ss::kRddCompress, sp::kRddCompress},
      {ss::kIoCompressionCodec, sp::kIoCompressionCodec},
      {ss::kSerializer, sp::kSerializer},
      {ss::kKryoBufferKb, sp::kKryoBufferKb},
      {ss::kKryoBufferMaxMb, sp::kKryoBufferMaxMb},
      {ss::kReducerMaxSizeInFlight, sp::kReducerMaxSizeInFlight},
      {ss::kShuffleFileBuffer, sp::kShuffleFileBuffer},
      {ss::kShuffleSortBypassMergeThreshold,
       sp::kShuffleSortBypassMergeThreshold},
      {ss::kShuffleIoNumConnectionsPerPeer,
       sp::kShuffleIoNumConnectionsPerPeer},
      {ss::kSpeculation, sp::kSpeculation},
      {ss::kSpeculationMultiplier, sp::kSpeculationMultiplier},
      {ss::kLocalityWait, sp::kLocalityWait},
      {ss::kSchedulerReviveInterval, sp::kSchedulerReviveInterval},
      {ss::kTaskMaxFailures, sp::kTaskMaxFailures},
      {ss::kBroadcastBlockSize, sp::kBroadcastBlockSize},
      {ss::kStorageMemoryMapThreshold, sp::kStorageMemoryMapThreshold},
      {ss::kNetworkTimeout, sp::kNetworkTimeout},
  };
  ASSERT_EQ(slots.size(), static_cast<size_t>(kNumSparkParams));
  for (const auto& [name, cluster] : Clusters()) {
    ConfigSpace space = BuildSparkSpace(cluster);
    ASSERT_EQ(space.size(), static_cast<size_t>(kNumSparkParams)) << name;
    for (const auto& [slot, param] : slots) {
      EXPECT_EQ(space.IndexOf(param), slot) << name << " " << param;
    }
  }
}

TEST(SparkConfEquivalenceTest, SlotDecodeMatchesNameDecode) {
  for (const auto& [name, cluster] : Clusters()) {
    ConfigSpace space = BuildSparkSpace(cluster);
    ExpectSameConf(DecodeSparkConf(space, space.Default()),
                   reference::DecodeSparkConfByName(space, space.Default()),
                   name + " default");
    Rng rng(0x5107);
    for (int i = 0; i < 1000; ++i) {
      Configuration c = space.Sample(&rng);
      ExpectSameConf(DecodeSparkConf(space, c),
                     reference::DecodeSparkConfByName(space, c),
                     name + " sample " + std::to_string(i));
    }
  }
}

TEST(SparkConfEquivalenceTest, ResourceRateKeepsItsBits) {
  auto workload = HiBenchTask("WordCount");
  ASSERT_TRUE(workload.ok());
  for (const auto& [name, cluster] : Clusters()) {
    ConfigSpace space = BuildSparkSpace(cluster);
    SimulatorEvaluatorOptions opts;
    SimulatorEvaluator evaluator(&space, *workload, cluster,
                                 DriftModel::None(), opts);
    Rng rng(0x2a7e);
    std::vector<Configuration> configs = {space.Default()};
    for (int i = 0; i < 1000; ++i) configs.push_back(space.Sample(&rng));
    for (size_t i = 0; i < configs.size(); ++i) {
      const double want = ResourceFunction(
          reference::DecodeSparkConfByName(space, configs[i]),
          opts.sim.mem_weight);
      EXPECT_EQ(Bits(evaluator.ResourceRate(configs[i])), Bits(want))
          << name << " config " << i;
    }
  }
}

TEST(SparkConfEquivalenceTest, SizeMismatchThrowsInEveryBuild) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::HiBenchCluster());
  EXPECT_THROW(DecodeSparkConf(space, Configuration({1.0, 2.0, 3.0})),
               std::invalid_argument);
  ConfigSpace small;
  ASSERT_TRUE(small.Add(Parameter::Float("a", 0.0, 1.0, 0.5)).ok());
  EXPECT_THROW(DecodeSparkConf(small, space.Default()), std::invalid_argument);
}

}  // namespace
}  // namespace sparktune

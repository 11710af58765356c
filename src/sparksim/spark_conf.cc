#include "sparksim/spark_conf.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/strings.h"

namespace sparktune {

ConfigSpace BuildSparkSpace(const ClusterSpec& cluster) {
  ConfigSpace space;
  namespace sp = spark_param;
  namespace ss = spark_slot;

  // Resource shape. Instance cap: what the cluster could hold with the
  // smallest executors, bounded to keep the space sane.
  int max_instances =
      std::clamp(cluster.total_cores(), 8, 1024);
  int default_instances = std::max(2, cluster.num_nodes * 2);
  int max_cores = std::min(8, cluster.cores_per_node);
  double max_exec_mem =
      std::clamp(cluster.mem_per_node_gb / 2.0, 4.0, 48.0);

  // Each parameter lands at its slot: the adds below run in spark_slot
  // order.
  auto add = [&space](ss::Slot slot, Parameter p) {
    assert(static_cast<int>(space.size()) == slot);
    (void)slot;
    Status s = space.Add(std::move(p));
    assert(s.ok());
    (void)s;
  };

  add(ss::kExecutorInstances,
      Parameter::Int(sp::kExecutorInstances, 1, max_instances,
                     default_instances, /*log_scale=*/true));
  add(ss::kExecutorCores, Parameter::Int(sp::kExecutorCores, 1, max_cores, 2));
  add(ss::kExecutorMemory,
      Parameter::Int(sp::kExecutorMemory, 1,
                     static_cast<int64_t>(max_exec_mem), 4,
                     /*log_scale=*/true));
  add(ss::kExecutorMemoryOverhead,
      Parameter::Int(sp::kExecutorMemoryOverhead, 384, 4096, 384,
                     /*log_scale=*/true));
  add(ss::kDriverCores, Parameter::Int(sp::kDriverCores, 1, 8, 2));
  add(ss::kDriverMemory,
      Parameter::Int(sp::kDriverMemory, 1, 16, 4, /*log_scale=*/true));
  // Spark defaults spark.default.parallelism to the total core count for
  // distributed shuffles.
  int default_parallelism = std::clamp(cluster.total_cores(), 8, 2000);
  add(ss::kDefaultParallelism,
      Parameter::Int(sp::kDefaultParallelism, 8, 2000, default_parallelism,
                     /*log_scale=*/true));
  add(ss::kSqlShufflePartitions,
      Parameter::Int(sp::kSqlShufflePartitions, 8, 2000, 200,
                     /*log_scale=*/true));
  add(ss::kMemoryFraction,
      Parameter::Float(sp::kMemoryFraction, 0.3, 0.9, 0.6));
  add(ss::kMemoryStorageFraction,
      Parameter::Float(sp::kMemoryStorageFraction, 0.1, 0.9, 0.5));
  add(ss::kShuffleCompress, Parameter::Bool(sp::kShuffleCompress, true));
  add(ss::kShuffleSpillCompress,
      Parameter::Bool(sp::kShuffleSpillCompress, true));
  add(ss::kBroadcastCompress, Parameter::Bool(sp::kBroadcastCompress, true));
  add(ss::kRddCompress, Parameter::Bool(sp::kRddCompress, false));
  add(ss::kIoCompressionCodec,
      Parameter::Categorical(sp::kIoCompressionCodec,
                             {"lz4", "snappy", "zstd"}, 0));
  add(ss::kSerializer,
      Parameter::Categorical(sp::kSerializer,
                             {"org.apache.spark.serializer.JavaSerializer",
                              "org.apache.spark.serializer.KryoSerializer"},
                             0));
  add(ss::kKryoBufferKb,
      Parameter::Int(sp::kKryoBufferKb, 16, 256, 64, /*log_scale=*/true));
  add(ss::kKryoBufferMaxMb,
      Parameter::Int(sp::kKryoBufferMaxMb, 8, 256, 64, /*log_scale=*/true));
  add(ss::kReducerMaxSizeInFlight,
      Parameter::Int(sp::kReducerMaxSizeInFlight, 8, 256, 48,
                     /*log_scale=*/true));
  add(ss::kShuffleFileBuffer,
      Parameter::Int(sp::kShuffleFileBuffer, 8, 256, 32, /*log_scale=*/true));
  add(ss::kShuffleSortBypassMergeThreshold,
      Parameter::Int(sp::kShuffleSortBypassMergeThreshold, 100, 1000, 200));
  add(ss::kShuffleIoNumConnectionsPerPeer,
      Parameter::Int(sp::kShuffleIoNumConnectionsPerPeer, 1, 8, 1));
  add(ss::kSpeculation, Parameter::Bool(sp::kSpeculation, false));
  add(ss::kSpeculationMultiplier,
      Parameter::Float(sp::kSpeculationMultiplier, 1.1, 5.0, 1.5));
  add(ss::kLocalityWait, Parameter::Float(sp::kLocalityWait, 0.0, 10.0, 3.0));
  add(ss::kSchedulerReviveInterval,
      Parameter::Int(sp::kSchedulerReviveInterval, 100, 5000, 1000,
                     /*log_scale=*/true));
  add(ss::kTaskMaxFailures, Parameter::Int(sp::kTaskMaxFailures, 1, 8, 4));
  add(ss::kBroadcastBlockSize,
      Parameter::Int(sp::kBroadcastBlockSize, 1, 16, 4));
  add(ss::kStorageMemoryMapThreshold,
      Parameter::Int(sp::kStorageMemoryMapThreshold, 1, 10, 2));
  add(ss::kNetworkTimeout, Parameter::Int(sp::kNetworkTimeout, 60, 600, 120));

  assert(static_cast<int>(space.size()) == kNumSparkParams);
  return space;
}

SparkConf DecodeSparkConf(const ConfigSpace& space, const Configuration& c) {
  // Reading by slot trusts the layout, so the sizes are checked in every
  // build, not only under assert.
  constexpr size_t kSlots = kNumSparkParams;
  if (space.size() != kSlots || c.size() != kSlots) {
    throw std::invalid_argument(
        StrFormat("DecodeSparkConf: space has %zu parameters and the "
                  "configuration %zu values; both must be %d",
                  space.size(), c.size(), kNumSparkParams));
  }
  namespace ss = spark_slot;
  SparkConf conf;
  conf.executor_instances = static_cast<int>(c[ss::kExecutorInstances]);
  conf.executor_cores = static_cast<int>(c[ss::kExecutorCores]);
  conf.executor_memory_gb = c[ss::kExecutorMemory];
  conf.executor_memory_overhead_mb = c[ss::kExecutorMemoryOverhead];
  conf.driver_cores = static_cast<int>(c[ss::kDriverCores]);
  conf.driver_memory_gb = c[ss::kDriverMemory];
  conf.default_parallelism = static_cast<int>(c[ss::kDefaultParallelism]);
  conf.sql_shuffle_partitions =
      static_cast<int>(c[ss::kSqlShufflePartitions]);
  conf.memory_fraction = c[ss::kMemoryFraction];
  conf.memory_storage_fraction = c[ss::kMemoryStorageFraction];
  conf.shuffle_compress = c[ss::kShuffleCompress] >= 0.5;
  conf.shuffle_spill_compress = c[ss::kShuffleSpillCompress] >= 0.5;
  conf.broadcast_compress = c[ss::kBroadcastCompress] >= 0.5;
  conf.rdd_compress = c[ss::kRddCompress] >= 0.5;
  conf.io_codec =
      static_cast<Codec>(static_cast<int>(c[ss::kIoCompressionCodec]));
  conf.serializer =
      static_cast<Serializer>(static_cast<int>(c[ss::kSerializer]));
  conf.kryo_buffer_kb = c[ss::kKryoBufferKb];
  conf.kryo_buffer_max_mb = c[ss::kKryoBufferMaxMb];
  conf.reducer_max_size_in_flight_mb = c[ss::kReducerMaxSizeInFlight];
  conf.shuffle_file_buffer_kb = c[ss::kShuffleFileBuffer];
  conf.shuffle_sort_bypass_merge_threshold =
      static_cast<int>(c[ss::kShuffleSortBypassMergeThreshold]);
  conf.shuffle_io_num_connections_per_peer =
      static_cast<int>(c[ss::kShuffleIoNumConnectionsPerPeer]);
  conf.speculation = c[ss::kSpeculation] >= 0.5;
  conf.speculation_multiplier = c[ss::kSpeculationMultiplier];
  conf.locality_wait_sec = c[ss::kLocalityWait];
  conf.scheduler_revive_interval_ms = c[ss::kSchedulerReviveInterval];
  conf.task_max_failures = static_cast<int>(c[ss::kTaskMaxFailures]);
  conf.broadcast_block_size_mb = c[ss::kBroadcastBlockSize];
  conf.storage_memory_map_threshold_mb = c[ss::kStorageMemoryMapThreshold];
  conf.network_timeout_sec = c[ss::kNetworkTimeout];
  return conf;
}

double ResourceFunction(const SparkConf& conf, double mem_weight) {
  double executors =
      static_cast<double>(conf.executor_instances) *
      (static_cast<double>(conf.executor_cores) +
       mem_weight * conf.container_mem_gb());
  double driver = static_cast<double>(conf.driver_cores) +
                  mem_weight * conf.driver_memory_gb;
  return executors + driver;
}

std::vector<std::string> ExpertParameterRanking() {
  namespace sp = spark_param;
  // Mirrors the paper's Table 5 ordering for the head of the list.
  return {
      sp::kExecutorInstances,
      sp::kExecutorMemory,
      sp::kMemoryStorageFraction,
      sp::kDefaultParallelism,
      sp::kMemoryFraction,
      sp::kExecutorCores,
      sp::kIoCompressionCodec,
      sp::kShuffleFileBuffer,
      sp::kShuffleCompress,
      sp::kSerializer,
      sp::kSqlShufflePartitions,
      sp::kExecutorMemoryOverhead,
      sp::kReducerMaxSizeInFlight,
      sp::kRddCompress,
      sp::kShuffleSpillCompress,
      sp::kSpeculation,
      sp::kLocalityWait,
      sp::kShuffleIoNumConnectionsPerPeer,
      sp::kKryoBufferKb,
      sp::kKryoBufferMaxMb,
      sp::kDriverMemory,
      sp::kDriverCores,
      sp::kBroadcastCompress,
      sp::kBroadcastBlockSize,
      sp::kShuffleSortBypassMergeThreshold,
      sp::kSpeculationMultiplier,
      sp::kSchedulerReviveInterval,
      sp::kTaskMaxFailures,
      sp::kStorageMemoryMapThreshold,
      sp::kNetworkTimeout,
  };
}

}  // namespace sparktune

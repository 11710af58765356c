// Test-only reference for DecodeSparkConf (sparksim/spark_conf.h): the
// original decode, which reads every parameter by name through
// ConfigSpace::Get. The slot decode must reproduce it field for field;
// tests/spark_conf_equivalence_test.cc checks that.
#pragma once

#include "space/config_space.h"
#include "sparksim/spark_conf.h"

namespace sparktune::reference {

inline SparkConf DecodeSparkConfByName(const ConfigSpace& space,
                                       const Configuration& c) {
  namespace sp = spark_param;
  auto get = [&](const char* name) { return space.Get(c, name); };
  SparkConf conf;
  conf.executor_instances = static_cast<int>(get(sp::kExecutorInstances));
  conf.executor_cores = static_cast<int>(get(sp::kExecutorCores));
  conf.executor_memory_gb = get(sp::kExecutorMemory);
  conf.executor_memory_overhead_mb = get(sp::kExecutorMemoryOverhead);
  conf.driver_cores = static_cast<int>(get(sp::kDriverCores));
  conf.driver_memory_gb = get(sp::kDriverMemory);
  conf.default_parallelism = static_cast<int>(get(sp::kDefaultParallelism));
  conf.sql_shuffle_partitions =
      static_cast<int>(get(sp::kSqlShufflePartitions));
  conf.memory_fraction = get(sp::kMemoryFraction);
  conf.memory_storage_fraction = get(sp::kMemoryStorageFraction);
  conf.shuffle_compress = get(sp::kShuffleCompress) >= 0.5;
  conf.shuffle_spill_compress = get(sp::kShuffleSpillCompress) >= 0.5;
  conf.broadcast_compress = get(sp::kBroadcastCompress) >= 0.5;
  conf.rdd_compress = get(sp::kRddCompress) >= 0.5;
  conf.io_codec = static_cast<Codec>(
      static_cast<int>(get(sp::kIoCompressionCodec)));
  conf.serializer =
      static_cast<Serializer>(static_cast<int>(get(sp::kSerializer)));
  conf.kryo_buffer_kb = get(sp::kKryoBufferKb);
  conf.kryo_buffer_max_mb = get(sp::kKryoBufferMaxMb);
  conf.reducer_max_size_in_flight_mb = get(sp::kReducerMaxSizeInFlight);
  conf.shuffle_file_buffer_kb = get(sp::kShuffleFileBuffer);
  conf.shuffle_sort_bypass_merge_threshold =
      static_cast<int>(get(sp::kShuffleSortBypassMergeThreshold));
  conf.shuffle_io_num_connections_per_peer =
      static_cast<int>(get(sp::kShuffleIoNumConnectionsPerPeer));
  conf.speculation = get(sp::kSpeculation) >= 0.5;
  conf.speculation_multiplier = get(sp::kSpeculationMultiplier);
  conf.locality_wait_sec = get(sp::kLocalityWait);
  conf.scheduler_revive_interval_ms = get(sp::kSchedulerReviveInterval);
  conf.task_max_failures = static_cast<int>(get(sp::kTaskMaxFailures));
  conf.broadcast_block_size_mb = get(sp::kBroadcastBlockSize);
  conf.storage_memory_map_threshold_mb =
      get(sp::kStorageMemoryMapThreshold);
  conf.network_timeout_sec = get(sp::kNetworkTimeout);
  return conf;
}

}  // namespace sparktune::reference

// The 30-parameter Spark configuration space (the Tuneful parameter set the
// paper tunes, §6.1) and its typed decoding for the simulator.
//
// Ranges scale with the cluster so the space stays meaningful on both the
// 4-node HiBench cluster and the 100-unit production resource groups
// ("the value ranges of the parameters are set differently depending on the
// cluster size", §6.1).
#pragma once

#include <string>

#include "space/config_space.h"
#include "sparksim/cluster.h"

namespace sparktune {

// Canonical Spark parameter names. spark_slot below gives each one's index
// in the space BuildSparkSpace builds.
namespace spark_param {
inline constexpr const char* kExecutorInstances = "spark.executor.instances";
inline constexpr const char* kExecutorCores = "spark.executor.cores";
inline constexpr const char* kExecutorMemory = "spark.executor.memory";  // GB
inline constexpr const char* kExecutorMemoryOverhead =
    "spark.executor.memoryOverhead";  // MB
inline constexpr const char* kDriverCores = "spark.driver.cores";
inline constexpr const char* kDriverMemory = "spark.driver.memory";  // GB
inline constexpr const char* kDefaultParallelism = "spark.default.parallelism";
inline constexpr const char* kSqlShufflePartitions =
    "spark.sql.shuffle.partitions";
inline constexpr const char* kMemoryFraction = "spark.memory.fraction";
inline constexpr const char* kMemoryStorageFraction =
    "spark.memory.storageFraction";
inline constexpr const char* kShuffleCompress = "spark.shuffle.compress";
inline constexpr const char* kShuffleSpillCompress =
    "spark.shuffle.spill.compress";
inline constexpr const char* kBroadcastCompress = "spark.broadcast.compress";
inline constexpr const char* kRddCompress = "spark.rdd.compress";
inline constexpr const char* kIoCompressionCodec =
    "spark.io.compression.codec";
inline constexpr const char* kSerializer = "spark.serializer";
inline constexpr const char* kKryoBufferKb = "spark.kryoserializer.buffer";
inline constexpr const char* kKryoBufferMaxMb =
    "spark.kryoserializer.buffer.max";
inline constexpr const char* kReducerMaxSizeInFlight =
    "spark.reducer.maxSizeInFlight";  // MB
inline constexpr const char* kShuffleFileBuffer =
    "spark.shuffle.file.buffer";  // KB
inline constexpr const char* kShuffleSortBypassMergeThreshold =
    "spark.shuffle.sort.bypassMergeThreshold";
inline constexpr const char* kShuffleIoNumConnectionsPerPeer =
    "spark.shuffle.io.numConnectionsPerPeer";
inline constexpr const char* kSpeculation = "spark.speculation";
inline constexpr const char* kSpeculationMultiplier =
    "spark.speculation.multiplier";
inline constexpr const char* kLocalityWait = "spark.locality.wait";  // sec
inline constexpr const char* kSchedulerReviveInterval =
    "spark.scheduler.revive.interval";  // ms
inline constexpr const char* kTaskMaxFailures = "spark.task.maxFailures";
inline constexpr const char* kBroadcastBlockSize =
    "spark.broadcast.blockSize";  // MB
inline constexpr const char* kStorageMemoryMapThreshold =
    "spark.storage.memoryMapThreshold";  // MB
inline constexpr const char* kNetworkTimeout = "spark.network.timeout";  // s
}  // namespace spark_param

// Slot order of the Spark space, defined once: BuildSparkSpace lays the
// parameters out in this order and DecodeSparkConf reads each one at its
// slot, c[slot], with no name lookup.
namespace spark_slot {
enum Slot : int {
  kExecutorInstances,
  kExecutorCores,
  kExecutorMemory,
  kExecutorMemoryOverhead,
  kDriverCores,
  kDriverMemory,
  kDefaultParallelism,
  kSqlShufflePartitions,
  kMemoryFraction,
  kMemoryStorageFraction,
  kShuffleCompress,
  kShuffleSpillCompress,
  kBroadcastCompress,
  kRddCompress,
  kIoCompressionCodec,
  kSerializer,
  kKryoBufferKb,
  kKryoBufferMaxMb,
  kReducerMaxSizeInFlight,
  kShuffleFileBuffer,
  kShuffleSortBypassMergeThreshold,
  kShuffleIoNumConnectionsPerPeer,
  kSpeculation,
  kSpeculationMultiplier,
  kLocalityWait,
  kSchedulerReviveInterval,
  kTaskMaxFailures,
  kBroadcastBlockSize,
  kStorageMemoryMapThreshold,
  kNetworkTimeout,
};
}  // namespace spark_slot

inline constexpr int kNumSparkParams = 30;
static_assert(spark_slot::kNetworkTimeout + 1 == kNumSparkParams);

// Build the 30-parameter space sized for `cluster`.
ConfigSpace BuildSparkSpace(const ClusterSpec& cluster);

// Compression codec / serializer category indices (order in the space).
enum class Codec { kLz4 = 0, kSnappy = 1, kZstd = 2 };
enum class Serializer { kJava = 0, kKryo = 1 };

// Typed view of a Configuration for the simulator.
struct SparkConf {
  int executor_instances;
  int executor_cores;
  double executor_memory_gb;
  double executor_memory_overhead_mb;
  int driver_cores;
  double driver_memory_gb;
  int default_parallelism;
  int sql_shuffle_partitions;
  double memory_fraction;
  double memory_storage_fraction;
  bool shuffle_compress;
  bool shuffle_spill_compress;
  bool broadcast_compress;
  bool rdd_compress;
  Codec io_codec;
  Serializer serializer;
  double kryo_buffer_kb;
  double kryo_buffer_max_mb;
  double reducer_max_size_in_flight_mb;
  double shuffle_file_buffer_kb;
  int shuffle_sort_bypass_merge_threshold;
  int shuffle_io_num_connections_per_peer;
  bool speculation;
  double speculation_multiplier;
  double locality_wait_sec;
  double scheduler_revive_interval_ms;
  int task_max_failures;
  double broadcast_block_size_mb;
  double storage_memory_map_threshold_mb;
  double network_timeout_sec;

  // Total memory footprint of one executor container (heap + overhead), GB.
  double container_mem_gb() const {
    return executor_memory_gb + executor_memory_overhead_mb / 1024.0;
  }
};

// Decode a configuration from `space` (must have been built by
// BuildSparkSpace) into the typed view, reading each parameter at its
// spark_slot. Throws std::invalid_argument, in every build, when the space
// or the configuration does not hold kNumSparkParams values.
SparkConf DecodeSparkConf(const ConfigSpace& space, const Configuration& c);

// Resource function R(x) (paper §3.2/§4.3): amount of resource per unit
// time, R = instances * (cores + c_mem * memory_gb) with the driver included.
// `mem_weight` is the c constant. White-box and differentiable in the
// resource parameters.
double ResourceFunction(const SparkConf& conf, double mem_weight = 0.5);

// Expert initial importance ranking for cold-start sub-space selection
// (paper §4.1: "we start with an initial parameter ranking suggested by
// experts"). Returns parameter names, most important first.
std::vector<std::string> ExpertParameterRanking();

}  // namespace sparktune

#include "sparksim/runtime_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/normal.h"

namespace sparktune {

namespace {

// Cap on simulated per-stage sampled tasks (statistics are exact in
// expectation; the cap bounds simulation cost).
constexpr int kMaxSampledTasks = 96;

// Compression codec characteristics (size ratio after compression, and
// MB/s per core for compress / decompress).
struct CodecProps {
  double ratio;
  double compress_mbps;
  double decompress_mbps;
};

CodecProps CodecOf(Codec c) {
  switch (c) {
    case Codec::kLz4:
      return {0.55, 750.0, 2800.0};
    case Codec::kSnappy:
      return {0.60, 800.0, 3000.0};
    case Codec::kZstd:
      return {0.40, 300.0, 900.0};
  }
  return {0.55, 750.0, 2800.0};
}

// Serializer characteristics: CPU-seconds per MB serialized and the size of
// serialized data relative to Java serialization.
struct SerProps {
  double cpu_per_mb;
  double size_ratio;
  double gc_churn;  // garbage pressure multiplier
};

SerProps SerOf(const SparkConf& conf) {
  if (conf.serializer == Serializer::kKryo) {
    // Undersized kryo buffers force re-allocations.
    double buffer_penalty =
        1.0 + 0.12 * std::max(0.0, 32.0 / conf.kryo_buffer_kb - 1.0);
    return {0.0065 * buffer_penalty, 0.72, 1.0};
  }
  return {0.0115, 1.0, 1.18};
}

double Ramp(double x) { return x > 0.0 ? x : 0.0; }

// Expected maximum multiplier of `n` iid lognormal(mu=-s^2/2, s) draws,
// approximated by the n/(n+1) quantile.
double LognormalMaxQuantile(double sigma, int n) {
  if (sigma <= 0.0 || n <= 1) return 1.0;
  double p = static_cast<double>(n) / (static_cast<double>(n) + 1.0);
  return std::exp(sigma * NormInvCdf(p) - 0.5 * sigma * sigma);
}

struct StageRun {
  double input_mb = 0.0;
  double output_mb = 0.0;
  double shuffle_write_mb = 0.0;  // post-serialization, pre-compression
  int partitions = 1;
  double finish_time_sec = 0.0;
};

}  // namespace

const char* SimFailureKindName(SimFailureKind kind) {
  switch (kind) {
    case SimFailureKind::kNone: return "none";
    case SimFailureKind::kNoExecutors: return "no-executors";
    case SimFailureKind::kExecutorOom: return "executor-oom";
    case SimFailureKind::kContainerKill: return "container-kill";
    case SimFailureKind::kDriverOom: return "driver-oom";
    case SimFailureKind::kFetchTimeout: return "fetch-timeout";
  }
  return "unknown";
}

SparkSimulator::SparkSimulator(ClusterSpec cluster, SimOptions options)
    : cluster_(std::move(cluster)), options_(options) {}

ExecutionResult SparkSimulator::Execute(const WorkloadSpec& workload,
                                        const SparkConf& conf,
                                        double data_size_gb,
                                        uint64_t seed) const {
  assert(workload.Valid());
  Rng rng(seed);

  ExecutionResult result;
  result.data_size_gb = data_size_gb;
  result.resource_rate = ResourceFunction(conf, options_.mem_weight);
  result.event_log.app_name = workload.name;
  result.event_log.is_sql = workload.is_sql;
  result.event_log.data_size_gb = data_size_gb;

  const Placement placement =
      PlaceExecutors(cluster_, conf.executor_instances, conf.executor_cores,
                     conf.container_mem_gb());
  result.granted_executors = placement.granted_executors;
  if (placement.granted_executors == 0) {
    result.failed = true;
    result.failure = SimFailureKind::kNoExecutors;
    result.runtime_sec = 120.0;  // fast application-master abort
    result.cpu_core_hours = conf.driver_cores * result.runtime_sec / 3600.0;
    result.memory_gb_hours = conf.driver_memory_gb * result.runtime_sec / 3600.0;
    return result;
  }

  const int executors = placement.granted_executors;
  const int slots = executors * conf.executor_cores;
  const double heap_mb = conf.executor_memory_gb * 1024.0;
  // Unified memory region (Spark: (heap - 300MB) * memory.fraction).
  const double unified_mb =
      std::max(heap_mb * 0.25, (heap_mb - 300.0) * conf.memory_fraction);
  const double storage_region_mb = unified_mb * conf.memory_storage_fraction;

  const CodecProps codec = CodecOf(conf.io_codec);
  const SerProps ser = SerOf(conf);

  const double core_speed = cluster_.core_speed;
  const double disk_mbps = cluster_.disk_mbps;
  const double net_mbps = cluster_.net_mbps;

  // Whether any stage caches output (storage region actually in use).
  bool any_cached = false;
  double cache_demand_mb = 0.0;

  std::vector<StageRun> runs(workload.stages.size());
  const double job_input_mb = data_size_gb * 1024.0;

  SimFailureKind failure = SimFailureKind::kNone;
  double elapsed = 0.0;

  // Driver + executor launch overhead: AM negotiation plus container spin-up
  // grows mildly with the number of executors.
  elapsed += 5.0 + 0.012 * executors +
             0.3 * conf.scheduler_revive_interval_ms / 1000.0;

  for (size_t si = 0; si < workload.stages.size() && failure == SimFailureKind::kNone;
       ++si) {
    const StageSpec& spec = workload.stages[si];
    StageRun& run = runs[si];

    // ---- Data flow ----
    double shuffle_read_total_mb = 0.0;
    double parents_finish = 0.0;
    if (spec.op == StageOp::kSource) {
      run.input_mb = job_input_mb * spec.input_frac;
    } else {
      double in = 0.0;
      for (int d : spec.deps) {
        const StageRun& dep = runs[static_cast<size_t>(d)];
        in += dep.output_mb;
        shuffle_read_total_mb += dep.shuffle_write_mb;
        parents_finish = std::max(parents_finish, dep.finish_time_sec);
      }
      run.input_mb = in;
    }
    run.output_mb = run.input_mb * spec.output_ratio;
    // Serialized shuffle output.
    run.shuffle_write_mb =
        run.input_mb * spec.shuffle_write_ratio * ser.size_ratio;

    // ---- Partitioning ----
    int partitions;
    if (spec.op == StageOp::kSource) {
      partitions = static_cast<int>(std::ceil(run.input_mb / 128.0));
    } else if (IsShuffleOp(spec.op)) {
      partitions = workload.is_sql ? conf.sql_shuffle_partitions
                                   : conf.default_parallelism;
    } else {
      partitions = spec.deps.empty()
                       ? conf.default_parallelism
                       : runs[static_cast<size_t>(spec.deps[0])].partitions;
    }
    partitions = std::clamp(partitions, 1, 100000);
    run.partitions = partitions;

    const double mb_per_task = run.input_mb / partitions;

    // ---- Memory model ----
    // Execution memory available per task: storage borrows are possible
    // when nothing is cached.
    double storage_in_use_frac = any_cached ? 1.0 : 0.15;
    double exec_mem_per_task =
        (unified_mb - storage_region_mb * storage_in_use_frac) /
        std::max(1, conf.executor_cores);
    exec_mem_per_task = std::max(exec_mem_per_task, 16.0);
    double working_set_mb = spec.mem_per_task_factor * mb_per_task;
    // Sort-based paths also hold shuffle buffers.
    if (spec.shuffle_write_ratio > 0.0) {
      working_set_mb += conf.shuffle_file_buffer_kb / 1024.0 *
                        std::min(partitions, 256);
    }

    double spill_frac = 0.0;
    if (working_set_mb > exec_mem_per_task) {
      spill_frac = 1.0 - exec_mem_per_task / working_set_mb;
    }

    // Executor OOM risk: hash-heavy operators degrade sharply when the
    // working set dwarfs the execution memory (merge passes cannot save
    // pathological ratios).
    double oom_pressure = working_set_mb /
                          (exec_mem_per_task +
                           0.25 * conf.executor_memory_overhead_mb);
    bool oom_prone = spec.op == StageOp::kGroupByKey ||
                     spec.op == StageOp::kJoin ||
                     spec.op == StageOp::kAggregate ||
                     spec.op == StageOp::kIterUpdate;
    double task_fail_p = 0.0;
    if (oom_prone) {
      task_fail_p = std::clamp(0.25 * Ramp(oom_pressure - 6.0), 0.0, 0.9);
    }

    // Container kill risk: off-heap usage vs memoryOverhead.
    double offheap_mb = 220.0 + 0.02 * heap_mb +
                        conf.reducer_max_size_in_flight_mb *
                            conf.shuffle_io_num_connections_per_peer * 0.5;
    double container_kill_p =
        std::clamp(0.4 * Ramp(offheap_mb / conf.executor_memory_overhead_mb -
                              1.15),
                   0.0, 0.85);

    // ---- Per-task time ----
    // CPU.
    double gc_pressure =
        (working_set_mb * conf.executor_cores) / std::max(heap_mb, 1.0);
    double gc_factor = 1.0 +
                       0.35 * ser.gc_churn * Ramp(gc_pressure - 0.6) +
                       0.008 * Ramp(conf.executor_memory_gb - 24.0);
    double cpu_sec =
        spec.cpu_cost_per_mb * mb_per_task / core_speed * gc_factor;

    // Source read.
    double io_sec = 0.0;
    if (spec.op == StageOp::kSource) {
      // Locality: few executors spread over many nodes miss more often;
      // waiting trades delay for local disk bandwidth.
      double miss = std::exp(-static_cast<double>(executors) /
                             std::max(1, cluster_.num_nodes));
      double wait = std::min(conf.locality_wait_sec, 3.0) * miss;
      double remote_frac = miss * Ramp(1.0 - conf.locality_wait_sec / 3.0);
      double read_mbps =
          (1.0 - remote_frac) * disk_mbps + remote_frac * net_mbps * 0.5;
      io_sec += mb_per_task / read_mbps + wait * 0.15;
    }

    // Shuffle read.
    if (IsShuffleOp(spec.op) && shuffle_read_total_mb > 0.0) {
      double sr_mb = shuffle_read_total_mb / partitions;
      double wire_mb = conf.shuffle_compress ? sr_mb * codec.ratio : sr_mb;
      double conn_boost =
          std::sqrt(static_cast<double>(conf.shuffle_io_num_connections_per_peer));
      double net_sec = wire_mb / (net_mbps / std::max(1, conf.executor_cores) *
                                  conn_boost);
      double fetch_waves =
          std::ceil(sr_mb / std::max(1.0, conf.reducer_max_size_in_flight_mb));
      net_sec += 0.02 * fetch_waves;
      if (net_sec > conf.network_timeout_sec) {
        failure = SimFailureKind::kFetchTimeout;
      }
      io_sec += net_sec;
      if (conf.shuffle_compress) {
        cpu_sec += wire_mb / codec.decompress_mbps / core_speed;
      }
      cpu_sec += sr_mb * ser.cpu_per_mb / core_speed;  // deserialization
    }

    // Shuffle write.
    if (run.shuffle_write_mb > 0.0) {
      double sw_mb = run.shuffle_write_mb / partitions;
      cpu_sec += sw_mb * ser.cpu_per_mb / core_speed;  // serialization
      double disk_mb = sw_mb;
      if (conf.shuffle_compress) {
        cpu_sec += sw_mb / codec.compress_mbps / core_speed;
        disk_mb *= codec.ratio;
      }
      // Small file buffers flush more often.
      double buffer_factor =
          1.0 + 0.18 * Ramp(std::log2(32.0 / conf.shuffle_file_buffer_kb));
      io_sec += disk_mb / disk_mbps * buffer_factor;
      // Sort vs bypass-merge path.
      if (partitions > conf.shuffle_sort_bypass_merge_threshold) {
        cpu_sec += sw_mb * 0.0035 * std::log2(static_cast<double>(partitions)) /
                   core_speed;
      } else {
        io_sec += disk_mb / disk_mbps * 0.12;  // many per-reducer files
      }
    }

    // Spill.
    double spill_mb_task = 0.0;
    if (spill_frac > 0.0) {
      spill_mb_task = mb_per_task * spill_frac;
      double disk_mb = spill_mb_task;
      cpu_sec += spill_mb_task * ser.cpu_per_mb / core_speed;
      if (conf.shuffle_spill_compress) {
        cpu_sec += spill_mb_task / codec.compress_mbps / core_speed +
                   spill_mb_task * codec.ratio / codec.decompress_mbps /
                       core_speed;
        disk_mb *= codec.ratio;
      }
      io_sec += 2.0 * disk_mb / disk_mbps;       // write + re-read
      cpu_sec *= 1.0 + 0.2 * spill_frac;          // merge passes
    }

    // Broadcast distribution cost.
    if (spec.op == StageOp::kBroadcastJoin) {
      double bc_mb = std::max(1.0, run.input_mb * 0.02);
      if (conf.broadcast_compress) bc_mb *= codec.ratio;
      double block_overhead =
          1.0 + 0.06 * Ramp(4.0 / conf.broadcast_block_size_mb - 1.0);
      io_sec += bc_mb / net_mbps *
                std::log2(static_cast<double>(executors) + 1.0) *
                block_overhead / std::max(1, partitions);
    }

    double task_sec = std::max(0.015, cpu_sec + io_sec);

    // Retries inflate expected task time.
    if (task_fail_p > 0.0) {
      task_sec /= std::max(0.1, 1.0 - task_fail_p);
      // Permanent task failure ends the job.
      double perm_fail =
          std::pow(task_fail_p, std::max(1, conf.task_max_failures));
      double job_fail_p =
          1.0 - std::pow(1.0 - perm_fail, std::min(partitions, 4000));
      if (rng.Bernoulli(std::clamp(job_fail_p, 0.0, 1.0))) {
        failure = SimFailureKind::kExecutorOom;
      }
    }
    if (container_kill_p > 0.0 &&
        rng.Bernoulli(std::clamp(
            container_kill_p * std::min(1.0, partitions / 64.0) * 0.5, 0.0,
            0.95))) {
      failure = SimFailureKind::kContainerKill;
    }

    // Driver-side collect.
    if (spec.op == StageOp::kCollect) {
      double collect_mb = run.output_mb;
      if (collect_mb > conf.driver_memory_gb * 1024.0 * 0.6) {
        failure = SimFailureKind::kDriverOom;
      }
    }

    // ---- Wave model + stragglers ----
    int tasks = partitions;
    double waves = std::ceil(static_cast<double>(tasks) /
                             static_cast<double>(slots));
    double tail_mult = LognormalMaxQuantile(spec.skew, std::min(tasks, slots));
    double tail_sec = task_sec * (tail_mult - 1.0);
    double cpu_overhead_frac = 0.0;
    if (conf.speculation) {
      // Speculative copies trim the straggler tail at extra CPU cost; an
      // aggressive multiplier trims more.
      // Only the handful of speculative copies cost extra CPU; the tail
      // shrinks toward the median task.
      double trim = std::clamp(1.6 / conf.speculation_multiplier, 0.25, 0.85);
      tail_sec *= 1.0 - trim * 0.7;
      cpu_overhead_frac += 0.008 * trim;
    }

    double sched_sec = 0.10 + tasks * 0.002 /
                                  std::max(1, conf.driver_cores) +
                       waves * conf.scheduler_revive_interval_ms / 1000.0 *
                           0.05;

    double stage_sec =
        waves * task_sec * (1.0 + cpu_overhead_frac) + tail_sec + sched_sec;

    // Cache reuse across iterations.
    int iters = std::max(1, spec.iterations);
    double stage_total_sec = stage_sec;
    double hit_frac = 0.0;
    if (iters > 1) {
      if (spec.cached) {
        any_cached = true;
        double cache_mb = run.output_mb * (conf.rdd_compress ? codec.ratio : 1.0);
        cache_demand_mb += cache_mb;
        double storage_avail_mb = storage_region_mb * executors;
        hit_frac = cache_demand_mb > 0.0
                       ? std::clamp(storage_avail_mb / cache_demand_mb, 0.0, 1.0)
                       : 1.0;
        if (conf.rdd_compress) {
          // Materialization pays one compression pass.
          stage_total_sec +=
              run.output_mb / codec.compress_mbps / core_speed / slots;
        }
        double iter_cost = stage_sec * (hit_frac * 0.35 + (1.0 - hit_frac));
        stage_total_sec += iter_cost * (iters - 1);
      } else {
        stage_total_sec = stage_sec * iters;
      }
    }

    // Noise.
    if (options_.noise_sigma > 0.0) {
      stage_total_sec *= rng.LogNormal(
          -0.5 * options_.noise_sigma * options_.noise_sigma,
          options_.noise_sigma);
    }

    // A failing stage does not run to completion: the job dies partway
    // through (YARN kills the app after repeated task failures).
    if (failure != SimFailureKind::kNone) stage_total_sec *= 0.5;

    run.finish_time_sec = std::max(parents_finish, elapsed) + stage_total_sec;

    // ---- Event log ----
    StageLog log;
    log.name = spec.name;
    log.op = spec.op;
    log.num_tasks = tasks;
    log.iterations = iters;
    log.duration_sec = stage_total_sec;
    log.input_mb = run.input_mb;
    log.output_mb = run.output_mb;
    log.shuffle_read_mb = IsShuffleOp(spec.op) ? shuffle_read_total_mb : 0.0;
    log.shuffle_write_mb = run.shuffle_write_mb;
    log.spill_mb = spill_mb_task * tasks;
    log.cached = spec.cached;

    // Sampled per-task distributions (for meta-features).
    int sample_n = std::min(tasks, kMaxSampledTasks);
    std::vector<double> durs, gcs, srs, sws, spills, cpufracs, iofracs, inputs;
    durs.reserve(sample_n);
    double gc_sec = cpu_sec * (gc_factor - 1.0) / std::max(gc_factor, 1e-9);
    for (int t = 0; t < sample_n; ++t) {
      double mult =
          spec.skew > 0.0
              ? rng.LogNormal(-0.5 * spec.skew * spec.skew, spec.skew)
              : 1.0;
      durs.push_back(task_sec * mult);
      gcs.push_back(gc_sec * mult);
      srs.push_back(IsShuffleOp(spec.op)
                        ? shuffle_read_total_mb / partitions * mult
                        : 0.0);
      sws.push_back(run.shuffle_write_mb / partitions * mult);
      spills.push_back(spill_mb_task * mult);
      double total = cpu_sec + io_sec;
      cpufracs.push_back(total > 0 ? cpu_sec / total : 0.0);
      iofracs.push_back(total > 0 ? io_sec / total : 0.0);
      inputs.push_back(mb_per_task * mult);
    }
    log.task_duration_sec = Summarize(durs);
    log.task_gc_sec = Summarize(gcs);
    log.task_shuffle_read_mb = Summarize(srs);
    log.task_shuffle_write_mb = Summarize(sws);
    log.task_spill_mb = Summarize(spills);
    log.task_cpu_fraction = Summarize(cpufracs);
    log.task_io_fraction = Summarize(iofracs);
    log.task_input_mb = Summarize(inputs);
    result.event_log.stages.push_back(std::move(log));

    elapsed = run.finish_time_sec;
  }

  if (failure != SimFailureKind::kNone) {
    result.failed = true;
    result.failure = failure;
    // The job burned through retries before dying.
    elapsed = std::max(elapsed, 30.0) * options_.failure_overrun;
  }

  result.runtime_sec = elapsed;
  double exec_cores = static_cast<double>(executors) * conf.executor_cores;
  double exec_mem_gb = static_cast<double>(executors) * conf.container_mem_gb();
  result.cpu_core_hours =
      (exec_cores + conf.driver_cores) * result.runtime_sec / 3600.0;
  result.memory_gb_hours =
      (exec_mem_gb + conf.driver_memory_gb) * result.runtime_sec / 3600.0;
  return result;
}

}  // namespace sparktune

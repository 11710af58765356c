#include "sparksim/production.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"
#include "common/strings.h"
#include "sparksim/spark_conf.h"

namespace sparktune {

namespace {

// Fraction of hourly SparkSQL tasks; the rest are daily Spark ETL jobs.
constexpr double kSqlFraction = 0.5;

// Random ETL-style DAG: source -> map chain -> shuffle stage(s) -> sink.
WorkloadSpec RandomEtlWorkload(const std::string& name, Rng* rng) {
  WorkloadSpec w;
  w.name = name;
  w.family = "etl";
  w.input_gb = rng->LogNormal(std::log(120.0), 0.9);  // ~20..800 GB
  StageSpec src;
  src.name = "read";
  src.op = StageOp::kSource;
  src.input_frac = 1.0;
  src.cpu_cost_per_mb = rng->Uniform(0.003, 0.008);
  w.stages.push_back(src);
  int prev = 0;
  int maps = static_cast<int>(rng->UniformInt(1, 3));
  for (int i = 0; i < maps; ++i) {
    StageSpec m;
    m.name = StrFormat("transform-%d", i);
    m.op = StageOp::kMap;
    m.deps = {prev};
    m.output_ratio = rng->Uniform(0.5, 1.4);
    m.cpu_cost_per_mb = rng->Uniform(0.006, 0.035);
    m.mem_per_task_factor = rng->Uniform(1.2, 2.2);
    m.skew = rng->Uniform(0.15, 0.4);
    if (i + 1 == maps) m.shuffle_write_ratio = rng->Uniform(0.2, 1.0);
    prev = static_cast<int>(w.stages.size());
    w.stages.push_back(m);
  }
  int shuffles = static_cast<int>(rng->UniformInt(1, 2));
  for (int i = 0; i < shuffles; ++i) {
    StageSpec s;
    s.name = StrFormat("shuffle-%d", i);
    StageOp ops[] = {StageOp::kReduceByKey, StageOp::kGroupByKey,
                     StageOp::kAggregate, StageOp::kSortByKey};
    s.op = ops[rng->UniformInt(0, 3)];
    s.deps = {prev};
    s.output_ratio = rng->Uniform(0.05, 0.7);
    s.cpu_cost_per_mb = rng->Uniform(0.008, 0.03);
    s.mem_per_task_factor = rng->Uniform(1.8, 4.0);
    s.skew = rng->Uniform(0.2, 0.5);
    if (i + 1 < shuffles) s.shuffle_write_ratio = rng->Uniform(0.1, 0.5);
    prev = static_cast<int>(w.stages.size());
    w.stages.push_back(s);
  }
  StageSpec sink;
  sink.name = "save";
  sink.op = StageOp::kSink;
  sink.deps = {prev};
  sink.output_ratio = 1.0;
  sink.cpu_cost_per_mb = 0.002;
  w.stages.push_back(sink);
  return w;
}

// Random hourly SQL job: scan -> filter -> optional join -> aggregate ->
// insert. Small inputs.
WorkloadSpec RandomSqlWorkload(const std::string& name, Rng* rng) {
  WorkloadSpec w;
  w.name = name;
  w.family = "sql";
  w.is_sql = true;
  w.input_gb = rng->LogNormal(std::log(8.0), 1.1);  // ~1..80 GB
  StageSpec src;
  src.name = "scan";
  src.op = StageOp::kSource;
  src.input_frac = 1.0;
  src.cpu_cost_per_mb = rng->Uniform(0.004, 0.009);
  w.stages.push_back(src);
  StageSpec filter;
  filter.name = "filter-project";
  filter.op = StageOp::kMap;
  filter.deps = {0};
  filter.output_ratio = rng->Uniform(0.1, 0.7);
  filter.cpu_cost_per_mb = rng->Uniform(0.005, 0.02);
  filter.shuffle_write_ratio = rng->Uniform(0.2, 0.8);
  w.stages.push_back(filter);
  int prev = 1;
  if (rng->Bernoulli(0.4)) {
    StageSpec join;
    join.name = "join";
    join.op = StageOp::kJoin;
    join.deps = {prev};
    join.output_ratio = rng->Uniform(0.3, 0.9);
    join.cpu_cost_per_mb = rng->Uniform(0.01, 0.025);
    join.mem_per_task_factor = rng->Uniform(2.0, 3.6);
    join.shuffle_write_ratio = rng->Uniform(0.1, 0.4);
    join.skew = rng->Uniform(0.25, 0.5);
    prev = static_cast<int>(w.stages.size());
    w.stages.push_back(join);
  }
  StageSpec agg;
  agg.name = "aggregate";
  agg.op = StageOp::kAggregate;
  agg.deps = {prev};
  agg.output_ratio = rng->Uniform(0.01, 0.2);
  agg.cpu_cost_per_mb = rng->Uniform(0.008, 0.02);
  agg.mem_per_task_factor = rng->Uniform(1.8, 3.2);
  agg.skew = rng->Uniform(0.2, 0.45);
  prev = static_cast<int>(w.stages.size());
  w.stages.push_back(agg);
  StageSpec sink;
  sink.name = "insert";
  sink.op = StageOp::kSink;
  sink.deps = {prev};
  sink.cpu_cost_per_mb = 0.002;
  w.stages.push_back(sink);
  return w;
}

// Engineers over-provision: memory and instances well beyond need, default
// everything else.
Configuration ManualConfig(const ConfigSpace& space, bool is_sql, Rng* rng) {
  Configuration c = space.Default();
  namespace sp = spark_param;
  if (is_sql) {
    space.Set(&c, sp::kExecutorInstances,
              static_cast<double>(rng->UniformInt(3, 24)));
    space.Set(&c, sp::kExecutorCores, static_cast<double>(rng->UniformInt(2, 6)));
    space.Set(&c, sp::kExecutorMemory,
              static_cast<double>(rng->UniformInt(4, 20)));
  } else {
    int instances = static_cast<int>(rng->UniformInt(128, 700));
    int cores = static_cast<int>(rng->UniformInt(2, 4));
    space.Set(&c, sp::kExecutorInstances, instances);
    space.Set(&c, sp::kExecutorCores, cores);
    space.Set(&c, sp::kExecutorMemory,
              static_cast<double>(rng->UniformInt(6, 16)));
    // A classic production misconfiguration: parallelism copied from an
    // older, smaller deployment — typically well under the slot count, so
    // tasks are oversized (spills, stragglers).
    int slots = instances * cores;
    space.Set(&c, sp::kDefaultParallelism,
              static_cast<double>(rng->UniformInt(slots / 4, slots)));
  }
  space.Set(&c, sp::kExecutorMemoryOverhead,
            static_cast<double>(rng->UniformInt(384, 2048)));
  return space.Legalize(c);
}

ProductionTask MakeNamedTask(const std::string& id, WorkloadSpec workload,
                             const ClusterSpec& cluster, double period_hours,
                             int instances, int cores, int memory_gb) {
  ProductionTask t;
  t.id = id;
  t.workload = std::move(workload);
  t.cluster = cluster;
  t.period_hours = period_hours;
  t.drift = period_hours <= 1.0 ? DriftModel::Diurnal() : DriftModel::None();
  t.drift.noise_sigma = 0.06;
  ConfigSpace space = BuildSparkSpace(cluster);
  Configuration c = space.Default();
  namespace sp = spark_param;
  space.Set(&c, sp::kExecutorInstances, instances);
  space.Set(&c, sp::kExecutorCores, cores);
  space.Set(&c, sp::kExecutorMemory, memory_gb);
  // Engineers size parallelism against the slot count but routinely lag
  // behind data growth: one partition per slot, no head-room.
  space.Set(&c, sp::kDefaultParallelism,
            std::max(64, instances * cores));
  t.manual_config = space.Legalize(c);
  return t;
}

}  // namespace

std::vector<ProductionTask> GenerateProductionFleet(
    const ProductionFleetOptions& options, uint64_t seed) {
  Rng rng(seed);
  std::vector<ProductionTask> tasks;
  tasks.reserve(static_cast<size_t>(options.num_tasks));
  // Two clusters, so two spaces serve every task's manual config.
  const ConfigSpace sql_space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  const ConfigSpace etl_space =
      BuildSparkSpace(ClusterSpec::ProductionGroup());
  for (int i = 0; i < options.num_tasks; ++i) {
    Rng task_rng = rng.Fork();
    bool is_sql = task_rng.Bernoulli(kSqlFraction);
    ProductionTask t;
    t.id = StrFormat("task-%05d", i);
    t.cluster = is_sql ? ClusterSpec::SmallSqlGroup()
                       : ClusterSpec::ProductionGroup();
    t.workload = is_sql ? RandomSqlWorkload(t.id, &task_rng)
                        : RandomEtlWorkload(t.id, &task_rng);
    t.period_hours = is_sql ? 1.0 : 24.0;
    t.drift = DriftModel::Diurnal(task_rng.Uniform(0.05, 0.35),
                                  task_rng.Uniform(0.03, 0.12));
    t.drift.phase_hours = task_rng.Uniform(0.0, 24.0);
    t.manual_config =
        ManualConfig(is_sql ? sql_space : etl_space, is_sql, &task_rng);
    tasks.push_back(std::move(t));
  }
  return tasks;
}

std::vector<ProductionTask> EightAdvertisementTasks() {
  std::vector<ProductionTask> tasks;
  ClusterSpec prod = ClusterSpec::ProductionGroup();
  ClusterSpec small = ClusterSpec::SmallSqlGroup();
  Rng rng(20230701);

  // Four daily Spark jobs. Manual executor shapes from Table 2.
  {
    Rng r = rng.Fork();
    WorkloadSpec w = RandomEtlWorkload("feature-extraction", &r);
    w.input_gb = 900.0;
    w.stages[1].cpu_cost_per_mb = 0.03;
    tasks.push_back(MakeNamedTask("Spark: Feature Extraction", w, prod, 24.0,
                                  300, 2, 8));
  }
  {
    Rng r = rng.Fork();
    WorkloadSpec w = RandomEtlWorkload("user-traffic", &r);
    w.input_gb = 700.0;
    tasks.push_back(MakeNamedTask("Spark: User-Traffic Distrib.", w, prod,
                                  24.0, 256, 2, 8));
  }
  {
    Rng r = rng.Fork();
    WorkloadSpec w = RandomEtlWorkload("dau-analysis", &r);
    w.input_gb = 400.0;
    tasks.push_back(
        MakeNamedTask("Spark: DAU Analysis", w, prod, 24.0, 500, 4, 16));
  }
  {
    Rng r = rng.Fork();
    WorkloadSpec w = RandomEtlWorkload("log-processing", &r);
    w.input_gb = 1100.0;
    tasks.push_back(
        MakeNamedTask("Spark: Log Processing", w, prod, 24.0, 656, 4, 9));
  }
  // Four hourly SparkSQL jobs.
  {
    Rng r = rng.Fork();
    WorkloadSpec w = RandomSqlWorkload("data-selection", &r);
    w.input_gb = 2.0;
    tasks.push_back(
        MakeNamedTask("Spark SQL: Data Selection", w, small, 1.0, 16, 6, 6));
  }
  {
    Rng r = rng.Fork();
    WorkloadSpec w = RandomSqlWorkload("skew-detection", &r);
    w.input_gb = 12.0;
    tasks.push_back(
        MakeNamedTask("Spark SQL: Skew Detection", w, small, 1.0, 20, 2, 20));
  }
  {
    Rng r = rng.Fork();
    WorkloadSpec w = RandomSqlWorkload("feature-calculation", &r);
    w.input_gb = 25.0;
    tasks.push_back(MakeNamedTask("Spark SQL: Feature Calculation", w, small,
                                  1.0, 3, 2, 1));
  }
  {
    Rng r = rng.Fork();
    WorkloadSpec w = RandomSqlWorkload("data-preprocessing", &r);
    w.input_gb = 5.0;
    tasks.push_back(MakeNamedTask("Spark SQL: Data Preprossing", w, small,
                                  1.0, 3, 2, 6));
  }
  return tasks;
}

}  // namespace sparktune

// The micro-benchmark harness: every row times an optimized path against
// its reference and verifies the two outputs bit for bit — the
// determinism invariant is part of the benchmark contract, not a separate
// test. Three groups of rows:
//
//   * linalg: the panelled upper solve and the register-tiled SYRK
//     factorization against their naive loops (upper_solve, syrk_factor);
//   * batched inference at --n training rows and --m probes: the columnar
//     MixedKernel row against per-row EvalRow (kernel_batch), and one
//     PredictBatch call against a per-point Predict loop for the GP, the
//     meta ensemble and the random forest, with fixed GP hyperparameters
//     (gp_predict, meta_predict, forest_predict);
//   * parallel paths at num_threads 1 against max(--threads, 2): meta-
//     feature extraction over --logs event logs (meta_extract), and on
//     Spark-shaped data the GP hyper-sweep fit on 60 rows, a 64-tree
//     forest fit on 200 rows, fANOVA on 120 rows, and acquisition
//     maximization (gp_fit, forest_fit, fanova, acq_maximize).
//
// Per-layer time on the real workloads comes from perfbench's traced run;
// this harness does the one job that cannot: fast path against reference,
// outputs compared bit for bit.
//
// Outputs a table and BENCH_kernels.json (schema self-checked before the
// write, like BENCH_fleet.json). Any bit mismatch exits 1.
//
// Flags: --n=N (matrix order / training rows, default 512), --m=N
// (right-hand-side columns / probe count, default 256), --logs=N (event
// logs for meta extraction, default 256), --reps=N (timing repetitions,
// best-of, default 3), --threads=N (parallel width, default 4),
// --out=PATH, --self_check=1 (ragged sizes n=101, m=53, 17 logs, one rep
// — the CI mode). --n=512 --m=500 is the acquisition-pool shape of the
// batched-inference headline.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bo/acq_optimizer.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fanova/fanova.h"
#include "forest/random_forest.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "meta/meta_features.h"
#include "meta/meta_surrogate.h"
#include "model/gp.h"
#include "model/kernel.h"
#include "sparksim/event_log.h"

using namespace sparktune;
using namespace sparktune::bench;

namespace {

template <typename F>
double TimeMs(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    // lint:allow(no-wall-clock) benchmark wall-time reporting only; never feeds tuner results
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();  // lint:allow(no-wall-clock) benchmark timing, as above
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// Prevents the optimizer from discarding untimed results.
// lint:allow(mutable-static) single-threaded benchmark driver's dead-code sink
double g_sink = 0.0;

struct KernelRow {
  const char* name;
  double naive_ms = 0.0;
  double fast_ms = 0.0;
  bool bit_identical = true;
  double speedup() const {
    return fast_ms > 0.0 ? naive_ms / fast_ms : 0.0;
  }
};

// The rows' fits run on synthetic data and cannot fail; if one does, the
// harness itself is broken.
void MustOk(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "bench_kernels: %s: %s\n", what,
               s.ToString().c_str());
  std::exit(1);
}

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a(r, c) = rng->Normal();
  }
  Matrix spd = a.MatMul(a.Transpose());
  spd.AddDiagonal(static_cast<double>(n));
  return spd;
}

// The documented reference loops the optimized kernels must reproduce
// bit-for-bit (cholesky.h): ascending k for the factorization, strictly
// descending k for the back substitution.
bool NaiveFactor(const Matrix& a, Matrix* l) {
  size_t n = a.rows();
  *l = Matrix(n, n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (size_t k = 0; k < j; ++k) d -= (*l)(j, k) * (*l)(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    (*l)(j, j) = std::sqrt(d);
    for (size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (size_t k = 0; k < j; ++k) s -= (*l)(i, k) * (*l)(j, k);
      (*l)(i, j) = s / (*l)(j, j);
    }
  }
  return true;
}

Matrix NaiveUpperSolve(const Matrix& l, const Matrix& y) {
  const size_t n = l.rows();
  const size_t m = y.cols();
  Matrix x(n, m, 0.0);
  for (size_t c = 0; c < m; ++c) {
    for (size_t ii = n; ii-- > 0;) {
      double sum = y(ii, c);
      for (size_t k = n; k-- > ii + 1;) sum -= l(k, ii) * x(k, c);
      x(ii, c) = sum / l(ii, ii);
    }
  }
  return x;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

KernelRow BenchUpperSolve(size_t n, size_t m, int threads, int reps) {
  KernelRow row{"upper_solve"};
  Rng rng(2023);
  Matrix a = RandomSpd(n, &rng);
  auto chol = Cholesky::Factor(a, 1e-10, 1e-2, threads);
  if (!chol.ok()) {
    row.bit_identical = false;
    return row;
  }
  Matrix y(n, m);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < m; ++c) y(r, c) = rng.Normal();
  }
  Matrix naive, fast;
  row.naive_ms = TimeMs(reps, [&] {
    naive = NaiveUpperSolve(chol->lower(), y);
    g_sink += naive(0, 0);
  });
  row.fast_ms = TimeMs(reps, [&] {
    fast = chol->SolveUpperMatrix(y, threads);
    g_sink += fast(0, 0);
  });
  row.bit_identical = BitEqual(naive, fast);
  return row;
}

KernelRow BenchSyrkFactor(size_t n, int threads, int reps) {
  KernelRow row{"syrk_factor"};
  Rng rng(7177);
  Matrix a = RandomSpd(n, &rng);
  Matrix naive;
  bool naive_ok = true;
  row.naive_ms = TimeMs(reps, [&] {
    naive_ok = NaiveFactor(a, &naive);
    g_sink += naive(0, 0);
  });
  bool fast_ok = true;
  Matrix fast;
  row.fast_ms = TimeMs(reps, [&] {
    auto chol = Cholesky::Factor(a, 1e-10, 1e-2, threads);
    fast_ok = chol.ok() && chol->applied_jitter() == 0.0;
    if (fast_ok) fast = chol->lower();
    g_sink += fast(0, 0);
  });
  row.bit_identical = naive_ok && fast_ok && BitEqual(naive, fast);
  return row;
}

// `numeric` numeric features, then `categorical` binary ones, then one
// data-size feature.
std::vector<FeatureKind> MixedSchema(size_t numeric, size_t categorical) {
  std::vector<FeatureKind> schema(numeric, FeatureKind::kNumeric);
  schema.insert(schema.end(), categorical, FeatureKind::kCategorical);
  schema.push_back(FeatureKind::kDataSize);
  return schema;
}

// Random rows for `schema`: categorical features 0/1, the rest uniform.
std::vector<std::vector<double>> MakeMixedRows(
    const std::vector<FeatureKind>& schema, size_t count, Rng* rng) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> r(schema.size());
    for (size_t f = 0; f < schema.size(); ++f) {
      r[f] = schema[f] == FeatureKind::kCategorical
                 ? (rng->Bernoulli(0.5) ? 1.0 : 0.0)
                 : rng->Uniform();
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

struct Dataset {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

// MakeMixedRows plus a smooth noisy target over the first six features
// and the data size, so the fits have structure to find.
Dataset MakeDataset(const std::vector<FeatureKind>& schema, size_t count,
                    Rng* rng) {
  Dataset d;
  d.x = MakeMixedRows(schema, count, rng);
  for (const auto& row : d.x) {
    double y = row.back();
    for (size_t f = 0; f < 6; ++f) y += std::sin(3.0 * row[f]);
    d.y.push_back(y + 0.05 * rng->Normal());
  }
  return d;
}

KernelRow BenchKernelBatch(const std::vector<FeatureKind>& schema,
                           const std::vector<std::vector<double>>& train,
                           const std::vector<std::vector<double>>& probes,
                           int reps) {
  KernelRow row{"kernel_batch"};
  MixedKernel kernel(schema);
  const size_t n = train.size();
  const size_t m = probes.size();
  std::vector<double> by_row(n * m), columnar(n * m);
  row.naive_ms = TimeMs(reps, [&] {
    for (size_t i = 0; i < n; ++i) {
      kernel.EvalRow(train[i], probes, by_row.data() + i * m);
    }
    g_sink += by_row[0];
  });
  row.fast_ms = TimeMs(reps, [&] {
    const MixedKernel::ProbeColumns cols = kernel.PackProbes(probes);
    MixedKernel::ColumnarScratch scratch;
    for (size_t i = 0; i < n; ++i) {
      kernel.EvalRowColumnar(train[i], cols, &scratch,
                             columnar.data() + i * m);
    }
    g_sink += columnar[0];
  });
  row.bit_identical = by_row == columnar;
  return row;
}

// A per-point Predict loop (the reference) against one PredictBatch call.
KernelRow BenchPredictBatch(const char* name, const Surrogate& s,
                            const std::vector<std::vector<double>>& probes,
                            int reps) {
  KernelRow row{name};
  std::vector<Prediction> loop(probes.size()), batch;
  row.naive_ms = TimeMs(reps, [&] {
    for (size_t j = 0; j < probes.size(); ++j) loop[j] = s.Predict(probes[j]);
    g_sink += loop[0].mean;
  });
  row.fast_ms = TimeMs(reps, [&] {
    batch = s.PredictBatch(probes);
    g_sink += batch[0].mean;
  });
  row.bit_identical = batch.size() == loop.size();
  for (size_t j = 0; row.bit_identical && j < loop.size(); ++j) {
    row.bit_identical = batch[j].mean == loop[j].mean &&
                        batch[j].variance == loop[j].variance;
  }
  return row;
}

void AddInferenceRows(size_t n, size_t m, int reps,
                      std::vector<KernelRow>* rows) {
  const std::vector<FeatureKind> schema = MixedSchema(6, 3);
  Rng rng(4242);
  const Dataset train = MakeDataset(schema, n, &rng);
  const auto probes = MakeMixedRows(schema, m, &rng);
  rows->push_back(BenchKernelBatch(schema, train.x, probes, reps));

  // Fixed hyperparameters: the rows isolate inference cost.
  GpOptions gp_opts;
  gp_opts.optimize_hypers = false;
  GaussianProcess gp(schema, gp_opts);
  MustOk(gp.Fit(train.x, train.y), "gp fit");
  rows->push_back(BenchPredictBatch("gp_predict", gp, probes, reps));

  std::vector<BaseSurrogate> bases;
  for (double similarity : {0.7, 0.4}) {
    const Dataset base_data =
        MakeDataset(schema, std::min<size_t>(n, 64), &rng);
    auto base_gp = std::make_shared<GaussianProcess>(schema, gp_opts);
    MustOk(base_gp->Fit(base_data.x, base_data.y), "base gp fit");
    BaseSurrogate base;
    base.model = base_gp;
    base.similarity = similarity;
    base.input_dims = schema.size();
    base.y_mean = 0.3;
    base.y_scale = 1.2;
    bases.push_back(std::move(base));
  }
  MetaEnsembleOptions meta_opts;
  meta_opts.gp = gp_opts;
  MetaEnsembleSurrogate meta(schema, std::move(bases), meta_opts);
  MustOk(meta.Fit(train.x, train.y), "meta fit");
  rows->push_back(BenchPredictBatch("meta_predict", meta, probes, reps));

  ForestOptions forest_opts;
  forest_opts.num_trees = 32;
  RandomForest forest(forest_opts);
  MustOk(forest.Fit(train.x, train.y), "forest fit");
  rows->push_back(BenchPredictBatch("forest_predict", forest, probes, reps));
}

// Times run(1) (the reference) against run(threads); the two must return
// bit-identical outputs.
template <typename F>
KernelRow BenchThreads(const char* name, int threads, int reps, F&& run) {
  KernelRow row{name};
  decltype(run(1)) serial, parallel;
  row.naive_ms = TimeMs(reps, [&] { serial = run(1); });
  row.fast_ms = TimeMs(reps, [&] { parallel = run(threads); });
  row.bit_identical = serial == parallel;
  return row;
}

TaskMetricSummary RandomSummary(Rng* rng) {
  TaskMetricSummary s;
  s.mean = rng->Uniform() * 10.0;
  s.stddev = rng->Uniform();
  s.min = s.mean * 0.5;
  s.max = s.mean * 2.0;
  s.p50 = s.mean;
  s.p90 = s.mean * 1.5;
  s.skewness = rng->Uniform();
  s.total = s.mean * 100.0;
  return s;
}

EventLog MakeLog(Rng* rng) {
  EventLog log;
  log.app_name = "bench";
  log.is_sql = rng->Bernoulli(0.3);
  log.data_size_gb = 1.0 + rng->Uniform() * 10.0;
  const int stages = 4 + static_cast<int>(rng->Uniform() * 8.0);
  for (int s = 0; s < stages; ++s) {
    StageLog st;
    st.name = "stage";
    st.op = s % 2 == 0 ? StageOp::kMap : StageOp::kReduceByKey;
    st.num_tasks = 16 + static_cast<int>(rng->Uniform() * 200.0);
    st.iterations = 1;
    st.duration_sec = rng->Uniform() * 60.0;
    st.input_mb = rng->Uniform() * 4096.0;
    st.output_mb = rng->Uniform() * 4096.0;
    st.shuffle_read_mb = rng->Uniform() * 1024.0;
    st.shuffle_write_mb = rng->Uniform() * 1024.0;
    st.spill_mb = rng->Uniform() * 128.0;
    st.task_duration_sec = RandomSummary(rng);
    st.task_gc_sec = RandomSummary(rng);
    st.task_shuffle_read_mb = RandomSummary(rng);
    st.task_shuffle_write_mb = RandomSummary(rng);
    st.task_spill_mb = RandomSummary(rng);
    st.task_cpu_fraction = RandomSummary(rng);
    st.task_io_fraction = RandomSummary(rng);
    log.stages.push_back(std::move(st));
  }
  return log;
}

void AddParallelRows(size_t num_logs, int threads, int reps,
                     std::vector<KernelRow>* rows) {
  Rng log_rng(9009);
  std::vector<EventLog> logs;
  logs.reserve(num_logs);
  for (size_t i = 0; i < num_logs; ++i) logs.push_back(MakeLog(&log_rng));
  rows->push_back(BenchThreads("meta_extract", threads, reps, [&](int nt) {
    std::vector<std::vector<double>> features(num_logs);
    ParallelFor(nt, num_logs, [&](size_t i) {
      features[i] = ExtractMetaFeatures(logs[i]);
    });
    return features;
  }));

  const std::vector<FeatureKind> spark = MixedSchema(28, 2);
  Rng rng(11);
  const Dataset gp_data = MakeDataset(spark, 60, &rng);
  const Dataset forest_data = MakeDataset(spark, 200, &rng);
  const Dataset fanova_data = MakeDataset(spark, 120, &rng);

  rows->push_back(BenchThreads("gp_fit", threads, reps, [&](int nt) {
    GpOptions opts;
    opts.num_threads = nt;
    GaussianProcess gp(spark, opts);
    MustOk(gp.Fit(gp_data.x, gp_data.y), "gp_fit");
    return std::vector<double>{gp.kernel_params().length_numeric,
                               gp.kernel_params().noise_variance,
                               gp.log_marginal_likelihood(),
                               gp.Predict(gp_data.x[0]).mean};
  }));

  rows->push_back(BenchThreads("forest_fit", threads, reps, [&](int nt) {
    ForestOptions opts;
    opts.num_trees = 64;
    opts.num_threads = nt;
    RandomForest rf(opts);
    MustOk(rf.Fit(forest_data.x, forest_data.y), "forest_fit");
    std::vector<double> out = rf.FeatureImportance();
    out.push_back(rf.Predict(forest_data.x[0]).mean);
    return out;
  }));

  rows->push_back(BenchThreads("fanova", threads, reps, [&](int nt) {
    FanovaOptions opts;
    opts.forest.num_threads = nt;
    auto r = Fanova::Analyze(fanova_data.x, fanova_data.y, opts);
    MustOk(r.status(), "fanova");
    std::vector<double> out = r->CombinedImportance();
    out.push_back(r->total_variance);
    return out;
  }));

  ConfigSpace space;
  for (size_t k = 0; k < spark.size(); ++k) {
    MustOk(space.Add(Parameter::Float("p" + std::to_string(k), 0.0, 1.0,
                                      0.5)),
           "config space");
  }
  GaussianProcess gp(spark, {});
  MustOk(gp.Fit(gp_data.x, gp_data.y), "acquisition gp fit");
  EicAcquisition acq(&gp, gp_data.y[0]);
  const Subspace full = Subspace::Full(&space);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  RunHistory history;
  Rng history_rng(7);
  for (int i = 0; i < 10; ++i) {
    Observation o;
    o.config = full.Sample(&history_rng);
    o.feasible = true;
    history.Add(o);
  }
  rows->push_back(BenchThreads("acq_maximize", threads, reps, [&](int nt) {
    AcqOptOptions opts;
    opts.num_candidates = 1024;
    opts.num_local_starts = 8;
    opts.local_steps = 32;
    opts.num_threads = nt;
    Rng acq_rng(42);
    AcqOptResult r = AcquisitionOptimizer(opts).Maximize(
        full, encode, acq, nullptr, nullptr, &history, &acq_rng);
    std::vector<double> out(r.config.values().begin(),
                            r.config.values().end());
    out.push_back(r.acq_value);
    return out;
  }));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool self_check = flags.Bool("self_check", false);
  // Self-check mode: ragged sizes (not multiples of the 48-wide panel or
  // the 8-wide register tile) exercise every remainder path; timings are
  // irrelevant, only the bit-equality verdicts gate.
  const size_t n =
      self_check ? 101 : static_cast<size_t>(flags.Int("n", 512));
  const size_t m = self_check ? 53 : static_cast<size_t>(flags.Int("m", 256));
  const size_t num_logs =
      self_check ? 17 : static_cast<size_t>(flags.Int("logs", 256));
  const int reps = self_check ? 1 : flags.Int("reps", 3);
  const int threads = flags.Threads(4);
  const std::string out_path = flags.Out("BENCH_kernels.json");
  if (!flags.Validate()) return 1;

  std::vector<KernelRow> rows;
  rows.push_back(BenchUpperSolve(n, m, threads, reps));
  rows.push_back(BenchSyrkFactor(n, threads, reps));
  AddInferenceRows(n, m, reps, &rows);
  AddParallelRows(num_logs, std::max(threads, 2), reps, &rows);

  std::printf("bench_kernels: n=%zu m=%zu logs=%zu threads=%d reps=%d\n\n",
              n, m, num_logs, threads, reps);
  std::printf("%-14s %12s %12s %9s %14s\n", "kernel", "naive_ms", "fast_ms",
              "speedup", "bit_identical");
  bool all_identical = true;
  for (const KernelRow& r : rows) {
    all_identical = all_identical && r.bit_identical;
    std::printf("%-14s %12.3f %12.3f %8.2fx %14s\n", r.name, r.naive_ms,
                r.fast_ms, r.speedup(), r.bit_identical ? "yes" : "NO");
  }
  std::printf("\n");

  Json doc = Json::Object();
  doc.Set("bench", Json::Str("kernels"));
  doc.Set("n", Json::Number(static_cast<double>(n)));
  doc.Set("m", Json::Number(static_cast<double>(m)));
  doc.Set("logs", Json::Number(static_cast<double>(num_logs)));
  doc.Set("threads", Json::Number(static_cast<double>(threads)));
  doc.Set("reps", Json::Number(static_cast<double>(reps)));
  doc.Set("self_check", Json::Bool(self_check));
  Json kernels = Json::Array();
  for (const KernelRow& r : rows) {
    Json k = Json::Object();
    k.Set("name", Json::Str(r.name));
    k.Set("naive_ms", Json::Number(r.naive_ms));
    k.Set("fast_ms", Json::Number(r.fast_ms));
    k.Set("speedup", Json::Number(r.speedup()));
    k.Set("bit_identical", Json::Bool(r.bit_identical));
    kernels.Append(std::move(k));
  }
  doc.Set("kernels", std::move(kernels));
  doc.Set("all_bit_identical", Json::Bool(all_identical));
  std::string dumped = doc.Dump();

  // Schema self-check: the emitted document must parse back and carry the
  // fields downstream tooling keys on; silent schema drift is a bench bug.
  auto parsed = Json::Parse(dumped);
  const char* required[] = {"kernels", "n", "threads", "all_bit_identical"};
  if (!parsed.ok() || !parsed->is_object()) {
    std::fprintf(stderr,
                 "BENCH_kernels.json self-check: emitted JSON does not "
                 "parse\n");
    return 1;
  }
  for (const char* field : required) {
    if (parsed->Get(field) == nullptr) {
      std::fprintf(stderr,
                   "BENCH_kernels.json self-check: missing field %s\n",
                   field);
      return 1;
    }
  }
  {
    std::ofstream out(out_path);
    out << dumped << "\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_kernels: BIT MISMATCH against the reference\n");
    return 1;
  }
  return 0;
}

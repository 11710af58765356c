// The micro-benchmark harness: every row times an optimized path against
// its reference and verifies the two outputs bit for bit — the
// determinism invariant is part of the benchmark contract, not a separate
// test. Three groups of rows, all single-threaded:
//
//   * linalg: the panelled upper solve and the register-tiled SYRK
//     factorization against their naive loops (upper_solve, syrk_factor);
//   * batched inference at --n training rows and --m probes, each
//     against per-pair MixedKernel::Eval: the kernel values from the
//     training rows conditioned on the span of random probes, where every
//     feature and the data size is free (kernel_batch); on the pool of one
//     sub-space search in the Spark space, the kernel values from the
//     training rows conditioned on the sub-space (ConditionedRows: the
//     free columns and the nonzero pinned terms only, one data-size factor
//     per row) against Eval over the pool's full features (kernel_pool);
//     and one PredictBatch call against a per-point Predict loop for the
//     GP, the meta ensemble and the random forest, with fixed GP
//     hyperparameters (gp_predict, meta_predict, forest_predict);
//   * acquisition scoring in the Spark space, over a sub-space with nine
//     free parameters: a runtime-constrained, safety-on maximization with
//     EicScorer against the scorer before it predicted from conditioned
//     rows, which encodes all 31 features of every candidate and walks
//     them for every training row (acq_score); and the same with nothing
//     safe against the safety hooks wired as the advisor wired them
//     before the candidate scorer, where the hooks score unsafety in a
//     second full pass and EicScorer reuses the screen's runtime bounds
//     (acq_fallback).
//
// Per-layer time on the real workloads comes from perfbench's traced run;
// this harness does the one job that cannot: fast path against reference,
// outputs compared bit for bit.
//
// Outputs a table and BENCH_kernels.json (schema self-checked before the
// write, like BENCH_fleet.json). Any bit mismatch exits 1.
//
// Flags: --n=N (matrix order / training rows, default 512), --m=N
// (right-hand-side columns / probe count, default 256), --reps=N (timing
// repetitions, best-of, default 3), --out=PATH, --self_check=1 (ragged
// sizes n=101, m=53, one rep — the CI mode). --n=512 --m=500 is the
// acquisition-pool shape of the batched-inference headline.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../tests/acquisition_reference.h"
#include "bench_util.h"
#include "bo/acq_optimizer.h"
#include "common/json.h"
#include "common/rng.h"
#include "forest/random_forest.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "meta/meta_surrogate.h"
#include "model/features.h"
#include "model/gp.h"
#include "model/kernel.h"
#include "sparksim/cluster.h"
#include "sparksim/spark_conf.h"

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

KernelRow BenchUpperSolve(size_t n, size_t m, int reps) {
  KernelRow row{"upper_solve"};
  Rng rng(2023);
  Matrix a = RandomSpd(n, &rng);
  auto chol = Cholesky::Factor(a);
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
    fast = chol->SolveUpperMatrix(y);
    g_sink += fast(0, 0);
  });
  row.bit_identical = BitEqual(naive, fast);
  return row;
}

KernelRow BenchSyrkFactor(size_t n, int reps) {
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
    auto chol = Cholesky::Factor(a);
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

// A smooth noisy target over the first six features and the last (the
// data size), so the fits have structure to find.
void AddTargets(Dataset* d, Rng* rng) {
  for (const auto& row : d->x) {
    double y = row.back();
    for (size_t f = 0; f < 6; ++f) y += std::sin(3.0 * row[f]);
    d->y.push_back(y + 0.05 * rng->Normal());
  }
}

// MakeMixedRows with AddTargets' target.
Dataset MakeDataset(const std::vector<FeatureKind>& schema, size_t count,
                    Rng* rng) {
  Dataset d;
  d.x = MakeMixedRows(schema, count, rng);
  AddTargets(&d, rng);
  return d;
}

// The Spark space's encoded inputs, as the advisor encodes them: random
// configurations, each with a random data size, and AddTargets' target.
Dataset SparkDataset(const ConfigSpace& space, size_t count, Rng* rng) {
  Dataset d;
  for (size_t i = 0; i < count; ++i) {
    const Configuration c = space.Sample(rng);
    d.x.push_back(EncodeFeatures(
        space, c, {NormalizeDataSize(rng->Uniform(1.0, 1000.0), 1024.0)}));
  }
  AddTargets(&d, rng);
  return d;
}

// A sub-space of the size bo_tuning searches (9.4 free parameters on
// average): the expert ranking's top nine free (resources, memory,
// parallelism, a codec and a flag), the other 21 pinned at `base`.
Subspace ExpertSubspace(const ConfigSpace* space, Configuration base) {
  const std::vector<std::string> ranking = ExpertParameterRanking();
  std::vector<int> free;
  for (size_t k = 0; k < 9; ++k) free.push_back(space->IndexOf(ranking[k]));
  return Subspace(space, std::move(free), std::move(base));
}

// The n x m kernel values of `train` against the training rows
// conditioned on `base` and `free`, the candidates' free features at
// cols[s * m + j]: the pool loop of the GP's conditioned PredictBatch,
// with per-candidate data-size factors when a data-size feature is free.
void ConditionedValues(const MixedKernel& kernel,
                       const std::vector<std::vector<double>>& train,
                       const FeatureSubspace& sub, const double* cols,
                       size_t m, double* out) {
  const ConditionedRows view(kernel, train, sub.base, sub.free);
  std::vector<double> num_d2(m), mismatches(m);
  std::vector<double> ds_d2(view.datasize_free() ? m : 0);
  double* ds = ds_d2.empty() ? nullptr : ds_d2.data();
  for (size_t i = 0; i < train.size(); ++i) {
    view.RowStats(i, cols, m, num_d2.data(), mismatches.data(), ds);
    kernel.EvalConditionedRow(
        num_d2.data(), mismatches.data(), ds, m,
        ds != nullptr ? 1.0 : kernel.DataSizeFactorOf(view.datasize_d2(i)),
        out + i * m);
  }
}

// The reference: out[i * m + j] = Eval(train[i], probes[j]).
void PairwiseValues(const MixedKernel& kernel,
                    const std::vector<std::vector<double>>& train,
                    const std::vector<std::vector<double>>& probes,
                    double* out) {
  const size_t m = probes.size();
  for (size_t i = 0; i < train.size(); ++i) {
    for (size_t j = 0; j < m; ++j) {
      out[i * m + j] = kernel.Eval(train[i], probes[j]);
    }
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (std::bit_cast<uint64_t>(a[t]) != std::bit_cast<uint64_t>(b[t])) {
      return false;
    }
  }
  return true;
}

// kernel_batch: random probes, every feature and the data size free. The
// training rows conditioned on the probes' span (fast) against per-pair
// Eval (reference).
KernelRow BenchKernelBatch(const std::vector<FeatureKind>& schema,
                           const std::vector<std::vector<double>>& train,
                           const std::vector<std::vector<double>>& probes,
                           int reps) {
  KernelRow row{"kernel_batch"};
  MixedKernel kernel(schema);
  const size_t n = train.size();
  const size_t m = probes.size();
  std::vector<double> pairwise(n * m), conditioned(n * m);
  row.naive_ms = TimeMs(reps, [&] {
    PairwiseValues(kernel, train, probes, pairwise.data());
    g_sink += pairwise[0];
  });
  row.fast_ms = TimeMs(reps, [&] {
    const ProbeSpan span = SpanOfProbes(probes);
    ConditionedValues(kernel, train, span.sub, span.cols.data(), m,
                      conditioned.data());
    g_sink += conditioned[0];
  });
  row.bit_identical = SameBits(pairwise, conditioned);
  return row;
}

// kernel_pool: the cross-kernel matrix of a sub-space pool by per-pair
// Eval over its full features (reference) and from the training rows
// conditioned on the sub-space (fast), both built from scratch per
// timing, as one search builds them.
KernelRow BenchKernelPool(const std::vector<FeatureKind>& schema,
                          const std::vector<std::vector<double>>& train,
                          const Subspace& sub,
                          const std::vector<double>& context,
                          const std::vector<Configuration>& pool, int reps) {
  KernelRow row{"kernel_pool"};
  MixedKernel kernel(schema);
  const size_t n = train.size();
  const size_t m = pool.size();
  const SubspaceEncoder encode(sub, context);
  const size_t k = encode.num_free();
  std::vector<double> full(n * m), conditioned(n * m);
  row.naive_ms = TimeMs(reps, [&] {
    std::vector<std::vector<double>> probes;
    probes.reserve(m);
    for (const Configuration& c : pool) {
      probes.push_back(EncodeFeatures(sub.space(), c, context));
    }
    PairwiseValues(kernel, train, probes, full.data());
    g_sink += full[0];
  });
  row.fast_ms = TimeMs(reps, [&] {
    std::vector<double> cols(k * m);
    for (size_t j = 0; j < m; ++j) encode(pool[j], cols.data() + j, m);
    ConditionedValues(kernel, train, encode.subspace(), cols.data(), m,
                      conditioned.data());
    g_sink += conditioned[0];
  });
  row.bit_identical = SameBits(full, conditioned);
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

  // kernel_pool: the probes of one sub-space search in the Spark space
  // (23 numeric and 7 categorical features in slot order, then the data
  // size). They share every pinned coordinate and the data size and vary
  // in the nine free ones. The reference is per-pair Eval over their full
  // features; the fast path conditions the training rows on the sub-space
  // once and streams each row's statistics over the free columns, as the
  // scorer's pool does.
  // Half the training rows come from the sub-space, as the history rows
  // that share the incumbent's pinned values do, so their pinned terms
  // are zero.
  const ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  const std::vector<FeatureKind> spark = BuildFeatureSchema(space, 1);
  Rng pool_rng(4343);
  const Subspace sub = ExpertSubspace(&space, space.Sample(&pool_rng));
  std::vector<std::vector<double>> pool_train;
  for (size_t i = 0; i < n; ++i) {
    const Configuration c =
        i % 2 == 0 ? sub.Sample(&pool_rng) : space.Sample(&pool_rng);
    pool_train.push_back(EncodeFeatures(
        space, c, {NormalizeDataSize(pool_rng.Uniform(1.0, 1000.0), 1024.0)}));
  }
  const std::vector<double> context = {NormalizeDataSize(200.0, 1024.0)};
  std::vector<Configuration> pool;
  for (size_t j = 0; j < m; ++j) pool.push_back(sub.Sample(&pool_rng));
  rows->push_back(BenchKernelPool(spark, pool_train, sub, context, pool, reps));

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

// acq_score and acq_fallback: the advisor's production shape. The default
// 579-candidate pool over ExpertSubspace in the Spark space, pinned at
// a history row, with the data size; GPs for the objective and the log
// runtime fitted on 60 encoded configurations; a 10-row history, half of
// it inside the sub-space. The fast path is EicScorer with the advisor's
// SubspaceEncoder. acq_score screens by the runtime bound at the median
// training value, against the scorer before conditioned rows
// (tests/acquisition_reference.h), which predicts from every candidate's
// full features. acq_fallback leaves nothing safe: a positive threshold
// under every upper bound, and an R(x) bound at the median resource rate
// of the sub-space. Its reference is the hook wiring, which encodes all
// 30 coordinates of every candidate and scores unsafety in a second full
// pass, while EicScorer reuses the screen's bounds and predicts only the
// candidates R(x) rejected.
KernelRow BenchAcquisition(const char* name, bool nothing_safe, int reps) {
  const ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  const std::vector<FeatureKind> spark = BuildFeatureSchema(space, 1);
  Rng rng(11);
  const Dataset gp_data = SparkDataset(space, 60, &rng);
  GaussianProcess gp(spark, {});
  MustOk(gp.Fit(gp_data.x, gp_data.y), "acquisition gp fit");
  std::vector<double> log_runtime;
  for (const auto& row : gp_data.x) {
    log_runtime.push_back(1.0 + row[0] + 0.5 * row[1] * row[2]);
  }
  GaussianProcess runtime(spark, {});
  MustOk(runtime.Fit(gp_data.x, log_runtime), "acquisition runtime gp fit");
  std::vector<double> sorted = log_runtime;
  std::sort(sorted.begin(), sorted.end());

  Rng history_rng(7);
  const Subspace sub = ExpertSubspace(&space, space.Sample(&history_rng));
  RunHistory history;
  for (int i = 0; i < 10; ++i) {
    Observation o;
    o.config = i % 2 == 0 ? sub.Sample(&history_rng)
                          : space.Sample(&history_rng);
    o.objective = history_rng.Uniform();
    o.feasible = true;
    history.Add(o);
  }
  const std::vector<double> context = {NormalizeDataSize(200.0, 1024.0)};
  auto encode = [&](const Configuration& c) {
    return EncodeFeatures(space, c, context);
  };

  EicScorerOptions safe;
  safe.objective = &gp;
  safe.incumbent = *std::min_element(gp_data.y.begin(), gp_data.y.end());
  safe.runtime = {&runtime, nothing_safe ? 0.5 : sorted[sorted.size() / 2]};
  safe.safety = true;
  if (nothing_safe) {
    safe.resource_fn = [&space](const Configuration& c) {
      return ResourceFunction(DecodeSparkConf(space, c));
    };
    std::vector<double> rates;
    Rng rate_rng(13);
    for (int i = 0; i < 101; ++i) {
      rates.push_back(safe.resource_fn(sub.Sample(&rate_rng)));
    }
    std::sort(rates.begin(), rates.end());
    safe.resource_max = rates[rates.size() / 2];
  }
  const AcquisitionOptimizer optimizer;
  KernelRow row{name};
  AcqOptResult hooks, scored;
  row.naive_ms = TimeMs(reps, [&] {
    Rng acq_rng(42);
    if (nothing_safe) {
      hooks = reference::MaximizeWithHooks(optimizer, sub, encode, safe,
                                           &history, &acq_rng);
    } else {
      const reference::FullFeatureScorer before(encode, safe);
      hooks = optimizer.Maximize(sub, before, &history, &acq_rng);
    }
  });
  row.fast_ms = TimeMs(reps, [&] {
    Rng acq_rng(42);
    const EicScorer scorer(SubspaceEncoder(sub, context), safe);
    scored = optimizer.Maximize(sub, scorer, &history, &acq_rng);
  });
  if (scored.safe_fallback_used != nothing_safe) {
    std::fprintf(stderr, "bench_kernels: %s: the fallback %s\n", name,
                 nothing_safe ? "did not run" : "ran");
    std::exit(1);
  }
  row.bit_identical = hooks.config == scored.config &&
                      hooks.acq_value == scored.acq_value &&
                      hooks.raw_ei == scored.raw_ei &&
                      hooks.safe_fallback_used == scored.safe_fallback_used;
  return row;
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
  const int reps = self_check ? 1 : flags.Int("reps", 3);
  const std::string out_path = flags.Out("BENCH_kernels.json");
  if (!flags.Validate()) return 1;

  std::vector<KernelRow> rows;
  rows.push_back(BenchUpperSolve(n, m, reps));
  rows.push_back(BenchSyrkFactor(n, reps));
  AddInferenceRows(n, m, reps, &rows);
  rows.push_back(BenchAcquisition("acq_score", false, reps));
  rows.push_back(BenchAcquisition("acq_fallback", true, reps));

  std::printf("bench_kernels: n=%zu m=%zu reps=%d\n\n", n, m, reps);
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
  const char* required[] = {"kernels", "n", "all_bit_identical"};
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

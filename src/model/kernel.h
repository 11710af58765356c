// Mixed GP kernel over Spark configurations (paper §3.3): Matérn-5/2 on
// numeric parameters, Hamming on categorical/boolean parameters, squared
// exponential on the data-size feature. All features are expected in
// normalized [0,1] coordinates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sparktune {

enum class FeatureKind { kNumeric, kCategorical, kDataSize };

// Hyperparameters of the mixed kernel. Lengthscales are shared per feature
// group, which is far more sample-efficient than full ARD at the 10-50
// observation counts online tuning sees.
struct KernelParams {
  double signal_variance = 1.0;
  double length_numeric = 0.5;
  double length_datasize = 0.5;
  double hamming_weight = 1.0;  // lambda in exp(-lambda * mismatch fraction)
  double noise_variance = 1e-3;
};

// Hyperparameter-independent distance statistics of one feature pair. The
// kernel value for ANY KernelParams can be recovered from them, so a GP fit
// computes them once per observation pair and sweeps hyperparameters in
// O(n^2) per grid point instead of O(n^2 d).
struct KernelPairStats {
  double numeric_dist = 0.0;  // sqrt(sum of squared numeric diffs)
  double mismatches = 0.0;    // categorical mismatch count (exact integer)
  double datasize_d2 = 0.0;   // squared data-size distance
};

// k(a, b) = signal_variance * numeric * categorical * datasize, where the
// three factors are NumericFactor, CategoricalFactor and DataSizeFactor of
// the pair's statistics and a kind the schema lacks contributes no factor.
// Every evaluation path — Eval, EvalRow, EvalRowColumnar, EvalStats,
// EvalConditioned(Row) and FactorTables — multiplies them in that order,
// so all agree bit for bit.
//
// For finite inputs and finite positive hyperparameters, k(x, x) is exactly
// signal_variance: each factor is exactly 1 at distance 0.
class MixedKernel {
 public:
  // One kind's probe values, feature-major: the f-th feature of the kind
  // for probe j is at values[f * count + j], so a batch evaluation streams
  // unit-stride columns instead of gathering one strided value per probe
  // row. shared[f] is 1 when every probe holds the same value (==) in
  // column f; the squared and absolute differences a column feeds do not
  // see the sign of a zero, so -0.0 and 0.0 count as one value.
  struct KindColumns {
    std::vector<double> values;
    std::vector<char> shared;
  };

  // Probe set repacked by kind for EvalRowColumnar.
  struct ProbeColumns {
    size_t count = 0;  // number of probes packed
    KindColumns numeric;
    KindColumns categorical;
    KindColumns datasize;
  };

  // Per-probe accumulators for EvalRowColumnar, hoisted out so callers
  // reuse the buffers across rows.
  struct ColumnarScratch {
    std::vector<double> num_d2;
    std::vector<double> mismatches;
    std::vector<double> ds_d2;
  };

  // Kernel values over one fixed set of pair statistics under many
  // KernelParams, as the GP hyperparameter sweep needs them. Each factor
  // is computed once per distinct hyperparameter value met: per pair for
  // the Matérn and data-size factors, per mismatch count for the Hamming
  // one. A value is then signal_variance times lookups, multiplied in the
  // kernel's order, so Values(p, out) writes EvalStats(pairs[i], p) to
  // out[i] bit for bit. Each distinct lengthscale costs 8 bytes per pair.
  // `kernel` must outlive the tables.
  class FactorTables {
   public:
    FactorTables(const MixedKernel* kernel,
                 std::vector<KernelPairStats> pairs);

    size_t num_pairs() const { return pairs_.size(); }
    // out[i] = EvalStats(pairs[i], p) for every pair. Builds the table of
    // any hyperparameter value not seen before.
    void Values(const KernelParams& p, double* out);

   private:
    struct Table {
      double value;
      std::vector<double> factors;
    };
    // The factors for `value`, built by fill(value, factors) on first use.
    template <typename Fill>
    static const double* Lookup(std::vector<Table>* tables, double value,
                                size_t size, Fill fill);

    const MixedKernel* kernel_;
    std::vector<KernelPairStats> pairs_;
    std::vector<Table> numeric_;      // per length_numeric, one per pair
    std::vector<Table> categorical_;  // per hamming_weight, one per count
    std::vector<Table> datasize_;     // per length_datasize, one per pair
  };

  explicit MixedKernel(std::vector<FeatureKind> schema,
                       KernelParams params = {});

  const std::vector<FeatureKind>& schema() const { return schema_; }
  const KernelParams& params() const { return params_; }
  void set_params(const KernelParams& p);

  // k(a, b) without the noise term.
  double Eval(const std::vector<double>& a, const std::vector<double>& b) const;

  // One cross-kernel row in a single pass: out[j] = Eval(a, bs[j]) for all
  // j, bit-for-bit.
  void EvalRow(const std::vector<double>& a,
               const std::vector<std::vector<double>>& bs, double* out) const;

  // Repack probes by kind for EvalRowColumnar and mark their shared
  // columns. The scan of a column stops at its first differing probe.
  ProbeColumns PackProbes(const std::vector<std::vector<double>>& bs) const;
  // Columnar EvalRow: with cols == PackProbes(bs), writes exactly
  // EvalRow(a, bs, out) bit-for-bit. The feature loop runs outermost and
  // probes innermost, and each probe still receives its per-kind terms in
  // ascending feature order, the same summation order as the
  // row-at-a-time Stats walk. A shared column's term is computed once and
  // added to every probe at its place in that order; when every column of
  // a kind is shared, that kind's factor is computed once for the row.
  // Reads no mutable kernel state; `scratch` must be exclusive to the
  // caller.
  void EvalRowColumnar(const std::vector<double>& a, const ProbeColumns& cols,
                       ColumnarScratch* scratch, double* out) const;

  // Pairwise statistics of (a, b); Eval(a, b) == EvalStats(Stats(a, b),
  // params()) bit-for-bit.
  KernelPairStats Stats(const std::vector<double>& a,
                        const std::vector<double>& b) const;
  // k(a, b) from cached statistics under explicit hyperparameters. Reads no
  // mutable kernel state, so `p` need not be params().
  // lint:allow(test-only-function) the reference kernel tests compare to
  double EvalStats(const KernelPairStats& s, const KernelParams& p) const;

  // The data-size factor Eval multiplies in for a pair at squared
  // data-size distance `datasize_d2`, under params(); 1 when the schema
  // has no data-size feature. A sub-space search computes it once per
  // training row (ConditionedRows::datasize_d2).
  double DataSizeFactorOf(double datasize_d2) const;
  // k(a, b) from the pair's statistics and its data-size factor
  // DataSizeFactorOf(s.datasize_d2), multiplied in Eval's order: equal to
  // Eval(a, b) bit for bit.
  double EvalConditioned(const KernelPairStats& s,
                         double datasize_factor) const;
  // EvalConditioned for one training row against m candidates, from
  // ConditionedRows::RowStats' output: out[j] is the value for
  // numeric_dist = sqrt(num_d2[j]) and mismatches[j].
  void EvalConditionedRow(const double* num_d2, const double* mismatches,
                          size_t m, double datasize_factor,
                          double* out) const;

  // Matérn-5/2 correlation for scaled distance r >= 0.
  static double Matern52(double r);

 private:
  // The three factors of k(a, b), from the pair's statistics.
  // Matern52(numeric_dist / length).
  static double NumericFactor(double numeric_dist, double length);
  // exp(-weight * mismatches / number of categorical features).
  double CategoricalFactor(double mismatches, double weight) const;
  // exp(-0.5 * datasize_d2 / length^2).
  static double DataSizeFactor(double datasize_d2, double length);

  // k(a, b) under params_, taking the categorical factor from the cached
  // hamming table instead of calling exp. Bit-identical to
  // EvalStats(s, params_): every table entry is CategoricalFactor at a
  // discrete mismatch count.
  double EvalStatsCached(const KernelPairStats& s) const;
  void RebuildHammingTable();

  std::vector<FeatureKind> schema_;
  KernelParams params_;
  int num_numeric_ = 0;
  int num_categorical_ = 0;
  int num_datasize_ = 0;
  // Feature indices by kind: each kind accumulates its own statistic in
  // ascending feature order, exactly like the interleaved schema walk, so
  // the split loops are bit-identical but branch-free.
  std::vector<size_t> numeric_idx_;
  std::vector<size_t> categorical_idx_;
  std::vector<size_t> datasize_idx_;
  // hamming_table_[c] = CategoricalFactor(c, hamming_weight): the mismatch
  // count is discrete, so the categorical exp of Eval/EvalRow is a table
  // lookup.
  std::vector<double> hamming_table_;
};

// A GP's training rows conditioned on one searched sub-space. Every
// candidate of the search is the base's features (context included) with
// its free features overwritten, so a row's terms in the pinned features
// are the same for every candidate. Built once per search from the rows,
// the base's features and the ascending indices of the free features, the
// view yields each row's KernelPairStats from a candidate's k free
// features alone, equal to MixedKernel::Stats(row, candidate) bit for bit.
// Per row it keeps:
//   * numeric: the sum of the pinned terms before the first free numeric
//     feature (Stats' own partial sum), then the row's free numeric values
//     and its nonzero pinned terms (x - base)^2, in ascending feature
//     order. A skipped term is exactly +0.0 added to a sum >= +0.0: every
//     term is a square and the sum starts at +0.0, so the sum keeps its
//     bits, whatever the sign of the zeros that made the term;
//   * categorical: the pinned mismatch count. Counts are exact integers,
//     so adding the free mismatches to it gives Stats' count;
//   * data size: the squared distance itself. Data-size features are the
//     context, which a sub-space never frees.
// The view keeps a pointer to `rows`, which must outlive it.
class ConditionedRows {
 public:
  ConditionedRows(const MixedKernel& kernel,
                  const std::vector<std::vector<double>>& rows,
                  std::span<const double> base, std::span<const size_t> free);

  size_t size() const { return lead_.size(); }

  // True when the view was built from rows equal to `rows` under `schema`,
  // so a model fit on them may read its statistics.
  bool Conditions(const std::vector<FeatureKind>& schema,
                  const std::vector<std::vector<double>>& rows) const;

  // out[i] = Stats(rows[i], candidate) for every row; `free` holds the
  // candidate's free features in the order of the view's `free`.
  void Stats(const double* free, KernelPairStats* out) const;
  // Row i against m candidates whose free feature s is cols[s * m + j]:
  // num_d2[j] is the squared numeric distance (numeric_dist is its sqrt)
  // and mismatches[j] the mismatch count of Stats(rows[i], candidate j).
  // The loops run over the free columns and the row's nonzero pinned
  // terms, candidates innermost.
  void RowStats(size_t i, const double* cols, size_t m, double* num_d2,
                double* mismatches) const;
  double datasize_d2(size_t i) const { return datasize_d2_[i]; }

 private:
  std::vector<FeatureKind> schema_;
  const std::vector<std::vector<double>>* rows_;
  // Positions in a candidate's free features of the numeric and the
  // categorical ones, ascending.
  std::vector<size_t> free_numeric_;
  std::vector<size_t> free_categorical_;
  // Per row.
  std::vector<double> lead_;
  std::vector<double> mismatches_;
  std::vector<double> datasize_d2_;
  // Row i's value of free numeric feature s at [i * kn + s], of free
  // categorical feature s at [i * kc + s].
  std::vector<double> numeric_values_;
  std::vector<double> categorical_values_;
  // The nonzero pinned terms after each free numeric feature: row i's
  // terms between free numeric features s and s + 1 (or the last feature)
  // end at terms_[segment_end_[i * kn + s]] and start where the previous
  // segment ends (0 for the first).
  std::vector<double> terms_;
  std::vector<uint32_t> segment_end_;
};

}  // namespace sparktune

// Mixed GP kernel over Spark configurations (paper §3.3): Matérn-5/2 on
// numeric parameters, Hamming on categorical/boolean parameters, squared
// exponential on the data-size feature. All features are expected in
// normalized [0,1] coordinates.
#pragma once

#include <cassert>
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
// Every evaluation path multiplies them in that order, so all agree bit
// for bit: Eval (a GP's per-point Predict), EvalConditioned(Row) from
// ConditionedRows (every batch and every sub-space search), FactorTables
// (the hyperparameter sweep) and EvalStats (their reference).
//
// For finite inputs and finite positive hyperparameters, k(x, x) is exactly
// signal_variance: each factor is exactly 1 at distance 0.
class MixedKernel {
 public:
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
  // has no data-size feature. A sub-space search, which pins the data
  // size, computes it once per training row (ConditionedRows::datasize_d2).
  double DataSizeFactorOf(double datasize_d2) const;
  // k(a, b) from the pair's statistics and its data-size factor
  // DataSizeFactorOf(s.datasize_d2), multiplied in Eval's order: equal to
  // Eval(a, b) bit for bit.
  double EvalConditioned(const KernelPairStats& s,
                         double datasize_factor) const;
  // EvalConditioned for one training row against m candidates, from
  // ConditionedRows::RowStats' output: out[j] is the value for
  // numeric_dist = sqrt(num_d2[j]) and mismatches[j]. With a free
  // data-size feature, ds_d2[j] is candidate j's squared data-size
  // distance and its factor is computed per candidate; otherwise ds_d2 is
  // null and every candidate takes the row's `datasize_factor`.
  void EvalConditionedRow(const double* num_d2, const double* mismatches,
                          const double* ds_d2, size_t m,
                          double datasize_factor, double* out) const;

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
  // count is discrete, so the categorical exp of Eval is a table lookup.
  std::vector<double> hamming_table_;
};

// A GP's training rows conditioned on one sub-space: a searched one, or
// the one a probe set spans (SpanOfProbes). Every candidate is the base's
// features with its free features overwritten, so a row's terms in the
// pinned features are the same for every candidate. Built from the rows,
// the base's features and the ascending indices of the free features, the
// view yields each row's KernelPairStats from a candidate's free features
// alone, equal to MixedKernel::Stats(row, candidate) bit for bit. Per row
// it keeps:
//   * numeric and data size, the squared-distance kinds: the sum of the
//     kind's pinned terms before its first free feature (Stats' own
//     partial sum), then the row's free values and its nonzero pinned
//     terms (x - base)^2, in ascending feature order. A skipped term is
//     exactly +0.0 added to a sum >= +0.0: every term is a square and the
//     sum starts at +0.0, so the sum keeps its bits, whatever the sign of
//     the zeros that made the term;
//   * categorical: the pinned mismatch count. Counts are exact integers,
//     so adding the free mismatches to it gives Stats' count.
// A sub-space search pins the context, so its data-size distance is one
// number per row (datasize_d2); only a probe span frees it.
// The view keeps a pointer to `rows`, which must outlive it.
class ConditionedRows {
 public:
  ConditionedRows(const MixedKernel& kernel,
                  const std::vector<std::vector<double>>& rows,
                  std::span<const double> base, std::span<const size_t> free);

  size_t size() const { return numeric_.lead.size(); }

  // True when the view was built from rows equal to `rows` under `schema`,
  // so a model fit on them may read its statistics.
  bool Conditions(const std::vector<FeatureKind>& schema,
                  const std::vector<std::vector<double>>& rows) const;

  // True when a data-size feature is free, so the data-size distance
  // varies with the candidate.
  bool datasize_free() const { return !datasize_.free.empty(); }

  // out[i] = Stats(rows[i], candidate) for every row; `free` holds the
  // candidate's free features in the order of the view's `free`.
  void Stats(const double* free, KernelPairStats* out) const;
  // Row i against m candidates whose free feature s is cols[s * m + j]:
  // num_d2[j] is the squared numeric distance (numeric_dist is its sqrt)
  // and mismatches[j] the mismatch count of Stats(rows[i], candidate j);
  // ds_d2[j] is its datasize_d2 when datasize_free(), and ds_d2 is not
  // written (and may be null) otherwise. The loops run over the free
  // columns and the row's nonzero pinned terms, candidates innermost.
  void RowStats(size_t i, const double* cols, size_t m, double* num_d2,
                double* mismatches, double* ds_d2) const;
  // Row i's squared data-size distance to every candidate, when no
  // data-size feature is free.
  double datasize_d2(size_t i) const {
    assert(!datasize_free());
    return datasize_.lead[i];
  }

 private:
  // One squared-distance kind of every row.
  struct SquaredTerms {
    // Positions in a candidate's free features of the kind's free
    // features, ascending.
    std::vector<size_t> free;
    // Per row: the sum of the pinned terms before the first free feature
    // (all of them when none is free).
    std::vector<double> lead;
    // Row i's value of free feature s at [i * k + s].
    std::vector<double> values;
    // The nonzero pinned terms after each free feature: row i's terms
    // between free features s and s + 1 (or the last feature) end at
    // terms[segment_end[i * k + s]] and start where the previous segment
    // ends (0 for the first).
    std::vector<double> terms;
    std::vector<uint32_t> segment_end;

    // Sizes the per-row arrays for n rows.
    void Resize(size_t n);
    // Adds row i's feature value x to the row's terms in feature order:
    // free, or pinned at b. *met counts the kind's free features the row
    // has met so far.
    void Add(size_t i, double x, double b, bool is_free, size_t* met);
    // Closes row i's last segment.
    void EndRow(size_t i);
    // Row i's squared distance to each of m candidates, as RowStats.
    void Row(size_t i, const double* cols, size_t m,
             double* __restrict out) const;
  };

  std::vector<FeatureKind> schema_;
  const std::vector<std::vector<double>>* rows_;
  SquaredTerms numeric_;
  SquaredTerms datasize_;
  // Positions in a candidate's free features of the categorical ones,
  // ascending; per row the pinned mismatch count, and row i's value of
  // free categorical feature s at [i * kc + s].
  std::vector<size_t> free_categorical_;
  std::vector<double> mismatches_;
  std::vector<double> categorical_values_;
};

}  // namespace sparktune

// Mixed GP kernel over Spark configurations (paper §3.3): Matérn-5/2 on
// numeric parameters, Hamming on categorical/boolean parameters, squared
// exponential on the data-size feature. All features are expected in
// normalized [0,1] coordinates.
#pragma once

#include <cstddef>
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
  double hamming_weight = 1.0;  // lambda in exp(-lambda * mismatch_frac)
  double noise_variance = 1e-3;
};

// Hyperparameter-independent distance statistics of one feature pair. The
// kernel value for ANY KernelParams can be recovered from them, so a GP fit
// computes them once per observation pair and sweeps hyperparameters in
// O(n^2) per grid point instead of O(n^2 d).
struct KernelPairStats {
  double numeric_dist = 0.0;   // sqrt(sum of squared numeric diffs)
  double mismatch_frac = 0.0;  // categorical mismatch fraction
  double mismatches = 0.0;     // categorical mismatch count (exact integer)
  double datasize_d2 = 0.0;    // squared data-size distance
};

class MixedKernel {
 public:
  // Probe set repacked feature-major by kind for EvalRowColumnar: all
  // probe values of one feature sit contiguously (value of the f-th
  // feature of a kind for probe j is at [f * count + j]), so a batch
  // evaluation streams unit-stride columns instead of gathering one
  // strided value per probe row.
  struct ProbeColumns {
    size_t count = 0;                 // number of probes packed
    std::vector<double> numeric;      // numeric_idx_.size() x count
    std::vector<double> categorical;  // categorical_idx_.size() x count
    std::vector<double> datasize;     // datasize_idx_.size() x count
  };

  // Per-probe accumulators for EvalRowColumnar, hoisted out so callers
  // reuse the buffers across rows.
  struct ColumnarScratch {
    std::vector<double> num_d2;
    std::vector<double> mismatches;
    std::vector<double> ds_d2;
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

  // Repack probes feature-major for EvalRowColumnar (a pure copy).
  ProbeColumns PackProbes(const std::vector<std::vector<double>>& bs) const;
  // Columnar EvalRow: with cols == PackProbes(bs), writes exactly
  // EvalRow(a, bs, out) bit-for-bit. The feature loop runs outermost and
  // probes innermost, but each probe still receives its per-kind terms in
  // ascending feature order — the same per-element summation order as the
  // row-at-a-time Stats walk — and the finishing pass replicates
  // EvalStatsCached's op sequence per probe. Reads no mutable kernel
  // state; `scratch` must be exclusive to the caller.
  void EvalRowColumnar(const std::vector<double>& a, const ProbeColumns& cols,
                       ColumnarScratch* scratch, double* out) const;

  // Pairwise statistics of (a, b); Eval(a, b) == EvalStats(Stats(a, b),
  // params()) bit-for-bit.
  KernelPairStats Stats(const std::vector<double>& a,
                        const std::vector<double>& b) const;
  // k(a, b) from cached statistics under explicit hyperparameters. Reads no
  // mutable kernel state, so `p` need not be params().
  double EvalStats(const KernelPairStats& s, const KernelParams& p) const;

  // Matérn-5/2 correlation for scaled distance r >= 0.
  static double Matern52(double r);

 private:
  // k(a, b) under params_, taking the categorical factor from the cached
  // hamming table instead of calling exp. Bit-identical to
  // EvalStats(s, params_): every table entry was computed by that exact
  // expression at a discrete mismatch count.
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
  // hamming_table_[c] = exp(-hamming_weight * c / num_categorical_): the
  // mismatch count is discrete, so the categorical exp of Eval/EvalRow is a
  // table lookup.
  std::vector<double> hamming_table_;
};

}  // namespace sparktune

#include "model/kernel.h"

#include <cassert>
#include <cmath>

namespace sparktune {

namespace {

// Marks each column of a feature-major kind whose probes all hold one
// value. The scan of a column stops at its first differing probe, so a
// column that varies costs O(1) in the common case.
void MarkShared(size_t m, MixedKernel::KindColumns* kind) {
  for (size_t f = 0; f < kind->shared.size(); ++f) {
    const double* col = kind->values.data() + f * m;
    size_t j = 1;
    while (j < m && col[j] == col[0]) ++j;
    kind->shared[f] = j >= m;
  }
}

// Per probe, the sum over the kind's features of (a_f - b_f)^2, added in
// ascending feature order exactly as Stats adds it. A shared column's term
// is computed once and added to every probe at its place in that order,
// and the leading run of shared columns is one scalar sum. Returns true
// with that sum in *uniform when every column is shared; otherwise fills
// acc[0, m).
bool SquaredDistances(const std::vector<double>& a,
                      const std::vector<size_t>& idx,
                      const MixedKernel::KindColumns& cols, size_t m,
                      double* __restrict acc, double* uniform) {
  double lead = 0.0;
  size_t f = 0;
  for (; f < idx.size() && cols.shared[f]; ++f) {
    const double diff = a[idx[f]] - cols.values[f * m];
    lead += diff * diff;
  }
  if (f == idx.size()) {
    *uniform = lead;
    return true;
  }
  {
    const double av = a[idx[f]];
    const double* __restrict col = cols.values.data() + f * m;
    for (size_t j = 0; j < m; ++j) {
      const double diff = av - col[j];
      acc[j] = lead + diff * diff;
    }
  }
  for (++f; f < idx.size(); ++f) {
    const double av = a[idx[f]];
    const double* __restrict col = cols.values.data() + f * m;
    if (cols.shared[f]) {
      const double diff = av - col[0];
      const double term = diff * diff;
      for (size_t j = 0; j < m; ++j) acc[j] += term;
    } else {
      for (size_t j = 0; j < m; ++j) {
        const double diff = av - col[j];
        acc[j] += diff * diff;
      }
    }
  }
  return false;
}

// Per probe, the number of categorical features where a and the probe
// differ. Counts are exact small integers, so their order does not matter:
// the shared columns' count is one scalar that seeds every probe.
// Returns true with the count in *uniform when every column is shared;
// otherwise fills acc[0, m).
bool Mismatches(const std::vector<double>& a, const std::vector<size_t>& idx,
                const MixedKernel::KindColumns& cols, size_t m,
                double* __restrict acc, double* uniform) {
  double shared = 0.0;
  bool all_shared = true;
  for (size_t f = 0; f < idx.size(); ++f) {
    if (!cols.shared[f]) {
      all_shared = false;
      continue;
    }
    shared += std::fabs(a[idx[f]] - cols.values[f * m]) > 1e-12 ? 1.0 : 0.0;
  }
  if (all_shared) {
    *uniform = shared;
    return true;
  }
  for (size_t j = 0; j < m; ++j) acc[j] = shared;
  for (size_t f = 0; f < idx.size(); ++f) {
    if (cols.shared[f]) continue;
    const double av = a[idx[f]];
    const double* __restrict col = cols.values.data() + f * m;
    for (size_t j = 0; j < m; ++j) {
      acc[j] += std::fabs(av - col[j]) > 1e-12 ? 1.0 : 0.0;
    }
  }
  return false;
}

}  // namespace

MixedKernel::MixedKernel(std::vector<FeatureKind> schema, KernelParams params)
    : schema_(std::move(schema)), params_(params) {
  for (size_t i = 0; i < schema_.size(); ++i) {
    switch (schema_[i]) {
      case FeatureKind::kNumeric:
        ++num_numeric_;
        numeric_idx_.push_back(i);
        break;
      case FeatureKind::kCategorical:
        ++num_categorical_;
        categorical_idx_.push_back(i);
        break;
      case FeatureKind::kDataSize:
        ++num_datasize_;
        datasize_idx_.push_back(i);
        break;
    }
  }
  RebuildHammingTable();
}

void MixedKernel::set_params(const KernelParams& p) {
  params_ = p;
  RebuildHammingTable();
}

void MixedKernel::RebuildHammingTable() {
  hamming_table_.resize(static_cast<size_t>(num_categorical_) + 1);
  for (int c = 0; c <= num_categorical_; ++c) {
    hamming_table_[static_cast<size_t>(c)] =
        CategoricalFactor(static_cast<double>(c), params_.hamming_weight);
  }
}

double MixedKernel::Matern52(double r) {
  static const double kSqrt5 = std::sqrt(5.0);
  double s = kSqrt5 * r;
  return (1.0 + s + s * s / 3.0) * std::exp(-s);
}

double MixedKernel::NumericFactor(double numeric_dist, double length) {
  return Matern52(numeric_dist / length);
}

double MixedKernel::CategoricalFactor(double mismatches, double weight) const {
  double frac = num_categorical_ > 0
                    ? mismatches / static_cast<double>(num_categorical_)
                    : 0.0;
  return std::exp(-weight * frac);
}

double MixedKernel::DataSizeFactor(double datasize_d2, double length) {
  return std::exp(-0.5 * datasize_d2 / (length * length));
}

KernelPairStats MixedKernel::Stats(const std::vector<double>& a,
                                   const std::vector<double>& b) const {
  assert(a.size() == schema_.size() && b.size() == schema_.size());
  // Each kind accumulates its own statistic, and the per-kind index lists
  // are ascending, so these branch-free loops add terms in the same order
  // as a single interleaved walk of the schema — bit-identical, faster.
  double num_d2 = 0.0;
  for (size_t i : numeric_idx_) {
    double diff = a[i] - b[i];
    num_d2 += diff * diff;
  }
  double mismatches = 0.0;
  for (size_t i : categorical_idx_) {
    if (std::fabs(a[i] - b[i]) > 1e-12) mismatches += 1.0;
  }
  double ds_d2 = 0.0;
  for (size_t i : datasize_idx_) {
    double diff = a[i] - b[i];
    ds_d2 += diff * diff;
  }
  KernelPairStats s;
  s.numeric_dist = std::sqrt(num_d2);
  s.mismatches = mismatches;
  s.datasize_d2 = ds_d2;
  return s;
}

double MixedKernel::EvalStats(const KernelPairStats& s,
                              const KernelParams& p) const {
  double k = p.signal_variance;
  if (num_numeric_ > 0) k *= NumericFactor(s.numeric_dist, p.length_numeric);
  if (num_categorical_ > 0) {
    k *= CategoricalFactor(s.mismatches, p.hamming_weight);
  }
  if (num_datasize_ > 0) {
    k *= DataSizeFactor(s.datasize_d2, p.length_datasize);
  }
  return k;
}

double MixedKernel::EvalStatsCached(const KernelPairStats& s) const {
  return EvalConditioned(s, DataSizeFactorOf(s.datasize_d2));
}

double MixedKernel::DataSizeFactorOf(double datasize_d2) const {
  return num_datasize_ > 0
             ? DataSizeFactor(datasize_d2, params_.length_datasize)
             : 1.0;
}

double MixedKernel::EvalConditioned(const KernelPairStats& s,
                                    double datasize_factor) const {
  double k = params_.signal_variance;
  if (num_numeric_ > 0) {
    k *= NumericFactor(s.numeric_dist, params_.length_numeric);
  }
  if (num_categorical_ > 0) {
    // s.mismatches is an exact integer count, so the cast is lossless and
    // the lookup returns the very exp EvalStats would have computed.
    k *= hamming_table_[static_cast<size_t>(s.mismatches)];
  }
  if (num_datasize_ > 0) k *= datasize_factor;
  return k;
}

void MixedKernel::EvalConditionedRow(const double* num_d2,
                                     const double* mismatches, size_t m,
                                     double datasize_factor,
                                     double* out) const {
  // EvalConditioned's products for every candidate, one factor kind per
  // pass: per candidate the same multiplies in the same order.
  const double sv = params_.signal_variance;
  if (num_numeric_ > 0) {
    const double ln = params_.length_numeric;
    for (size_t j = 0; j < m; ++j) {
      out[j] = sv * NumericFactor(std::sqrt(num_d2[j]), ln);
    }
  } else {
    for (size_t j = 0; j < m; ++j) out[j] = sv;
  }
  if (num_categorical_ > 0) {
    const double* table = hamming_table_.data();
    for (size_t j = 0; j < m; ++j) {
      out[j] *= table[static_cast<size_t>(mismatches[j])];
    }
  }
  if (num_datasize_ > 0) {
    for (size_t j = 0; j < m; ++j) out[j] *= datasize_factor;
  }
}

double MixedKernel::Eval(const std::vector<double>& a,
                         const std::vector<double>& b) const {
  return EvalStatsCached(Stats(a, b));
}

void MixedKernel::EvalRow(const std::vector<double>& a,
                          const std::vector<std::vector<double>>& bs,
                          double* out) const {
  for (size_t j = 0; j < bs.size(); ++j) {
    out[j] = EvalStatsCached(Stats(a, bs[j]));
  }
}

MixedKernel::ProbeColumns MixedKernel::PackProbes(
    const std::vector<std::vector<double>>& bs) const {
  ProbeColumns cols;
  cols.count = bs.size();
  const size_t m = cols.count;
  cols.numeric.values.resize(numeric_idx_.size() * m);
  cols.categorical.values.resize(categorical_idx_.size() * m);
  cols.datasize.values.resize(datasize_idx_.size() * m);
  for (size_t j = 0; j < m; ++j) {
    assert(bs[j].size() == schema_.size());
    const double* b = bs[j].data();
    for (size_t f = 0; f < numeric_idx_.size(); ++f) {
      cols.numeric.values[f * m + j] = b[numeric_idx_[f]];
    }
    for (size_t f = 0; f < categorical_idx_.size(); ++f) {
      cols.categorical.values[f * m + j] = b[categorical_idx_[f]];
    }
    for (size_t f = 0; f < datasize_idx_.size(); ++f) {
      cols.datasize.values[f * m + j] = b[datasize_idx_[f]];
    }
  }
  cols.numeric.shared.resize(numeric_idx_.size());
  cols.categorical.shared.resize(categorical_idx_.size());
  cols.datasize.shared.resize(datasize_idx_.size());
  MarkShared(m, &cols.numeric);
  MarkShared(m, &cols.categorical);
  MarkShared(m, &cols.datasize);
  return cols;
}

void MixedKernel::EvalRowColumnar(const std::vector<double>& a,
                                  const ProbeColumns& cols,
                                  ColumnarScratch* scratch,
                                  double* out) const {
  assert(a.size() == schema_.size());
  const size_t m = cols.count;
  if (m == 0) return;
  scratch->num_d2.resize(m);
  scratch->mismatches.resize(m);
  scratch->ds_d2.resize(m);
  double* num_d2 = scratch->num_d2.data();
  double* mism = scratch->mismatches.data();
  double* ds_d2 = scratch->ds_d2.data();
  double num_u = 0.0, mism_u = 0.0, ds_u = 0.0;
  const bool num_shared =
      SquaredDistances(a, numeric_idx_, cols.numeric, m, num_d2, &num_u);
  const bool mism_shared =
      Mismatches(a, categorical_idx_, cols.categorical, m, mism, &mism_u);
  const bool ds_shared =
      SquaredDistances(a, datasize_idx_, cols.datasize, m, ds_d2, &ds_u);
  // Multiply EvalStatsCached's factors into each probe in its order, one
  // kind per pass. A kind whose statistic is the same for every probe has
  // one factor for the row; the others get one per probe (numeric_dist =
  // sqrt(num_d2) exactly as Stats builds it).
  for (size_t j = 0; j < m; ++j) out[j] = params_.signal_variance;
  if (num_numeric_ > 0) {
    const double ln = params_.length_numeric;
    if (num_shared) {
      const double factor = NumericFactor(std::sqrt(num_u), ln);
      for (size_t j = 0; j < m; ++j) out[j] *= factor;
    } else {
      for (size_t j = 0; j < m; ++j) {
        out[j] *= NumericFactor(std::sqrt(num_d2[j]), ln);
      }
    }
  }
  if (num_categorical_ > 0) {
    if (mism_shared) {
      const double factor = hamming_table_[static_cast<size_t>(mism_u)];
      for (size_t j = 0; j < m; ++j) out[j] *= factor;
    } else {
      for (size_t j = 0; j < m; ++j) {
        out[j] *= hamming_table_[static_cast<size_t>(mism[j])];
      }
    }
  }
  if (num_datasize_ > 0) {
    const double lds = params_.length_datasize;
    if (ds_shared) {
      const double factor = DataSizeFactor(ds_u, lds);
      for (size_t j = 0; j < m; ++j) out[j] *= factor;
    } else {
      for (size_t j = 0; j < m; ++j) out[j] *= DataSizeFactor(ds_d2[j], lds);
    }
  }
}

MixedKernel::FactorTables::FactorTables(const MixedKernel* kernel,
                                        std::vector<KernelPairStats> pairs)
    : kernel_(kernel), pairs_(std::move(pairs)) {}

template <typename Fill>
const double* MixedKernel::FactorTables::Lookup(std::vector<Table>* tables,
                                                double value, size_t size,
                                                Fill fill) {
  for (const Table& t : *tables) {
    if (t.value == value) return t.factors.data();
  }
  tables->push_back({value, std::vector<double>(size)});
  double* factors = tables->back().factors.data();
  fill(value, factors);
  return factors;
}

void MixedKernel::FactorTables::Values(const KernelParams& p, double* out) {
  const size_t np = pairs_.size();
  const double* numeric = nullptr;
  const double* categorical = nullptr;
  const double* datasize = nullptr;
  if (kernel_->num_numeric_ > 0) {
    numeric = Lookup(&numeric_, p.length_numeric, np,
                     [&](double length, double* t) {
                       for (size_t i = 0; i < np; ++i) {
                         t[i] = NumericFactor(pairs_[i].numeric_dist, length);
                       }
                     });
  }
  if (kernel_->num_categorical_ > 0) {
    const size_t counts = static_cast<size_t>(kernel_->num_categorical_) + 1;
    categorical = Lookup(&categorical_, p.hamming_weight, counts,
                         [&](double weight, double* t) {
                           for (size_t c = 0; c < counts; ++c) {
                             t[c] = kernel_->CategoricalFactor(
                                 static_cast<double>(c), weight);
                           }
                         });
  }
  if (kernel_->num_datasize_ > 0) {
    datasize = Lookup(&datasize_, p.length_datasize, np,
                      [&](double length, double* t) {
                        for (size_t i = 0; i < np; ++i) {
                          t[i] = DataSizeFactor(pairs_[i].datasize_d2, length);
                        }
                      });
  }
  for (size_t i = 0; i < np; ++i) {
    double k = p.signal_variance;
    if (numeric != nullptr) k *= numeric[i];
    if (categorical != nullptr) {
      k *= categorical[static_cast<size_t>(pairs_[i].mismatches)];
    }
    if (datasize != nullptr) k *= datasize[i];
    out[i] = k;
  }
}

ConditionedRows::ConditionedRows(const MixedKernel& kernel,
                                 const std::vector<std::vector<double>>& rows,
                                 std::span<const double> base,
                                 std::span<const size_t> free)
    : schema_(kernel.schema()), rows_(&rows) {
  const size_t d = schema_.size();
  assert(base.size() == d);
  std::vector<char> is_free(d, 0);
  for (size_t s = 0; s < free.size(); ++s) {
    const size_t f = free[s];
    assert(f < d && (s == 0 || free[s - 1] < f));
    assert(schema_[f] != FeatureKind::kDataSize);
    is_free[f] = 1;
    if (schema_[f] == FeatureKind::kNumeric) {
      free_numeric_.push_back(s);
    } else {
      free_categorical_.push_back(s);
    }
  }
  const size_t n = rows.size();
  const size_t kn = free_numeric_.size();
  const size_t kc = free_categorical_.size();
  lead_.resize(n);
  mismatches_.resize(n);
  datasize_d2_.resize(n);
  numeric_values_.resize(n * kn);
  categorical_values_.resize(n * kc);
  segment_end_.resize(n * kn);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double>& x = rows[i];
    assert(x.size() == d);
    double lead = 0.0;
    double mismatches = 0.0;
    double ds_d2 = 0.0;
    size_t sn = 0;  // free numeric features met so far
    size_t sc = 0;
    // One walk of the schema adds each kind's terms in ascending feature
    // order, as Stats does.
    for (size_t f = 0; f < d; ++f) {
      switch (schema_[f]) {
        case FeatureKind::kNumeric: {
          if (is_free[f]) {
            if (sn > 0) {
              segment_end_[i * kn + sn - 1] =
                  static_cast<uint32_t>(terms_.size());
            }
            numeric_values_[i * kn + sn++] = x[f];
            break;
          }
          const double diff = x[f] - base[f];
          const double term = diff * diff;
          if (sn == 0) {
            lead += term;
          } else if (term != 0.0) {
            terms_.push_back(term);
          }
          break;
        }
        case FeatureKind::kCategorical:
          if (is_free[f]) {
            categorical_values_[i * kc + sc++] = x[f];
          } else if (std::fabs(x[f] - base[f]) > 1e-12) {
            mismatches += 1.0;
          }
          break;
        case FeatureKind::kDataSize: {
          const double diff = x[f] - base[f];
          ds_d2 += diff * diff;
          break;
        }
      }
    }
    if (kn > 0) {
      segment_end_[i * kn + kn - 1] = static_cast<uint32_t>(terms_.size());
    }
    lead_[i] = lead;
    mismatches_[i] = mismatches;
    datasize_d2_[i] = ds_d2;
  }
}

bool ConditionedRows::Conditions(
    const std::vector<FeatureKind>& schema,
    const std::vector<std::vector<double>>& rows) const {
  return schema == schema_ && (&rows == rows_ || rows == *rows_);
}

void ConditionedRows::Stats(const double* free, KernelPairStats* out) const {
  const size_t n = lead_.size();
  const size_t kn = free_numeric_.size();
  const size_t kc = free_categorical_.size();
  const double* terms = terms_.data();
  size_t t = 0;  // segments are contiguous, row after row
  for (size_t i = 0; i < n; ++i) {
    double num_d2 = lead_[i];
    const double* xn = numeric_values_.data() + i * kn;
    const uint32_t* ends = segment_end_.data() + i * kn;
    for (size_t s = 0; s < kn; ++s) {
      const double diff = xn[s] - free[free_numeric_[s]];
      num_d2 += diff * diff;
      for (const size_t end = ends[s]; t < end; ++t) num_d2 += terms[t];
    }
    double mismatches = mismatches_[i];
    const double* xc = categorical_values_.data() + i * kc;
    for (size_t s = 0; s < kc; ++s) {
      if (std::fabs(xc[s] - free[free_categorical_[s]]) > 1e-12) {
        mismatches += 1.0;
      }
    }
    out[i].numeric_dist = std::sqrt(num_d2);
    out[i].mismatches = mismatches;
    out[i].datasize_d2 = datasize_d2_[i];
  }
}

void ConditionedRows::RowStats(size_t i, const double* cols, size_t m,
                               double* __restrict num_d2,
                               double* __restrict mismatches) const {
  const size_t kn = free_numeric_.size();
  const size_t kc = free_categorical_.size();
  const double lead = lead_[i];
  if (kn == 0) {
    for (size_t j = 0; j < m; ++j) num_d2[j] = lead;
  } else {
    size_t t = i == 0 ? 0 : segment_end_[i * kn - 1];
    for (size_t s = 0; s < kn; ++s) {
      const double xv = numeric_values_[i * kn + s];
      const double* __restrict col = cols + free_numeric_[s] * m;
      if (s == 0) {
        for (size_t j = 0; j < m; ++j) {
          const double diff = xv - col[j];
          num_d2[j] = lead + diff * diff;
        }
      } else {
        for (size_t j = 0; j < m; ++j) {
          const double diff = xv - col[j];
          num_d2[j] += diff * diff;
        }
      }
      for (const size_t end = segment_end_[i * kn + s]; t < end; ++t) {
        const double term = terms_[t];
        for (size_t j = 0; j < m; ++j) num_d2[j] += term;
      }
    }
  }
  const double pinned = mismatches_[i];
  for (size_t j = 0; j < m; ++j) mismatches[j] = pinned;
  for (size_t s = 0; s < kc; ++s) {
    const double xv = categorical_values_[i * kc + s];
    const double* __restrict col = cols + free_categorical_[s] * m;
    for (size_t j = 0; j < m; ++j) {
      mismatches[j] += std::fabs(xv - col[j]) > 1e-12 ? 1.0 : 0.0;
    }
  }
}

}  // namespace sparktune

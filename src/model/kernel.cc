#include "model/kernel.h"

#include <cassert>
#include <cmath>

namespace sparktune {

namespace {

// One row's sum over a squared-distance kind of ConditionedRows, from its
// pinned lead `sum`: each free term (x[s] - free[pos[s]])^2, then the
// row's pinned terms up to ends[s], in feature order. *t is the term
// cursor, which runs on across rows.
inline double AddSquaredTerms(double sum, const double* x, const double* free,
                              const size_t* pos, const uint32_t* ends,
                              const double* terms, size_t k, size_t* t) {
  for (size_t s = 0; s < k; ++s) {
    const double diff = x[s] - free[pos[s]];
    sum += diff * diff;
    for (const size_t end = ends[s]; *t < end; ++*t) sum += terms[*t];
  }
  return sum;
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
                                     const double* mismatches,
                                     const double* ds_d2, size_t m,
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
    if (ds_d2 != nullptr) {
      const double lds = params_.length_datasize;
      for (size_t j = 0; j < m; ++j) out[j] *= DataSizeFactor(ds_d2[j], lds);
    } else {
      for (size_t j = 0; j < m; ++j) out[j] *= datasize_factor;
    }
  }
}

double MixedKernel::Eval(const std::vector<double>& a,
                         const std::vector<double>& b) const {
  const KernelPairStats s = Stats(a, b);
  return EvalConditioned(s, DataSizeFactorOf(s.datasize_d2));
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

void ConditionedRows::SquaredTerms::Resize(size_t n) {
  lead.resize(n);
  values.resize(n * free.size());
  segment_end.resize(n * free.size());
}

void ConditionedRows::SquaredTerms::Add(size_t i, double x, double b,
                                        bool is_free, size_t* met) {
  const size_t k = free.size();
  if (is_free) {
    if (*met > 0) {
      segment_end[i * k + *met - 1] = static_cast<uint32_t>(terms.size());
    }
    values[i * k + (*met)++] = x;
    return;
  }
  const double diff = x - b;
  const double term = diff * diff;
  if (*met == 0) {
    lead[i] += term;
  } else if (term != 0.0) {
    terms.push_back(term);
  }
}

void ConditionedRows::SquaredTerms::EndRow(size_t i) {
  const size_t k = free.size();
  if (k > 0) segment_end[i * k + k - 1] = static_cast<uint32_t>(terms.size());
}

void ConditionedRows::SquaredTerms::Row(size_t i, const double* cols,
                                        size_t m,
                                        double* __restrict out) const {
  const size_t k = free.size();
  const double row_lead = lead[i];
  if (k == 0) {
    for (size_t j = 0; j < m; ++j) out[j] = row_lead;
    return;
  }
  const double* x = values.data() + i * k;
  const uint32_t* ends = segment_end.data() + i * k;
  const double* row_terms = terms.data();
  size_t t = i == 0 ? 0 : ends[-1];
  for (size_t s = 0; s < k; ++s) {
    const double xv = x[s];
    const double* __restrict col = cols + free[s] * m;
    if (s == 0) {
      for (size_t j = 0; j < m; ++j) {
        const double diff = xv - col[j];
        out[j] = row_lead + diff * diff;
      }
    } else {
      for (size_t j = 0; j < m; ++j) {
        const double diff = xv - col[j];
        out[j] += diff * diff;
      }
    }
    for (const size_t end = ends[s]; t < end; ++t) {
      const double term = row_terms[t];
      for (size_t j = 0; j < m; ++j) out[j] += term;
    }
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
    is_free[f] = 1;
    switch (schema_[f]) {
      case FeatureKind::kNumeric:
        numeric_.free.push_back(s);
        break;
      case FeatureKind::kCategorical:
        free_categorical_.push_back(s);
        break;
      case FeatureKind::kDataSize:
        datasize_.free.push_back(s);
        break;
    }
  }
  const size_t n = rows.size();
  const size_t kc = free_categorical_.size();
  numeric_.Resize(n);
  datasize_.Resize(n);
  mismatches_.resize(n);
  categorical_values_.resize(n * kc);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double>& x = rows[i];
    assert(x.size() == d);
    // Free features met so far, per kind.
    size_t sn = 0, sc = 0, sd = 0;
    // One walk of the schema adds each kind's terms in ascending feature
    // order, as Stats does.
    for (size_t f = 0; f < d; ++f) {
      switch (schema_[f]) {
        case FeatureKind::kNumeric:
          numeric_.Add(i, x[f], base[f], is_free[f], &sn);
          break;
        case FeatureKind::kCategorical:
          if (is_free[f]) {
            categorical_values_[i * kc + sc++] = x[f];
          } else if (std::fabs(x[f] - base[f]) > 1e-12) {
            mismatches_[i] += 1.0;
          }
          break;
        case FeatureKind::kDataSize:
          datasize_.Add(i, x[f], base[f], is_free[f], &sd);
          break;
      }
    }
    numeric_.EndRow(i);
    datasize_.EndRow(i);
  }
}

bool ConditionedRows::Conditions(
    const std::vector<FeatureKind>& schema,
    const std::vector<std::vector<double>>& rows) const {
  return schema == schema_ && (&rows == rows_ || rows == *rows_);
}

void ConditionedRows::Stats(const double* free, KernelPairStats* out) const {
  const size_t n = size();
  const size_t kn = numeric_.free.size();
  const size_t kc = free_categorical_.size();
  const size_t* num_pos = numeric_.free.data();
  const double* lead = numeric_.lead.data();
  const double* xn = numeric_.values.data();
  const uint32_t* ends = numeric_.segment_end.data();
  const double* terms = numeric_.terms.data();
  const size_t* cat_pos = free_categorical_.data();
  const double* pinned_mismatches = mismatches_.data();
  const double* xc = categorical_values_.data();
  const double* ds_lead = datasize_.lead.data();
  size_t t = 0;  // segments are contiguous, row after row
  for (size_t i = 0; i < n; ++i, xn += kn, ends += kn, xc += kc) {
    const double num_d2 =
        AddSquaredTerms(lead[i], xn, free, num_pos, ends, terms, kn, &t);
    double mismatches = pinned_mismatches[i];
    for (size_t s = 0; s < kc; ++s) {
      if (std::fabs(xc[s] - free[cat_pos[s]]) > 1e-12) mismatches += 1.0;
    }
    out[i].numeric_dist = std::sqrt(num_d2);
    out[i].mismatches = mismatches;
    out[i].datasize_d2 = ds_lead[i];
  }
  if (!datasize_free()) return;
  // A free data size: each row's sum, as the numeric one.
  const size_t kd = datasize_.free.size();
  const double* xd = datasize_.values.data();
  const uint32_t* ds_ends = datasize_.segment_end.data();
  t = 0;
  for (size_t i = 0; i < n; ++i, xd += kd, ds_ends += kd) {
    out[i].datasize_d2 =
        AddSquaredTerms(ds_lead[i], xd, free, datasize_.free.data(), ds_ends,
                        datasize_.terms.data(), kd, &t);
  }
}

void ConditionedRows::RowStats(size_t i, const double* cols, size_t m,
                               double* __restrict num_d2,
                               double* __restrict mismatches,
                               double* __restrict ds_d2) const {
  numeric_.Row(i, cols, m, num_d2);
  const size_t kc = free_categorical_.size();
  const double pinned = mismatches_[i];
  for (size_t j = 0; j < m; ++j) mismatches[j] = pinned;
  for (size_t s = 0; s < kc; ++s) {
    const double xv = categorical_values_[i * kc + s];
    const double* __restrict col = cols + free_categorical_[s] * m;
    for (size_t j = 0; j < m; ++j) {
      mismatches[j] += std::fabs(xv - col[j]) > 1e-12 ? 1.0 : 0.0;
    }
  }
  if (datasize_free()) datasize_.Row(i, cols, m, ds_d2);
}

}  // namespace sparktune

#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace sparktune {

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return Sum(v) / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  return Variance(v, Mean(v));
}

double Variance(const std::vector<double>& v, double mean) {
  if (v.size() < 2) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += (x - mean) * (x - mean);
  return acc / static_cast<double>(v.size());
}

double Stddev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Min(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return *std::max_element(v.begin(), v.end());
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Skewness(const std::vector<double>& v, double mean, double stddev) {
  if (v.size() < 3 || stddev <= 0.0) return 0.0;
  double acc = 0.0;
  for (double x : v) {
    double z = (x - mean) / stddev;
    acc += z * z * z;
  }
  return acc / static_cast<double>(v.size());
}

double KendallTau(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  size_t n = a.size();
  if (n < 2) return 0.0;
  long long concordant = 0, discordant = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double da = a[i] - a[j];
      double db = b[i] - b[j];
      double prod = da * db;
      if (prod > 0) ++concordant;
      else if (prod < 0) ++discordant;
      // ties contribute to neither (tau-a denominator keeps all pairs)
    }
  }
  double pairs = 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
  return static_cast<double>(concordant - discordant) / pairs;
}

std::vector<double> AverageRanks(const std::vector<double>& v) {
  size_t n = v.size();
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](size_t i, size_t j) { return v[i] < v[j]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
    // average 1-based rank for the tie group [i, j]
    double avg = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[idx[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double PearsonR(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  double ma = Mean(a), mb = Mean(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  if (da <= 0.0 || db <= 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

double SpearmanRho(const std::vector<double>& a, const std::vector<double>& b) {
  return PearsonR(AverageRanks(a), AverageRanks(b));
}

}  // namespace sparktune

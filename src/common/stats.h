// Descriptive statistics and rank correlation utilities shared by the
// simulator (task metric summaries), the meta-learner (Kendall-tau task
// distance) and the experiment harnesses.
#pragma once

#include <vector>

namespace sparktune {

double Mean(const std::vector<double>& v);
// Population variance/stddev (divide by n); returns 0 for n < 2.
double Variance(const std::vector<double>& v);
// Variance with v's mean given: Variance(v, Mean(v)) == Variance(v).
double Variance(const std::vector<double>& v, double mean);
double Stddev(const std::vector<double>& v);
double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);
double Sum(const std::vector<double>& v);
// Linear-interpolated quantile of an ascending vector, q clamped to
// [0, 1].
double SortedQuantile(const std::vector<double>& sorted, double q);
// Skewness (Fisher-Pearson, population) of v, whose mean and stddev are
// given; 0 for degenerate inputs.
double Skewness(const std::vector<double>& v, double mean, double stddev);

// Kendall rank correlation coefficient tau-a in [-1, 1].
// Returns 0 for vectors shorter than 2. O(n^2); n is small in our usage
// (random probe sets of a few hundred configs).
double KendallTau(const std::vector<double>& a, const std::vector<double>& b);

// Spearman rank correlation (Pearson on ranks, average ranks on ties).
double SpearmanRho(const std::vector<double>& a, const std::vector<double>& b);

// Pearson correlation; 0 when either side is constant.
double PearsonR(const std::vector<double>& a, const std::vector<double>& b);

// Ranks with ties resolved by averaging (1-based ranks).
std::vector<double> AverageRanks(const std::vector<double>& v);

}  // namespace sparktune

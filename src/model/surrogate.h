// Surrogate model interface: anything that maps a normalized feature vector
// to a Gaussian predictive distribution. Implemented by the GP surrogate
// (model/gp.h), the random-forest surrogate (forest/random_forest.h via an
// adapter in the baselines) and the meta-learning ensemble (meta/).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"

namespace sparktune {

struct KernelPairStats;
class ConditionedRows;

struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
};

// A searched sub-space in feature coordinates: the base's features,
// context included, and the ascending indices of the free ones. Every
// candidate of the search is the base with its free features overwritten.
struct FeatureSubspace {
  std::vector<double> base;
  std::vector<size_t> free;
};

// The sub-space a probe set spans, and the probes in it.
struct ProbeSpan {
  FeatureSubspace sub;
  // Free feature s of probe j at cols[s * m + j], for m probes.
  std::vector<double> cols;
};

// The span of m >= 1 probes of one width: the base is the first probe,
// and a feature is free when some probe differs (!=) from the first in
// it, so 0.0 and -0.0 count as one value (a GP kernel's terms do not see
// the sign). The GP and the meta ensemble answer PredictBatch(xs) by
// conditioning on the span. A model whose Condition is the default must
// not: the default calls PredictBatch back.
ProbeSpan SpanOfProbes(const std::vector<std::vector<double>>& xs);

// A surrogate's predictions for the candidates of one sub-space search,
// from each candidate's free features (in FeatureSubspace::free order).
// Every prediction equals the model's Predict of the candidate's full
// features bit for bit. It lives for one search and may keep scratch
// buffers, so it serves one thread.
class ConditionedSurrogate {
 public:
  virtual ~ConditionedSurrogate() = default;

  // The view whose per-row statistics Predict reads, or null when it
  // reads none. Another model fit on the same rows may share it, so the
  // caller computes a candidate's statistics once for both.
  virtual const ConditionedRows* rows() const = 0;
  // `stats` is rows()->Stats(free) when rows() is non-null, else unused.
  virtual Prediction Predict(const double* free,
                             const KernelPairStats* stats) const = 0;
  // m candidates, free feature s of candidate j at cols[s * m + j].
  virtual std::vector<Prediction> PredictBatch(const double* cols,
                                               size_t m) const = 0;
};

class Surrogate {
 public:
  virtual ~Surrogate() = default;

  // Fit on normalized feature rows X (each row the same length) and targets.
  virtual Status Fit(const std::vector<std::vector<double>>& x,
                     const std::vector<double>& y) = 0;

  virtual Prediction Predict(const std::vector<double>& x) const = 0;

  // Batched prediction: out[i] == Predict(xs[i]) bit-for-bit for every
  // implementation. The default loops over Predict; models whose inference
  // amortizes override it: the GP and the meta ensemble condition on the
  // probes' span (SpanOfProbes), the forest batches its traversals. Its
  // callers are AGD's finite-difference probes and backtracking screen,
  // the meta ensemble's cross-validation and the knowledge base's probes;
  // acquisition scores its pools through Condition.
  virtual std::vector<Prediction> PredictBatch(
      const std::vector<std::vector<double>>& xs) const {
    std::vector<Prediction> out;
    out.reserve(xs.size());
    for (const auto& x : xs) out.push_back(Predict(x));
    return out;
  }

  // This model conditioned on one searched sub-space; it must outlive the
  // result. `shared`, when non-null, is a view of rows whose statistics
  // the caller computes per candidate: a model that reads statistics of
  // equal rows reads these (its rows() is `shared`) instead of building
  // its own. The default rebuilds each candidate's full features and
  // predicts through Predict and PredictBatch.
  virtual std::unique_ptr<ConditionedSurrogate> Condition(
      const FeatureSubspace& sub, const ConditionedRows* shared) const;

  virtual size_t num_observations() const = 0;
};

}  // namespace sparktune

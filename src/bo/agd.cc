#include "bo/agd.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sparktune {

namespace {

// Central-difference half step and per-dimension step clip (unit space).
constexpr double kFdEpsilon = 0.03;
constexpr double kMaxStep = 0.15;
// If rounding leaves the configuration unchanged, the step is amplified by
// this factor until something moves (or kMaxStep is hit).
constexpr double kAmplify = 2.0;

}  // namespace

Agd::Agd(const ConfigSpace* space, AgdOptions options)
    : space_(space), options_(options) {
  assert(space_ != nullptr);
}

Configuration Agd::Step(const Configuration& base,
                        const Surrogate& runtime_surrogate,
                        const EncodeFn& encode, const ResourceFn& resource_fn,
                        const TuningObjective& objective) const {
  std::vector<double> u = space_->ToUnit(base);

  // Gather the incumbent plus all 2d central-difference probes and score
  // them with a single batched surrogate pass (index 0 = base, then the
  // +/- pair of each active numeric dimension).
  struct Probe {
    size_t dim = 0;
    double lo = 0.0;
    double hi = 0.0;
    Configuration cp, cn;
  };
  std::vector<Probe> probes;
  std::vector<std::vector<double>> feats;
  feats.push_back(encode(base));
  for (size_t i = 0; i < u.size(); ++i) {
    if (!space_->param(i).is_numeric()) continue;
    double lo = std::max(0.0, u[i] - kFdEpsilon);
    double hi = std::min(1.0, u[i] + kFdEpsilon);
    if (hi - lo < 1e-9) continue;
    std::vector<double> up = u, un = u;
    up[i] = hi;
    un[i] = lo;
    Probe p;
    p.dim = i;
    p.lo = lo;
    p.hi = hi;
    p.cp = space_->FromUnit(up);
    p.cn = space_->FromUnit(un);
    feats.push_back(encode(p.cp));
    feats.push_back(encode(p.cn));
    probes.push_back(std::move(p));
  }
  std::vector<Prediction> preds = runtime_surrogate.PredictBatch(feats);

  double t0 = std::max(1e-9, preds[0].mean);
  double r0 = std::max(1e-9, resource_fn(base));
  double f0 = objective.Value(t0, r0);
  double df_dt = objective.DfDt(t0, r0);
  double df_dr = objective.DfDr(t0, r0);

  std::vector<double> grad(u.size(), 0.0);
  for (size_t k = 0; k < probes.size(); ++k) {
    const Probe& p = probes[k];
    double tp = preds[1 + 2 * k].mean;
    double tn = preds[2 + 2 * k].mean;
    double rp = resource_fn(p.cp);
    double rn = resource_fn(p.cn);
    double denom = p.hi - p.lo;
    double dt = (tp - tn) / denom;
    double dr = (rp - rn) / denom;
    // Eq. 9, normalized by the incumbent objective for scale-free steps.
    grad[p.dim] = (df_dt * dt + df_dr * dr) / std::max(f0, 1e-9);
  }

  double eta = options_.learning_rate;
  for (;;) {
    std::vector<double> next = u;
    for (size_t i = 0; i < u.size(); ++i) {
      double step = std::clamp(eta * grad[i], -kMaxStep, kMaxStep);
      next[i] = std::clamp(u[i] - step, 0.0, 1.0);
    }
    Configuration out = space_->FromUnit(next);
    if (!(out == base)) return out;
    // Rounding swallowed the step; amplify until something changes or the
    // step hits the clip.
    bool maxed = true;
    for (size_t i = 0; i < u.size(); ++i) {
      if (grad[i] != 0.0 && std::fabs(eta * grad[i]) < kMaxStep) {
        maxed = false;
        break;
      }
    }
    if (maxed) return out;  // gradient is zero or steps are saturated
    eta *= kAmplify;
  }
}

}  // namespace sparktune

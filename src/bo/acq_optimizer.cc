#include "bo/acq_optimizer.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace sparktune {

AcquisitionOptimizer::AcquisitionOptimizer(AcqOptOptions options)
    : options_(options) {}

AcqOptResult AcquisitionOptimizer::Maximize(
    const Subspace& subspace, const EncodeFn& encode, const EicAcquisition& acq,
    const SafeFn& safe, const UnsafetyFn& unsafety, const RunHistory* history,
    Rng* rng, const SafeBatchFn& safe_batch,
    const UnsafetyBatchFn& unsafety_batch) const {
  struct Scored {
    Configuration config;
    double value = 0.0;
  };

  // ---- Candidate generation (serial: preserves the rng draw order) ----
  std::vector<Configuration> cands;
  cands.reserve(static_cast<size_t>(options_.num_candidates) + 8);
  // Scattered candidates.
  for (int i = 0; i < options_.num_candidates; ++i) {
    cands.push_back(subspace.Sample(rng));
  }
  // Exploit neighborhood of the incumbent and recent configurations. At
  // least one incumbent neighbor even for small pools (num_candidates < 8
  // used to yield zero and silently disable local exploitation).
  if (history != nullptr && !history->empty()) {
    int best = history->BestFeasibleIndex();
    if (best >= 0) {
      Configuration best_config = history->config(static_cast<size_t>(best));
      int local = std::max(1, options_.num_candidates / 8);
      for (int i = 0; i < local; ++i) {
        cands.push_back(subspace.Neighbor(subspace.Project(best_config),
                                          options_.local_sigma, rng));
      }
    }
    size_t recent = std::min<size_t>(3, history->size());
    for (size_t k = history->size() - recent; k < history->size(); ++k) {
      cands.push_back(subspace.Neighbor(subspace.Project(history->config(k)),
                                        options_.local_sigma, rng));
    }
  }

  // ---- Candidate evaluation (batched: one surrogate pass per stage) ----
  struct CandEval {
    bool dup = false;
    bool is_safe = true;
    double acq_value = 0.0;
  };
  std::vector<CandEval> evals(cands.size());
  ParallelFor(options_.num_threads, cands.size(), [&](size_t i) {
    evals[i].dup = history != nullptr && history->Contains(cands[i]);
  });
  std::vector<size_t> live;
  live.reserve(cands.size());
  for (size_t i = 0; i < cands.size(); ++i) {
    if (!evals[i].dup) live.push_back(i);
  }
  std::vector<Configuration> live_cfg;
  live_cfg.reserve(live.size());
  for (size_t i : live) live_cfg.push_back(cands[i]);
  if (!live.empty()) {
    // Safe-region screen.
    if (safe_batch) {
      std::vector<char> s = safe_batch(live_cfg);
      for (size_t t = 0; t < live.size(); ++t) {
        evals[live[t]].is_safe = s[t] != 0;
      }
    } else if (safe) {
      ParallelFor(options_.num_threads, live.size(), [&](size_t t) {
        evals[live[t]].is_safe = safe(live_cfg[t]);
      });
    }
    // Acquisition for the safe survivors: the whole pool in one batched
    // surrogate pass instead of a Predict per candidate.
    std::vector<size_t> scored;
    std::vector<std::vector<double>> feats;
    scored.reserve(live.size());
    feats.reserve(live.size());
    for (size_t t = 0; t < live.size(); ++t) {
      if (!evals[live[t]].is_safe) continue;
      scored.push_back(live[t]);
      feats.push_back(encode(live_cfg[t]));
    }
    std::vector<double> acq_vals = acq.EvalBatch(feats);
    for (size_t t = 0; t < scored.size(); ++t) {
      evals[scored[t]].acq_value = acq_vals[t];
    }
  }

  // ---- Serial fold in candidate order (same tie-breaking as serial) ----
  std::vector<Scored> pool;
  pool.reserve(cands.size());
  for (size_t i = 0; i < cands.size(); ++i) {
    const CandEval& e = evals[i];
    if (e.dup || !e.is_safe) continue;
    pool.push_back({std::move(cands[i]), e.acq_value});
  }

  AcqOptResult result;
  if (pool.empty()) {
    // Safe set empty: suggest the configuration whose worst-case constraint
    // violation is smallest — the point most likely to extend the safe
    // region (SafeOpt-style expansion). Unsafety is scored only here, over
    // the same non-duplicate candidates; ties go to the first in candidate
    // order, and without an unsafety score the first candidate wins.
    result.safe_fallback_used = true;
    if (live_cfg.empty()) {
      result.config = subspace.Sample(rng);
    } else {
      size_t least = 0;
      if (unsafety) {
        std::vector<double> u;
        if (unsafety_batch) {
          u = unsafety_batch(live_cfg);
        } else {
          u.resize(live_cfg.size());
          ParallelFor(options_.num_threads, live_cfg.size(),
                      [&](size_t t) { u[t] = unsafety(live_cfg[t]); });
        }
        for (size_t t = 1; t < u.size(); ++t) {
          if (u[t] < u[least]) least = t;
        }
      }
      result.config = std::move(live_cfg[least]);
    }
    result.acq_value = 0.0;
    result.raw_ei = acq.RawEi(encode(result.config));
    return result;
  }

  std::sort(pool.begin(), pool.end(),
            [](const Scored& a, const Scored& b) { return a.value > b.value; });

  // ---- Local hill-climbing from the top starts (parallel) ----
  // Each start owns a forked RNG stream, so climbs are independent of each
  // other and of the thread count.
  int starts = std::min<int>(options_.num_local_starts,
                             static_cast<int>(pool.size()));
  std::vector<Rng> climb_rngs = ForkRngs(rng, static_cast<size_t>(starts));
  std::vector<Scored> climbed(static_cast<size_t>(starts));
  ParallelFor(options_.num_threads, static_cast<size_t>(starts), [&](size_t s) {
    Rng* crng = &climb_rngs[s];
    Configuration cur = pool[s].config;
    double cur_value = pool[s].value;
    double sigma = options_.local_sigma;
    auto rejected = [&](const Configuration& c) {
      return (history != nullptr && history->Contains(c)) ||
             (safe && !safe(c));
    };
    for (int step = 0; step < options_.local_steps; ++step) {
      Configuration cand = subspace.Neighbor(cur, sigma, crng);
      // A duplicate or unsafe candidate is not a wasted step: anneal sigma
      // and redraw closer to `cur`, where membership is likeliest.
      bool rej = rejected(cand);
      for (int retry = 0; rej && retry < options_.max_rejected_retries;
           ++retry) {
        sigma *= 0.9;
        cand = subspace.Neighbor(cur, sigma, crng);
        rej = rejected(cand);
      }
      if (rej) {
        sigma *= 0.9;
        continue;
      }
      double v = acq.Eval(encode(cand));
      if (v > cur_value) {
        cur = std::move(cand);
        cur_value = v;
      } else {
        sigma *= 0.9;  // anneal toward fine-grained moves
      }
    }
    climbed[s] = {std::move(cur), cur_value};
  });

  Configuration best_config = pool[0].config;
  double best_value = pool[0].value;
  for (const Scored& c : climbed) {
    if (c.value > best_value) {
      best_value = c.value;
      best_config = c.config;
    }
  }

  result.config = best_config;
  result.acq_value = best_value;
  result.raw_ei = acq.RawEi(encode(best_config));
  return result;
}

}  // namespace sparktune

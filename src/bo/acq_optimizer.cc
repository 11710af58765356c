#include "bo/acq_optimizer.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace sparktune {

namespace {

// Rejected hill-climb candidates (duplicate or unsafe) are re-drawn this
// many times with annealed sigma before the step is forfeited, so a
// cramped safe region still gets productive moves.
constexpr int kMaxRejectedRetries = 4;

// The hook form's scorer: safety through the hooks, EIC through the
// EicAcquisition, each called as the hook form always called them.
class HookScorer final : public CandidateScorer {
 public:
  using Opt = AcquisitionOptimizer;

  HookScorer(const Opt::EncodeFn& encode, const EicAcquisition& acq,
             const Opt::SafeFn& safe, const Opt::UnsafetyFn& unsafety,
             const Opt::SafeBatchFn& safe_batch,
             const Opt::UnsafetyBatchFn& unsafety_batch)
      : encode_(encode),
        acq_(acq),
        safe_(safe),
        unsafety_(unsafety),
        safe_batch_(safe_batch),
        unsafety_batch_(unsafety_batch) {}

  std::vector<CandidateScore> ScoreBatch(
      const std::vector<Configuration>& cs) const override {
    std::vector<char> ok(cs.size(), 1);
    if (safe_batch_) {
      ok = safe_batch_(cs);
    } else if (safe_) {
      for (size_t t = 0; t < cs.size(); ++t) ok[t] = safe_(cs[t]);
    }
    std::vector<size_t> idx;
    std::vector<std::vector<double>> feats;
    for (size_t t = 0; t < cs.size(); ++t) {
      if (!ok[t]) continue;
      idx.push_back(t);
      feats.push_back(encode_(cs[t]));
    }
    const std::vector<double> acq = acq_.EvalBatch(feats);
    std::vector<CandidateScore> out(cs.size(), CandidateScore{false, 0.0});
    for (size_t k = 0; k < idx.size(); ++k) out[idx[k]] = {true, acq[k]};
    return out;
  }

  CandidateScore Score(const Configuration& c) const override {
    if (safe_ && !safe_(c)) return {false, 0.0};
    return {true, acq_.Eval(encode_(c))};
  }

  std::vector<double> Unsafety(
      const std::vector<Configuration>& cs) const override {
    std::vector<double> out(cs.size(), 0.0);
    if (!unsafety_) return out;
    if (unsafety_batch_) return unsafety_batch_(cs);
    for (size_t t = 0; t < cs.size(); ++t) out[t] = unsafety_(cs[t]);
    return out;
  }

  double RawEi(const Configuration& c) const override {
    return acq_.RawEi(encode_(c));
  }

 private:
  const Opt::EncodeFn& encode_;
  const EicAcquisition& acq_;
  const Opt::SafeFn& safe_;
  const Opt::UnsafetyFn& unsafety_;
  const Opt::SafeBatchFn& safe_batch_;
  const Opt::UnsafetyBatchFn& unsafety_batch_;
};

}  // namespace

AcquisitionOptimizer::AcquisitionOptimizer(AcqOptOptions options)
    : options_(options) {}

AcqOptResult AcquisitionOptimizer::Maximize(
    const Subspace& subspace, const EncodeFn& encode, const EicAcquisition& acq,
    const SafeFn& safe, const UnsafetyFn& unsafety, const RunHistory* history,
    Rng* rng, const SafeBatchFn& safe_batch,
    const UnsafetyBatchFn& unsafety_batch) const {
  const HookScorer scorer(encode, acq, safe, unsafety, safe_batch,
                          unsafety_batch);
  return Maximize(subspace, scorer, history, rng);
}

AcqOptResult AcquisitionOptimizer::Maximize(const Subspace& subspace,
                                            const CandidateScorer& scorer,
                                            const RunHistory* history,
                                            Rng* rng) const {
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

  // ---- Candidate evaluation: duplicates out, then one scoring pass ----
  // Every candidate, here and in the climbs, is the base with its free
  // coordinates overwritten, so only the history rows sharing the base's
  // pinned coordinates can hold it.
  const SubspaceHistory seen(history, subspace);
  std::vector<Configuration> live;
  live.reserve(cands.size());
  for (Configuration& c : cands) {
    if (!seen.Contains(c)) live.push_back(std::move(c));
  }
  std::vector<CandidateScore> scores;
  if (!live.empty()) scores = scorer.ScoreBatch(live);

  // ---- Fold in candidate order ----
  std::vector<Scored> pool;
  pool.reserve(live.size());
  for (size_t t = 0; t < live.size(); ++t) {
    if (scores[t].safe) pool.push_back({live[t], scores[t].acq});
  }

  AcqOptResult result;
  if (pool.empty()) {
    // Safe set empty: suggest the configuration whose worst-case constraint
    // violation is smallest — the point most likely to extend the safe
    // region (SafeOpt-style expansion). The screen's scores carry the
    // unsafety it already knows; Unsafety is scored only here, in one call
    // over the non-duplicate candidates it left unknown. Ties go to the
    // first in candidate order.
    result.safe_fallback_used = true;
    if (live.empty()) {
      result.config = subspace.Sample(rng);
    } else {
      std::vector<double> u(live.size());
      std::vector<size_t> unknown;
      std::vector<Configuration> asked;
      for (size_t t = 0; t < live.size(); ++t) {
        if (scores[t].unsafety.has_value()) {
          u[t] = *scores[t].unsafety;
        } else {
          unknown.push_back(t);
          asked.push_back(std::move(live[t]));
        }
      }
      if (!asked.empty()) {
        const std::vector<double> answered = scorer.Unsafety(asked);
        for (size_t k = 0; k < unknown.size(); ++k) {
          u[unknown[k]] = answered[k];
          live[unknown[k]] = std::move(asked[k]);
        }
      }
      size_t least = 0;
      for (size_t t = 1; t < u.size(); ++t) {
        if (u[t] < u[least]) least = t;
      }
      result.config = std::move(live[least]);
    }
    result.acq_value = 0.0;
    result.raw_ei = scorer.RawEi(result.config);
    return result;
  }

  std::sort(pool.begin(), pool.end(),
            [](const Scored& a, const Scored& b) { return a.value > b.value; });

  // ---- Local hill-climbing from the top starts ----
  // Each start owns a stream forked before the first climb, so one climb's
  // draws never shift another's.
  const size_t starts = static_cast<size_t>(std::min<int>(
      options_.num_local_starts, static_cast<int>(pool.size())));
  std::vector<Rng> climb_rngs = ForkRngs(rng, starts);
  Configuration best_config = pool[0].config;
  double best_value = pool[0].value;
  for (size_t s = 0; s < starts; ++s) {
    Rng* crng = &climb_rngs[s];
    Configuration cur = pool[s].config;
    double cur_value = pool[s].value;
    double sigma = options_.local_sigma;
    // A step's score, set by `rejected` for a non-duplicate candidate.
    CandidateScore score;
    auto rejected = [&](const Configuration& c) {
      if (seen.Contains(c)) return true;
      score = scorer.Score(c);
      return !score.safe;
    };
    for (int step = 0; step < options_.local_steps; ++step) {
      Configuration cand = subspace.Neighbor(cur, sigma, crng);
      // A duplicate or unsafe candidate is not a wasted step: anneal sigma
      // and redraw closer to `cur`, where membership is likeliest.
      bool rej = rejected(cand);
      for (int retry = 0; rej && retry < kMaxRejectedRetries; ++retry) {
        sigma *= 0.9;
        cand = subspace.Neighbor(cur, sigma, crng);
        rej = rejected(cand);
      }
      if (rej) {
        sigma *= 0.9;
        continue;
      }
      if (score.acq > cur_value) {
        cur = std::move(cand);
        cur_value = score.acq;
      } else {
        sigma *= 0.9;  // anneal toward fine-grained moves
      }
    }
    if (cur_value > best_value) {
      best_value = cur_value;
      best_config = std::move(cur);
    }
  }

  result.config = best_config;
  result.acq_value = best_value;
  result.raw_ei = scorer.RawEi(best_config);
  return result;
}

}  // namespace sparktune

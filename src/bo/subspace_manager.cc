#include "bo/subspace_manager.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace sparktune {

namespace {

// TuRBO-style trust-region counters: consecutive improvements before K
// grows, consecutive failures before it shrinks.
constexpr int kTauSucc = 3;
constexpr int kTauFail = 5;

}  // namespace

SubspaceManager::SubspaceManager(const ConfigSpace* space,
                                 SubspaceOptions options,
                                 const std::vector<std::string>& expert_ranking)
    : space_(space), options_(options) {
  assert(space_ != nullptr);
  int n = static_cast<int>(space_->size());
  if (options_.k_max <= 0) options_.k_max = n;
  options_.k_max = std::min(options_.k_max, n);
  options_.k_min = std::clamp(options_.k_min, 1, options_.k_max);
  k_ = std::clamp(options_.k_init, options_.k_min, options_.k_max);

  // Seed importance from the expert ranking: exponentially decaying scores.
  importance_.assign(static_cast<size_t>(n), 0.0);
  double score = 1.0;
  int matched = 0;
  for (const std::string& name : expert_ranking) {
    int idx = space_->IndexOf(name);
    if (idx < 0) continue;
    importance_[static_cast<size_t>(idx)] = score;
    score *= 0.85;
    ++matched;
  }
  // Unranked parameters share the tail score.
  for (auto& v : importance_) {
    if (v == 0.0 && matched > 0) v = score * 0.5;
  }
  importance_weight_ = matched > 0 ? 1.0 : 0.0;
}

void SubspaceManager::ReportOutcome(bool improved) {
  if (improved) {
    ++succ_count_;
    fail_count_ = 0;
    if (succ_count_ >= kTauSucc) {
      k_ = std::min(options_.k_max, k_ + options_.k_step);
      succ_count_ = 0;
      fail_count_ = 0;
    }
  } else {
    ++fail_count_;
    succ_count_ = 0;
    if (fail_count_ >= kTauFail) {
      k_ = std::max(options_.k_min, k_ - options_.k_step);
      succ_count_ = 0;
      fail_count_ = 0;
    }
  }
}

void SubspaceManager::MaybeUpdateImportance(
    const std::vector<std::vector<double>>& x_unit,
    const std::vector<double>& y) {
  if (x_unit.size() < static_cast<size_t>(options_.fanova_min_obs)) return;
  if (x_unit.size() <
      last_fanova_size_ + static_cast<size_t>(options_.fanova_period)) {
    return;
  }
  // Pairwise interactions on the full 30-d space are expensive; restrict to
  // main effects for the online update (combined scores still fold in
  // interactions when dimensionality is modest).
  FanovaOptions fopts = options_.fanova;
  fopts.compute_pairwise = x_unit[0].size() <= 12;
  auto result = Fanova::Analyze(x_unit, y, fopts);
  if (!result.ok()) return;
  last_fanova_size_ = x_unit.size();
  std::vector<double> combined = result->CombinedImportance();
  SeedImportance(combined, 1.0);
}

void SubspaceManager::SeedImportance(const std::vector<double>& scores,
                                     double weight) {
  assert(scores.size() == importance_.size());
  double total = importance_weight_ + weight;
  for (size_t i = 0; i < importance_.size(); ++i) {
    importance_[i] =
        (importance_[i] * importance_weight_ + scores[i] * weight) / total;
  }
  importance_weight_ = total;
}

std::vector<int> SubspaceManager::Ranking() const {
  std::vector<int> order(importance_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return importance_[static_cast<size_t>(a)] >
           importance_[static_cast<size_t>(b)];
  });
  return order;
}

Subspace SubspaceManager::Current(const Configuration& base) const {
  std::vector<int> order = Ranking();
  order.resize(static_cast<size_t>(std::min<int>(k_, static_cast<int>(order.size()))));
  return Subspace(space_, std::move(order), base);
}

SubspaceState SubspaceManager::SaveState() const {
  SubspaceState s;
  s.k = k_;
  s.succ_count = succ_count_;
  s.fail_count = fail_count_;
  s.importance = importance_;
  s.importance_weight = importance_weight_;
  s.last_fanova_size = static_cast<uint64_t>(last_fanova_size_);
  return s;
}

void SubspaceManager::RestoreState(const SubspaceState& s) {
  k_ = s.k;
  succ_count_ = s.succ_count;
  fail_count_ = s.fail_count;
  importance_ = s.importance;
  importance_weight_ = s.importance_weight;
  last_fanova_size_ = static_cast<size_t>(s.last_fanova_size);
}

}  // namespace sparktune


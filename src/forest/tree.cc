#include "forest/tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

namespace sparktune {

SortedColumns::SortedColumns(size_t num_rows, size_t num_features)
    : num_rows_(num_rows),
      num_features_(num_features),
      values_(num_rows * num_features),
      rows_(num_rows * num_features) {}

Result<SortedColumns> SortedColumns::Build(
    const std::vector<std::vector<double>>& x) {
  if (x.empty()) return Status::InvalidArgument("tree needs at least one row");
  const size_t n = x.size();
  const size_t nf = x[0].size();
  for (size_t i = 1; i < n; ++i) {
    if (x[i].size() != nf) {
      return Status::InvalidArgument(
          "tree rows differ in width: row " + std::to_string(i) + " has " +
          std::to_string(x[i].size()) + " features, row 0 has " +
          std::to_string(nf));
    }
  }
  SortedColumns columns(n, nf);
  std::vector<int> order(n);
  for (size_t f = 0; f < nf; ++f) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double va = x[static_cast<size_t>(a)][f];
      const double vb = x[static_cast<size_t>(b)][f];
      return va < vb || (va == vb && a < b);
    });
    for (size_t r = 0; r < n; ++r) {
      columns.rows_[f * n + r] = order[r];
      columns.values_[f * n + r] = x[static_cast<size_t>(order[r])][f];
    }
  }
  return columns;
}

RegressionTree::RegressionTree(TreeOptions options) : options_(options) {}

// Per-fit state. A node owns the slots [lo, hi): of `sample`, its rows in
// the caller's sample order (node means are summed in that order), and,
// per feature, of `ranks`, the ranks of its rows in ascending order, one
// entry per draw of a row. A split stably partitions both in place, left
// rows first, so a subtree writes only inside its own slots.
struct RegressionTree::Workspace {
  const SortedColumns& columns;
  const std::vector<double>& y;
  size_t m = 0;  // sample size, repeated rows counted per draw
  std::vector<int> sample = {};
  std::vector<int> ranks = {};      // feature-major, features × m
  std::vector<char> goes_left = {};  // per row, current split
  // Scratch, m entries each: the right rows of a partition, and the cuts
  // of a split scan.
  std::vector<int> right = {};
  std::vector<int> cut_slot = {};
  std::vector<double> cut_sum = {};
  std::vector<double> cut_sum_sq = {};
};

namespace {

struct SplitResult {
  bool found = false;
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted SSE
};

// Scratch of BestSplitForFeature: one entry per slot of the node.
struct CutBuffers {
  int* slot;       // cut k puts the node's positions 0..k left
  double* sum;     // sum of y over positions 0..k
  double* sum_sq;  // sum of y^2 over positions 0..k
};

// Best split for one feature by exhaustive scan of the unique midpoints of
// a node's ranks (ascending, so rows come in (value, row) order). The
// serial pass adds y and y^2 in that order and records the prefix sums at
// each cut between distinct values that leaves `min_leaf` rows on both
// sides. Its final sums are the node totals, bit for bit, since a separate
// total pass would add the same terms in the same order. The recorded
// cuts are then scored in order with no serial chain between them, so
// their divisions overlap.
void BestSplitForFeature(const SortedColumns& columns,
                         const std::vector<double>& y, const int* ranks,
                         size_t n, int feature, int min_leaf,
                         const CutBuffers& cuts, SplitResult* best) {
  const size_t f = static_cast<size_t>(feature);
  double xn = columns.value(f, static_cast<size_t>(ranks[0]));
  // Ranks ascend, so equal ends mean one value and no cut.
  if (columns.value(f, static_cast<size_t>(ranks[n - 1])) == xn) return;
  const size_t leaf = static_cast<size_t>(std::max(min_leaf, 0));
  double sum = 0.0, sq = 0.0;
  size_t num_cuts = 0;
  for (size_t k = 0; k + 1 < n; ++k) {
    const double yi = y[static_cast<size_t>(columns.row(f, ranks[k]))];
    sum += yi;
    sq += yi * yi;
    const double xv = xn;
    xn = columns.value(f, static_cast<size_t>(ranks[k + 1]));
    if (xn <= xv) continue;  // same value, no valid threshold
    if (k + 1 < leaf || n - k - 1 < leaf) continue;
    cuts.slot[num_cuts] = static_cast<int>(k);
    cuts.sum[num_cuts] = sum;
    cuts.sum_sq[num_cuts] = sq;
    ++num_cuts;
  }
  const double y_last =
      y[static_cast<size_t>(columns.row(f, ranks[n - 1]))];
  const double total_sum = sum + y_last;
  const double total_sq = sq + y_last * y_last;
  for (size_t c = 0; c < num_cuts; ++c) {
    const size_t k = static_cast<size_t>(cuts.slot[c]);
    size_t nl = k + 1, nr = n - nl;
    const double left_sum = cuts.sum[c], left_sq = cuts.sum_sq[c];
    double right_sum = total_sum - left_sum;
    double right_sq = total_sq - left_sq;
    double sse_left = left_sq - left_sum * left_sum / static_cast<double>(nl);
    double sse_right =
        right_sq - right_sum * right_sum / static_cast<double>(nr);
    double score = sse_left + sse_right;
    if (score < best->score - 1e-15) {
      best->found = true;
      best->feature = feature;
      best->threshold =
          0.5 * (columns.value(f, static_cast<size_t>(ranks[k])) +
                 columns.value(f, static_cast<size_t>(ranks[k + 1])));
      best->score = score;
    }
  }
}

}  // namespace

Status RegressionTree::Fit(const SortedColumns& columns,
                           const std::vector<double>& y,
                           const std::vector<int>& sample_indices, Rng* rng) {
  const size_t n = columns.num_rows();
  if (y.size() != n) {
    return Status::InvalidArgument("tree needs one target per row");
  }
  num_features_ = columns.num_features();
  nodes_.clear();
  if (options_.max_features > 0 && rng == nullptr) {
    return Status::InvalidArgument("feature subsampling requires an Rng");
  }
  Workspace ws{columns, y};
  std::vector<int> draws;  // times each row is drawn; empty = once each
  if (sample_indices.empty()) {
    ws.sample.resize(n);
    std::iota(ws.sample.begin(), ws.sample.end(), 0);
  } else {
    draws.assign(n, 0);
    for (int i : sample_indices) {
      if (i < 0 || static_cast<size_t>(i) >= n) {
        return Status::InvalidArgument(
            "sample index " + std::to_string(i) + " outside [0, " +
            std::to_string(n) + ")");
      }
      ++draws[static_cast<size_t>(i)];
    }
    ws.sample = sample_indices;
  }
  ws.m = ws.sample.size();
  // Expand the sample from the sorted columns: each rank once per draw.
  ws.ranks.resize(num_features_ * ws.m);
  for (size_t f = 0; f < num_features_; ++f) {
    if (draws.empty()) {
      const auto first = ws.ranks.begin() + static_cast<ptrdiff_t>(f * ws.m);
      std::iota(first, first + static_cast<ptrdiff_t>(n), 0);
      continue;
    }
    size_t slot = f * ws.m;
    for (size_t r = 0; r < n; ++r) {
      for (int d = draws[static_cast<size_t>(columns.row(f, r))]; d > 0; --d) {
        ws.ranks[slot++] = static_cast<int>(r);
      }
    }
  }
  ws.goes_left.resize(n);
  ws.right.resize(ws.m);
  ws.cut_slot.resize(ws.m);
  ws.cut_sum.resize(ws.m);
  ws.cut_sum_sq.resize(ws.m);
  Build(ws, 0, ws.m, 0, rng);
  return Status::OK();
}

int RegressionTree::Build(Workspace& ws, size_t lo, size_t hi, int depth,
                          Rng* rng) {
  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  double sum = 0.0, sq = 0.0;
  for (size_t s = lo; s < hi; ++s) {
    const double yi = ws.y[static_cast<size_t>(ws.sample[s])];
    sum += yi;
    sq += yi * yi;
  }
  const size_t count = hi - lo;
  double mean = sum / static_cast<double>(count);
  double node_sse = sq - sum * mean;
  nodes_[static_cast<size_t>(node_id)].value = mean;
  nodes_[static_cast<size_t>(node_id)].num_samples = static_cast<int>(count);

  // A node splits only below the depth limit and with enough samples.
  auto can_split = [&](int node_depth, size_t node_count) {
    return node_depth < options_.max_depth &&
           static_cast<int>(node_count) >= options_.min_samples_split;
  };
  if (!can_split(depth, count)) return node_id;

  // Candidate features.
  std::vector<int> features;
  int nf = static_cast<int>(num_features_);
  if (options_.max_features > 0 && options_.max_features < nf) {
    features = rng->SampleWithoutReplacement(nf, options_.max_features);
  } else {
    features.resize(static_cast<size_t>(nf));
    std::iota(features.begin(), features.end(), 0);
  }

  SplitResult best;
  const CutBuffers cuts = {ws.cut_slot.data(), ws.cut_sum.data(),
                           ws.cut_sum_sq.data()};
  for (int f : features) {
    BestSplitForFeature(ws.columns, ws.y,
                        ws.ranks.data() + static_cast<size_t>(f) * ws.m + lo,
                        count, f, options_.min_samples_leaf, cuts, &best);
  }
  if (!best.found) return node_id;

  // Route rows by x[feature] <= threshold, as prediction does.
  const size_t bf = static_cast<size_t>(best.feature);
  for (size_t s = bf * ws.m + lo; s < bf * ws.m + hi; ++s) {
    const size_t rank = static_cast<size_t>(ws.ranks[s]);
    ws.goes_left[static_cast<size_t>(ws.columns.row(bf, rank))] =
        ws.columns.value(bf, rank) <= best.threshold;
  }
  size_t nl = 0;
  for (size_t s = lo; s < hi; ++s) {
    nl += ws.goes_left[static_cast<size_t>(ws.sample[s])] ? 1 : 0;
  }
  if (nl == 0 || nl == count) return node_id;

  // Stable partition in place: left rows to [lo, lo + nl), right rows to
  // [lo + nl, hi) by way of `ws.right`, without a branch on the side. The
  // left write never passes the read. Ranks only matter to children that
  // split.
  auto partition = [&](int* slots, auto row_of) {
    size_t left = 0, right = 0;
    for (size_t s = 0; s < count; ++s) {
      const int v = slots[s];
      const size_t to_left = ws.goes_left[row_of(v)] != 0 ? 1 : 0;
      slots[left] = v;
      ws.right[right] = v;
      left += to_left;
      right += 1 - to_left;
    }
    std::copy(ws.right.begin(),
              ws.right.begin() + static_cast<ptrdiff_t>(right), slots + left);
  };
  partition(ws.sample.data() + lo,
            [](int row) { return static_cast<size_t>(row); });
  if (can_split(depth + 1, nl) || can_split(depth + 1, count - nl)) {
    for (size_t f = 0; f < num_features_; ++f) {
      partition(ws.ranks.data() + f * ws.m + lo, [&](int rank) {
        return static_cast<size_t>(
            ws.columns.row(f, static_cast<size_t>(rank)));
      });
    }
  }

  int left = Build(ws, lo, lo + nl, depth + 1, rng);
  int right = Build(ws, lo + nl, hi, depth + 1, rng);
  Node& node = nodes_[static_cast<size_t>(node_id)];
  node.is_leaf = false;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  node.impurity_decrease = std::max(0.0, node_sse - best.score);
  return node_id;
}

std::vector<double> RegressionTree::FeatureImportance() const {
  std::vector<double> imp(num_features_, 0.0);
  double total = 0.0;
  for (const Node& n : nodes_) {
    if (n.is_leaf) continue;
    imp[static_cast<size_t>(n.feature)] += n.impurity_decrease;
    total += n.impurity_decrease;
  }
  if (total > 0.0) {
    for (auto& v : imp) v /= total;
  }
  return imp;
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  assert(!nodes_.empty());
  int cur = 0;
  while (!nodes_[static_cast<size_t>(cur)].is_leaf) {
    const Node& n = nodes_[static_cast<size_t>(cur)];
    cur = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(cur)].value;
}

}  // namespace sparktune

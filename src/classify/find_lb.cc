#include "classify/find_lb.h"

#include <algorithm>

#include "core/stats.h"
#include "util/hot_path.h"
#include "util/status.h"

namespace topkrgs {

std::vector<double> ItemScoresFromDiscrete(const DiscreteDataset& data) {
  std::vector<double> scores(data.num_items(), 0.0);
  std::vector<uint32_t> total(data.num_classes(), 0);
  for (RowId r = 0; r < data.num_rows(); ++r) ++total[data.label(r)];
  for (ItemId item = 0; item < data.num_items(); ++item) {
    std::vector<uint32_t> with(data.num_classes(), 0);
    data.item_rows(item).ForEach([&](size_t r) {
      ++with[data.label(static_cast<RowId>(r))];
    });
    std::vector<uint32_t> without(data.num_classes(), 0);
    for (uint32_t c = 0; c < data.num_classes(); ++c) {
      without[c] = total[c] - with[c];
    }
    scores[item] = InformationGain(total, {with, without});
  }
  return scores;
}

const std::vector<double>& ResolveItemScores(const DiscreteDataset& data,
                                             const std::vector<double>& supplied,
                                             std::vector<double>* computed) {
  if (!supplied.empty()) return supplied;
  *computed = ItemScoresFromDiscrete(data);
  return *computed;
}

namespace {

/// Breadth-first search for the minimal sub-antecedents A' of a rule group
/// with R(A') == R(A) (Lemma 5.1), over the first `window` entries of
/// `items`. A candidate is an ascending list of indices into `items`;
/// its children append one larger index, so every combination is made
/// once and the children of one parent are visited together. A' ⊆ A
/// implies R(A') ⊇ R(A), so a candidate matches iff its row count equals
/// the group's.
///
/// Each level is kept as its expanded parents only, in one flat index
/// buffer (stride = parent depth); their children are generated while
/// the level is scanned. A stack of prefix row intersections of the
/// current parent is refreshed from the first index where it differs from
/// the previous parent, so a child costs one fused AND+popcount of the
/// parent's rows against its last item's rows. Buffers are reused across
/// levels and windows.
class LowerBoundSearch {
 public:
  LowerBoundSearch(const DiscreteDataset& data,
                   const std::vector<ItemId>& items, uint32_t target_rows,
                   uint32_t max_depth)
      : data_(data),
        items_(items),
        target_rows_(target_rows),
        max_depth_(max_depth),
        all_rows_(Bitset::AllSet(data.num_rows())),
        prefix_(std::min<size_t>(max_depth, items.size()),
                Bitset(data.num_rows())),
        cand_(std::min<size_t>(max_depth, items.size())) {}

  /// Searches subsets of the first `window` items, level by level, until
  /// `max_found` lower bounds are found, `max_candidates` candidates have
  /// been examined or max_depth is passed. A level holds at most
  /// max_candidates candidates (the first level holds the whole window).
  /// A candidate that contains a lower bound already found is skipped.
  /// Returns the number of candidates examined.
  uint64_t Run(uint32_t window, uint64_t max_found, uint64_t max_candidates) {
    found_.clear();
    found_ends_.clear();
    parents_.clear();
    uint32_t stride = 0;  // the first level's one parent is the empty set
    uint64_t level_size = window;
    uint64_t examined = 0;
    for (uint32_t depth = 1; level_size > 0 && num_found() < max_found &&
                             depth <= max_depth_ && examined < max_candidates;
         ++depth) {
      next_.clear();
      level_size = ScanLevel(stride, depth == 1 ? window : max_candidates,
                             window, max_found, max_candidates, &examined);
      std::swap(parents_, next_);
      stride = depth;
    }
    return examined;
  }

  size_t num_found() const { return found_ends_.size(); }

  /// The i-th lower bound found by the last Run, as a rule of `group`.
  Rule FoundRule(size_t i, const RuleGroup& group) const {
    Rule rule;
    rule.antecedent = Bitset(data_.num_items());
    for (size_t j = i == 0 ? 0 : found_ends_[i - 1]; j < found_ends_[i]; ++j) {
      rule.antecedent.Set(items_[found_[j]]);
    }
    rule.consequent = group.consequent;
    rule.support = group.support;
    rule.antecedent_support = group.antecedent_support;
    return rule;
  }

 private:
  /// Visits one level: the children of the parents in parents_ (stride
  /// `stride`), the first `level_limit` of them, in order. Records each
  /// lower bound found and appends to next_ the candidates to expand,
  /// until those carry max_candidates children. Returns the size of the
  /// next level. Hot: called for every candidate subset FindLB examines.
  TKRGS_HOT uint64_t ScanLevel(uint32_t stride, uint64_t level_limit,
                               uint32_t window, uint64_t max_found,
                               uint64_t max_candidates, uint64_t* examined) {
    const size_t num_parents = stride == 0 ? 1 : parents_.size() / stride;
    const uint32_t* prev = nullptr;
    uint64_t visited = 0;
    uint64_t next_size = 0;
    for (size_t p = 0; p < num_parents && visited < level_limit; ++p) {
      const uint32_t* parent = parents_.data() + p * stride;
      const uint32_t first = stride == 0 ? 0 : parent[stride - 1] + 1;
      if (first >= window) continue;
      uint32_t k = 0;
      if (prev != nullptr) {
        while (k < stride && parent[k] == prev[k]) ++k;
      }
      for (; k < stride; ++k) {
        prefix_[k].AssignIntersectionOf(k == 0 ? all_rows_ : prefix_[k - 1],
                                        data_.item_rows(items_[parent[k]]));
        cand_[k] = parent[k];
      }
      prev = parent;
      const Bitset& parent_rows = stride == 0 ? all_rows_ : prefix_[stride - 1];
      for (uint32_t idx = first; idx < window && visited < level_limit;
           ++idx, ++visited) {
        if (num_found() >= max_found || *examined >= max_candidates) return 0;
        ++*examined;
        cand_[stride] = idx;
        uint32_t* cand_end = cand_.data() + stride + 1;
        if (ContainsFound(cand_end)) continue;  // supersets are not minimal
        if (parent_rows.IntersectCount(data_.item_rows(items_[idx])) ==
            target_rows_) {
          // NOLINT(hotpath: bounded — once per lower bound found, at most
          // max_found per search)
          found_.insert(found_.end(), cand_.data(), cand_end);
          found_ends_.push_back(found_.size());  // NOLINT(hotpath: as above)
          continue;
        }
        if (idx + 1 < window && next_size < max_candidates) {
          // NOLINT(hotpath: amortized zero — the buffer keeps its capacity
          // across levels, windows and the parents it holds)
          next_.insert(next_.end(), cand_.data(), cand_end);
          next_size += window - 1 - idx;
        }
      }
    }
    return std::min(next_size, max_candidates);
  }

  /// True iff the candidate cand_[0, end) contains a lower bound already
  /// found, which makes it non-minimal (levels run shortest-first).
  bool ContainsFound(const uint32_t* end) const {
    const uint32_t* begin = cand_.data();
    for (size_t i = 0, from = 0; i < found_ends_.size();
         from = found_ends_[i++]) {
      if (std::includes(begin, end, found_.data() + from,
                        found_.data() + found_ends_[i])) {
        return true;
      }
    }
    return false;
  }

  const DiscreteDataset& data_;
  const std::vector<ItemId>& items_;
  const uint32_t target_rows_;
  const uint32_t max_depth_;
  const Bitset all_rows_;
  std::vector<Bitset> prefix_;  // prefix_[k]: rows of parent[0..k]
  std::vector<uint32_t> cand_;  // the candidate being visited
  std::vector<uint32_t> parents_, next_;
  std::vector<uint32_t> found_;       // lower bounds' indices, concatenated
  std::vector<size_t> found_ends_;    // end of each in found_
};

}  // namespace

std::vector<Rule> FindLowerBounds(const DiscreteDataset& data,
                                  const RuleGroup& group,
                                  const std::vector<double>& item_scores,
                                  const FindLbOptions& options) {
  const uint32_t nl = std::max<uint32_t>(1, options.num_lower_bounds);

  // Step 1: rank the upper bound's items by descending score.
  std::vector<ItemId> ranked = group.antecedent.ToVector();
  std::vector<double> computed;
  const std::vector<double>& scores =
      ResolveItemScores(data, item_scores, &computed);
  TOPKRGS_CHECK(scores.size() >= data.num_items(), "item_scores too short");
  std::stable_sort(ranked.begin(), ranked.end(), [&](ItemId a, ItemId b) {
    return scores[a] > scores[b];
  });

  // Step 2: breadth-first search, iteratively widening the window of
  // top-ranked items so the common case (short lower bounds among the most
  // discriminative genes) stays cheap.
  LowerBoundSearch search(data, ranked, group.antecedent_support,
                          options.max_depth);
  for (uint32_t window = std::min<size_t>(16, ranked.size());;
       window = std::min<size_t>(static_cast<size_t>(window) * 2,
                                 ranked.size())) {
    const uint64_t examined = search.Run(window, nl, options.max_candidates);
    if (search.num_found() >= nl || window == ranked.size() ||
        examined >= options.max_candidates) {
      break;
    }
  }

  std::vector<Rule> found;
  for (size_t i = 0; i < search.num_found(); ++i) {
    found.push_back(search.FoundRule(i, group));
  }
  if (found.empty() && !ranked.empty()) {
    // The bounded BFS can come up empty when every minimal lower bound is
    // longer than max_depth (e.g. a closure that needs several items to
    // exclude every outside row). Guarantee at least one rule by greedy
    // minimization: drop items (least discriminative first) whenever the
    // support set stays unchanged.
    Bitset antecedent = group.antecedent;
    for (auto it = ranked.rbegin(); it != ranked.rend(); ++it) {
      if (antecedent.Count() <= 1) break;
      Bitset trial = antecedent;
      trial.Reset(*it);
      if (data.ItemSupportSet(trial).Count() == group.antecedent_support) {
        antecedent = std::move(trial);
      }
    }
    Rule rule;
    rule.antecedent = std::move(antecedent);
    rule.consequent = group.consequent;
    rule.support = group.support;
    rule.antecedent_support = group.antecedent_support;
    found.push_back(std::move(rule));
  }
  return found;
}

std::vector<Rule> FindAllLowerBounds(const DiscreteDataset& data,
                                     const RuleGroup& group,
                                     uint32_t max_depth, uint64_t max_bounds) {
  const std::vector<ItemId> items = group.antecedent.ToVector();
  LowerBoundSearch search(data, items, group.antecedent_support, max_depth);
  // NOLINT(cast: items.size() <= num_items, a uint32)
  search.Run(static_cast<uint32_t>(items.size()),
             max_bounds == 0 ? UINT64_MAX : max_bounds, UINT64_MAX);
  std::vector<Rule> found;
  for (size_t i = 0; i < search.num_found(); ++i) {
    found.push_back(search.FoundRule(i, group));
  }
  return found;
}

}  // namespace topkrgs

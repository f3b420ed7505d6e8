#include "mine/topk_miner.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "mine/projection.h"
#include "mine/topk_list.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/hot_path.h"
#include "util/rowset.h"
#include "util/status.h"

namespace topkrgs {

namespace {

/// A rule group shared between the per-row lists of every row it covers.
/// Seeded single-item groups start `provisional`: their antecedent is the
/// single item, not yet the closure (upper bound); they are upgraded in
/// place when the real upper bound is emitted, or closed explicitly in the
/// finalization pass.
struct GroupHandle {
  RuleGroup group;
  bool provisional = false;
};
using HandlePtr = std::shared_ptr<GroupHandle>;

/// Significance threshold (sup, antecedent_sup). (0, 0) is the dummy with
/// confidence 0.
struct Thresh {
  uint32_t sup = 0;
  uint32_t asup = 0;
};

/// Whether a candidate of significance (sup, asup) can never enter a top-k
/// list guarded by `cut`. Strictly worse always loses, and so does an exact
/// tie: every entry already listed was discovered before the candidate,
/// and InsertTopk keeps the earlier of two tied groups.
inline bool Dominated(uint32_t sup, uint32_t asup, const Thresh& cut) {
  return CompareSignificance(sup, asup, cut.sup, cut.asup) <= 0;
}

/// Algorithm MineTopkRGS (Figure 3): one depth-first row enumeration on
/// the calling thread that updates the per-row top-k lists in place. The
/// pruning thresholds are read straight from the lists' k-th entries.
class TopkSearch {
 public:
  TopkSearch(const DiscreteDataset& data, ClassLabel consequent,
             const TopkMinerOptions& options)
      : data_(data),
        consequent_(consequent),
        opt_(options),
        hooks_(options.shard_hooks) {}

  TopkResult Run();

 private:
  /// Sentinel for "no epoch observed yet" (forces the first refresh).
  static constexpr uint64_t kEpochNever = ~0ull;

  template <typename Proj>
  TKRGS_HOT void Visit(const Proj& proj, const RowSet& items,
                       uint32_t items_count, size_t depth,
                       bool closed_on_left);

  void SeedSingleItems(const Bitset& frequent_items);
  /// Offers `handle` to `pos`'s list; bumps the epoch when the list is
  /// full and changed, i.e. when its k-th entry may have moved.
  void Insert(uint32_t pos, const HandlePtr& handle);
  /// The significance of the k-th entry of `pos`'s list; (0, 0) while the
  /// list holds fewer than k groups (a real group always has support >=
  /// 1, so the sentinel is unambiguous).
  TKRGS_HOT Thresh KthOf(uint32_t pos) const;
  TKRGS_HOT void MaybeRaiseMinsup();
  TKRGS_HOT Thresh ComputeCut(const std::vector<uint32_t>& x_stack,
                              const std::vector<uint32_t>& candidates) const;
  TKRGS_HOT bool Hopeless(uint32_t best_sup, uint32_t min_neg,
                          const Thresh& cut) const;
  TKRGS_HOT void EmitAt(const RowSet& items, const Thresh& cut);
  uint32_t FinalEffectiveMinsup() const;
  void Finalize(const Bitset& frequent_items, TopkResult* result);

  bool IsPos(uint32_t pos) const { return pos_positive_[pos] != 0; }

  /// Sharded mining (DESIGN.md §14): does some row BEFORE this shard's
  /// suffix contain `items`? Such a row behaves exactly like an earlier
  /// in-dataset row under the backward check: the node duplicates a branch
  /// an earlier shard enumerates. False in stand-alone mining.
  bool ContainedOutside(const RowSet& items) const {
    return hooks_ != nullptr && hooks_->contained_outside &&
           hooks_->contained_outside(items);
  }

  const DiscreteDataset& data_;
  const ClassLabel consequent_;
  const TopkMinerOptions& opt_;
  const ShardHooks* const hooks_;

  std::vector<RowId> order_;           // position -> original row id
  std::vector<uint32_t> position_of_;  // original row id -> position
  std::vector<uint8_t> pos_positive_;  // position -> is consequent-class
  std::vector<uint32_t> positive_positions_;
  uint32_t initial_minsup_ = 1;

  /// Per-row top-k lists, indexed by position.
  std::vector<std::vector<HandlePtr>> lists_;
  /// Dynamically raised minimum support (§4.1.1); never decreases.
  uint32_t minsup_ = 1;
  /// Bumped whenever a k-th entry may have changed or minsup is raised,
  /// i.e. whenever a recomputed cut or minsup could differ from one
  /// computed earlier. MaybeRaiseMinsup and the child loop's cut refresh
  /// redo their O(rows) scans only on a change.
  uint64_t epoch_ = 0;
  uint64_t minsup_epoch_ = kEpochNever;  // epoch of the last minsup scan

  // DFS state: the enumeration stack X (including absorbed rows), its
  // membership flags and its positive/negative row counts.
  std::vector<uint32_t> x_stack_;
  std::vector<uint8_t> in_x_;
  uint32_t xp_ = 0;
  uint32_t xn_ = 0;
  VectorPool<uint32_t> scratch_;
  PrefixTree::Arena tree_arena_;
  // One RowSet per enumeration depth, reused across every sibling at that
  // depth: IntersectAdaptiveInto refills the slot's id array or bitmap in
  // place, so the per-node intersection stops allocating once each depth
  // has been visited once. A deque keeps references stable while deeper
  // slots append.
  std::deque<RowSet> rowset_scratch_;

  bool stopped_ = false;
  MinerStats stats_;
};

void TopkSearch::Insert(uint32_t pos, const HandlePtr& handle) {
  auto& list = lists_[pos];
  if (InsertTopk(list, handle, opt_.k) && list.size() >= opt_.k) ++epoch_;
}

Thresh TopkSearch::KthOf(uint32_t pos) const {
  const auto& list = lists_[pos];
  if (list.size() < opt_.k) return Thresh{};
  const RuleGroup& kth = list.back()->group;
  return Thresh{kth.support, kth.antecedent_support};
}

void TopkSearch::SeedSingleItems(const Bitset& frequent_items) {
  const Bitset class_rows = data_.ClassRowset(consequent_);
  frequent_items.ForEach([&](size_t item_index) {
    const ItemId item = static_cast<ItemId>(item_index);
    if (hooks_ != nullptr && hooks_->contained_outside &&
        ContainedOutside(RowSet::SparseFrom({item}, data_.num_items()))) {
      // Sharded mining: a pre-suffix row holds this item, so an earlier
      // shard plants (and eventually closes) the identical seed; the merge
      // reconstructs seeds from the global table anyway (DESIGN.md §14).
      return;
    }
    const Bitset& rows = data_.item_rows(item);
    auto handle = std::make_shared<GroupHandle>();
    handle->provisional = true;
    handle->group.antecedent = Bitset(data_.num_items());
    handle->group.antecedent.Set(item);
    handle->group.row_support = rows;
    handle->group.consequent = consequent_;
    handle->group.antecedent_support = static_cast<uint32_t>(rows.Count());
    handle->group.support =
        static_cast<uint32_t>(rows.IntersectCount(class_rows));
    rows.ForEach([&](size_t row) {
      if (data_.label(static_cast<RowId>(row)) != consequent_) return;
      Insert(position_of_[row], handle);
    });
  });
}

void TopkSearch::MaybeRaiseMinsup() {
  if (!opt_.dynamic_min_support) return;
  // The O(np) scan below can only conclude anything new after some k-th
  // entry moved; the epoch says whether one did. This is what makes
  // calling it at EVERY node affordable.
  if (epoch_ == minsup_epoch_) return;
  minsup_epoch_ = epoch_;
  uint32_t lowest = UINT32_MAX;
  for (uint32_t pos : positive_positions_) {
    const Thresh t = KthOf(pos);
    if (t.sup == 0 || t.sup != t.asup) {
      return;  // some list not full yet, or its k-th below 100% confidence
    }
    lowest = std::min(lowest, t.sup);
  }
  // Every row already holds k groups of 100% confidence with support >=
  // lowest: anything with support < lowest is strictly less significant
  // than every k-th entry. (The paper raises to lowest+1; the exact ties
  // that extra level would prune are rejected by the top-k cut instead.
  // The reported effective minimum support follows the paper's rule and
  // is recomputed in FinalEffectiveMinsup.)
  if (lowest != UINT32_MAX && lowest > minsup_) {
    minsup_ = lowest;  // only ever raised: dynamic minsup is monotone
    ++epoch_;
  }
}

Thresh TopkSearch::ComputeCut(const std::vector<uint32_t>& x_stack,
                              const std::vector<uint32_t>& candidates) const {
  // Equation 1/2: the weakest k-th entry over the rows the subtree can
  // still cover (Lemma 3.2: Xp ∪ Rp).
  bool first = true;
  Thresh cut;
  auto consider = [&](uint32_t pos) {
    const Thresh t = KthOf(pos);
    if (first || CompareSignificance(t.sup, t.asup, cut.sup, cut.asup) < 0) {
      cut = t;
      first = false;
    }
  };
  for (uint32_t pos : x_stack) {
    if (IsPos(pos)) consider(pos);
  }
  for (uint32_t pos : candidates) {
    if (IsPos(pos)) consider(pos);
  }
  if (first) {
    cut = Thresh{UINT32_MAX, UINT32_MAX};  // no coverable row: prune all
  }
  return cut;
}

bool TopkSearch::Hopeless(uint32_t best_sup, uint32_t min_neg,
                          const Thresh& cut) const {
  if (best_sup < minsup_) return true;
  if (!opt_.use_topk_pruning) return false;
  // Best achievable significance in the subtree: support best_sup with
  // confidence best_sup / (best_sup + min_neg).
  return Dominated(best_sup, best_sup + min_neg, cut);
}

void TopkSearch::EmitAt(const RowSet& items, const Thresh& cut) {
  if (xp_ < minsup_) return;
  if (opt_.use_topk_pruning && Dominated(xp_, xp_ + xn_, cut)) {
    // Beaten on every coverable row by k listed entries: it can never
    // enter a list. (A suppressed emission may duplicate a provisional
    // seed's support set; Finalize closes surviving provisionals itself,
    // so the lost upgrade is harmless.)
    return;
  }
  // NOLINT(hotpath: one handle per emitted group; EmitAt runs only for
  // closed nodes that pass the top-k admission cut, not per node)
  auto handle = std::make_shared<GroupHandle>();
  // NOLINT(hotpath: materializes the emitted group's itemset once)
  handle->group.antecedent = items.ToBitset();
  handle->group.consequent = consequent_;
  handle->group.support = xp_;
  handle->group.antecedent_support = xp_ + xn_;
  // NOLINT(hotpath: row-support bitmap built once per emitted group)
  Bitset rows(data_.num_rows());
  for (uint32_t pos : x_stack_) rows.Set(order_[pos]);
  handle->group.row_support = std::move(rows);
  ++stats_.groups_emitted;
  for (uint32_t pos : x_stack_) {
    if (IsPos(pos)) Insert(pos, handle);
  }
}

template <typename Proj>
void TopkSearch::Visit(const Proj& proj, const RowSet& items,
                       uint32_t items_count, size_t depth,
                       bool closed_on_left) {
  if (stopped_) return;
  ++stats_.nodes_visited;
  if (opt_.deadline.Expired()) {
    stopped_ = true;
    stats_.timed_out = true;
    return;
  }
  if (items_count == 0) return;  // I(X) = ∅: no rules below this node

  PooledVector<uint32_t> cand_lease(&scratch_);
  std::vector<uint32_t>& cand = *cand_lease;
  // NOLINT(hotpath: fills a pooled lease whose capacity is retained)
  proj.Positions(&cand);
  std::erase_if(cand, [&](uint32_t p) { return in_x_[p] != 0; });

  uint32_t rp = 0;  // positive candidate rows (bounds the subtree's support)
  for (uint32_t p : cand) {
    if (IsPos(p)) ++rp;
  }

  // Step 8: threshold updating.
  MaybeRaiseMinsup();
  uint64_t cut_epoch = epoch_;
  Thresh cut = ComputeCut(x_stack_, cand);

  // Step 9: loose bounds (no scan needed).
  if (opt_.use_bound_pruning && Hopeless(xp_ + rp, xn_, cut)) {
    ++stats_.pruned_bounds;
    return;
  }

  // Step 10: scan TT'|_X — frequencies, then absorb rows occurring in every
  // tuple (they appear in all descendants).
  PooledVector<uint32_t> live_lease(&scratch_);
  PooledVector<uint32_t> freq_lease(&scratch_);
  PooledVector<uint32_t> absorbed_lease(&scratch_);
  std::vector<uint32_t>& live = *live_lease;
  std::vector<uint32_t>& live_freq = *freq_lease;
  std::vector<uint32_t>& absorbed = *absorbed_lease;
  uint32_t mp = 0;
  for (uint32_t p : cand) {
    const uint32_t f = proj.Freq(p, items);
    if (f == items_count) {
      // NOLINT(hotpath: pooled lease retains capacity across nodes)
      absorbed.push_back(p);
    } else if (f > 0) {
      // NOLINT(hotpath: pooled lease retains capacity across nodes)
      live.push_back(p);
      live_freq.push_back(f);  // NOLINT(hotpath: pooled lease, as above)
      if (IsPos(p)) ++mp;
    }
  }
  for (uint32_t p : absorbed) {
    in_x_[p] = 1;
    // NOLINT(hotpath: DFS stack retains capacity; amortized O(1))
    x_stack_.push_back(p);
    IsPos(p) ? ++xp_ : ++xn_;
  }

  // Step 11: tight bounds (mp = candidate consequent rows that can still
  // appear in a descendant antecedent support set).
  const bool pruned = opt_.use_bound_pruning &&
                      Hopeless(xp_ + mp, xn_, ComputeCut(x_stack_, live));
  if (pruned) {
    ++stats_.pruned_bounds;
  } else {
    // Step 13: emit the rule group of this node and update covered rows.
    // Only nodes with X == R(I(X)) carry a rule group; when the backward
    // check failed we are in a redundant subtree that emits nothing.
    if (closed_on_left) EmitAt(items, cut);

    // Positive candidates at positions after live[i] — the only rows that
    // can still raise a child subtree's support beyond X.
    PooledVector<uint32_t> suffix_lease(&scratch_);
    std::vector<uint32_t>& suffix_pos = *suffix_lease;
    // NOLINT(hotpath: pooled lease retains capacity across nodes)
    suffix_pos.assign(live.size() + 1, 0);
    for (size_t i = live.size(); i-- > 0;) {
      suffix_pos[i] = suffix_pos[i + 1] + (IsPos(live[i]) ? 1 : 0);
    }

    // The root checks each child against the cut over the rows it can
    // still cover (X ∪ live) from the first child on; deeper nodes keep
    // the node-entry cut until a threshold moves.
    if (depth == 0) cut_epoch = kEpochNever;
    // Sharded mining: only first-level children at local positions below
    // the planner's limit are mined here. Children at or past it root
    // subtrees whose every closed group has its earliest non-absorbed row
    // in a LATER shard's owned range — that shard mines them. live is
    // ascending in position, so the eligible children are a prefix.
    const uint32_t child_limit =
        depth == 0 && hooks_ != nullptr ? hooks_->first_level_limit
                                        : UINT32_MAX;

    // Step 14: enumerate children in ORD order. Step 7's backward check
    // runs here, before the child projection is built: a skipped earlier
    // row containing I(X ∪ {p}) means the child duplicates an earlier
    // branch (X' != R(I(X')) there and at every descendant), so nothing in
    // it may be emitted and — when the pruning is enabled — the projection
    // need not even be constructed. Redundancy propagates downward (the
    // earlier row also contains every descendant's smaller I), so in
    // ablation mode each descendant's own check re-detects it.
    for (size_t i = 0; i < live.size() && !stopped_; ++i) {
      const uint32_t p = live[i];
      if (p >= child_limit) break;
      if ((opt_.use_topk_pruning || opt_.use_bound_pruning) &&
          epoch_ != cut_epoch) {
        // Refresh the cut whenever a k-th entry moved since it was
        // computed: an emission in an earlier child's subtree may have
        // tightened a bound that prunes the children still to come.
        cut_epoch = epoch_;
        cut = ComputeCut(x_stack_, live);
      }
      if (opt_.use_bound_pruning) {
        // Per-child loose bounds before any per-child work: support in the
        // child subtree is capped by X, the branch row, and the positive
        // candidates ordered after it; the parent's cut is a lower bound on
        // every child's cut, so pruning against it is sound.
        const uint32_t child_sup_ub =
            xp_ + (IsPos(p) ? 1 : 0) + suffix_pos[i + 1];
        const uint32_t child_min_neg = xn_ + (IsPos(p) ? 0 : 1);
        if (Hopeless(child_sup_ub, child_min_neg, cut)) {
          ++stats_.pruned_bounds;
          continue;
        }
      }
      // The parent's `items` lives at a shallower slot (or outside the
      // pool entirely), so writing this depth's slot never aliases it.
      if (rowset_scratch_.size() <= depth) {
        // NOLINT(hotpath: one-time growth per depth first reached; every
        // later node at this depth reuses the slot allocation-free)
        rowset_scratch_.resize(depth + 1);
      }
      RowSet& child_items = rowset_scratch_[depth];
      items.IntersectAdaptiveInto(data_.row_bitset(order_[p]), &child_items);
      bool child_closed = true;
      for (uint32_t q = 0; q < p; ++q) {
        if (!in_x_[q] && child_items.IsSubsetOf(data_.row_bitset(order_[q]))) {
          child_closed = false;
          break;
        }
      }
      // Sharded mining: a pre-suffix row containing I(X ∪ {p}) is an
      // "earlier row" of the global order exactly like the q-loop above —
      // the child duplicates a branch an earlier shard enumerates.
      if (child_closed && ContainedOutside(child_items)) child_closed = false;
      if (!child_closed) {
        ++stats_.pruned_backward;
        if (opt_.use_backward_pruning) continue;
      }
      in_x_[p] = 1;
      x_stack_.push_back(p);  // NOLINT(hotpath: stack keeps capacity)
      IsPos(p) ? ++xp_ : ++xn_;
      // NOLINT(hotpath: the child projection build is the per-child
      // descent cost — arena-backed for the tree strategy, by-design
      // rebuild scans for the bitset/vector strategies)
      Visit(proj.Child(p, live), child_items, live_freq[i], depth + 1,
            child_closed);
      IsPos(p) ? --xp_ : --xn_;
      x_stack_.pop_back();
      in_x_[p] = 0;
    }
  }

  for (auto it = absorbed.rbegin(); it != absorbed.rend(); ++it) {
    const uint32_t p = *it;
    IsPos(p) ? --xp_ : --xn_;
    x_stack_.pop_back();
    in_x_[p] = 0;
  }
}

uint32_t TopkSearch::FinalEffectiveMinsup() const {
  // The paper's dynamic minsup raise (§4.1.1, second optimization),
  // recomputed from the final lists: the search itself raises one level
  // less (see MaybeRaiseMinsup).
  uint32_t effective = initial_minsup_;
  if (!opt_.dynamic_min_support || positive_positions_.empty()) {
    return effective;
  }
  uint32_t lowest = UINT32_MAX;
  for (uint32_t pos : positive_positions_) {
    const auto& list = lists_[pos];
    if (list.size() < opt_.k) return effective;
    const RuleGroup& kth = list.back()->group;
    if (kth.support == 0 || kth.support != kth.antecedent_support) {
      return effective;
    }
    lowest = std::min(lowest, kth.support);
  }
  if (lowest != UINT32_MAX) effective = std::max(effective, lowest + 1);
  return effective;
}

void TopkSearch::Finalize(const Bitset& frequent_items, TopkResult* result) {
  result->per_row.assign(data_.num_rows(), {});
  for (uint32_t pos = 0; pos < pos_positive_.size(); ++pos) {
    if (!IsPos(pos)) continue;
    auto& out = result->per_row[order_[pos]];
    for (const HandlePtr& handle : lists_[pos]) {
      if (handle->provisional) {
        // Close the seeded single item: its upper bound was never emitted
        // (the emitting node was pruned as strictly-dominated).
        Bitset closure = data_.RowSupportSet(handle->group.row_support);
        closure.IntersectWith(frequent_items);
        handle->group.antecedent = std::move(closure);
        handle->provisional = false;
      }
      out.push_back(RuleGroupPtr(handle, &handle->group));
    }
  }
}

TopkResult TopkSearch::Run() {
  Stopwatch timer;
  const Status options_status = opt_.Validate();
  TOPKRGS_CHECK(options_status.ok(), options_status.message().c_str());
  initial_minsup_ = std::max<uint32_t>(1, opt_.min_support);
  minsup_ = initial_minsup_;

  // Sharded mining substitutes the GLOBAL frequent-item set: a suffix's
  // own frequent set diverges from the global one, which would change the
  // enumeration universe and thus the emitted closures (DESIGN.md §14).
  const Bitset frequent =
      (hooks_ != nullptr && hooks_->frequent_items != nullptr)
          ? *hooks_->frequent_items
          : FrequentItems(data_, consequent_, initial_minsup_);
  switch (opt_.row_order) {
    case TopkMinerOptions::RowOrder::kClassDominantWeighted:
      order_ = ClassDominantOrder(data_, consequent_, frequent);
      break;
    case TopkMinerOptions::RowOrder::kClassDominant:
      // Empty weight set keeps rows in original order within each class.
      order_.clear();
      for (RowId r = 0; r < data_.num_rows(); ++r) {
        if (data_.label(r) == consequent_) order_.push_back(r);
      }
      for (RowId r = 0; r < data_.num_rows(); ++r) {
        if (data_.label(r) != consequent_) order_.push_back(r);
      }
      break;
    case TopkMinerOptions::RowOrder::kNatural:
      order_.resize(data_.num_rows());
      for (RowId r = 0; r < data_.num_rows(); ++r) order_[r] = r;
      break;
  }
  position_of_.assign(data_.num_rows(), 0);
  pos_positive_.assign(data_.num_rows(), 0);
  positive_positions_.clear();
  for (uint32_t pos = 0; pos < order_.size(); ++pos) {
    position_of_[order_[pos]] = pos;
    pos_positive_[pos] = data_.label(order_[pos]) == consequent_ ? 1 : 0;
    if (pos_positive_[pos] != 0) positive_positions_.push_back(pos);
  }
  lists_.assign(data_.num_rows(), {});
  in_x_.assign(data_.num_rows(), 0);

  if (opt_.seed_single_items) SeedSingleItems(frequent);

  const uint32_t items_count = static_cast<uint32_t>(frequent.Count());
  if (items_count > 0 && !positive_positions_.empty()) {
    // The root item set is (near-)dense by construction; descendants
    // re-decide their representation per node as I(X) shrinks. Sharded
    // mining: the root's group (rows containing every frequent item)
    // belongs to the shard owning the earliest such row; a guard hit means
    // a pre-suffix row contains the full frequent set and an earlier shard
    // (or the merge's own root pass) emits it.
    const RowSet root_items = RowSet::FromBitset(frequent);
    const bool root_closed = !ContainedOutside(root_items);
    switch (opt_.backend) {
      case TopkMinerOptions::Backend::kPrefixTree: {
        TreeProjection root(PrefixTree::BuildRoot(data_, order_, frequent),
                            &tree_arena_);
        Visit(root, root_items, items_count, 0, root_closed);
        break;
      }
      case TopkMinerOptions::Backend::kBitset: {
        BitsetProjection root(&data_, &order_);
        Visit(root, root_items, items_count, 0, root_closed);
        break;
      }
      case TopkMinerOptions::Backend::kVector: {
        VectorProjection root(&data_, &order_, frequent);
        Visit(root, root_items, items_count, 0, root_closed);
        break;
      }
    }
  }

  TopkResult result;
  Finalize(frequent, &result);
  result.effective_min_support = FinalEffectiveMinsup();
  stats_.seconds = timer.ElapsedSeconds();
  result.stats = stats_;
  result.ValidateInvariants(opt_.k);
  return result;
}

}  // namespace

Status TopkMinerOptions::Validate() const {
  if (k < 1) {
    return Status::InvalidArgument("TopkMinerOptions: k must be >= 1");
  }
  if (shard_hooks != nullptr && row_order != RowOrder::kNatural) {
    return Status::InvalidArgument(
        "TopkMinerOptions: shard_hooks require row_order == kNatural (the "
        "shard miner presents rows already in global canonical order; any "
        "reordering inside the shard would desynchronize first_level_limit "
        "and the prefix containment guard from the planner's positions)");
  }
  return Status::OK();
}

bool TopkResult::CheckInvariants(uint32_t k, std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  for (size_t row = 0; row < per_row.size(); ++row) {
    const auto& list = per_row[row];
    if (list.size() > k) {
      return fail("row " + std::to_string(row) + " holds " +
                  std::to_string(list.size()) + " groups, more than k = " +
                  std::to_string(k));
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const RuleGroupPtr& group = list[i];
      if (group == nullptr) {
        return fail("row " + std::to_string(row) + " holds a null group");
      }
      std::string group_error;
      if (!group->CheckInvariants(&group_error)) {
        return fail("row " + std::to_string(row) + " rank " +
                    std::to_string(i + 1) + ": " + group_error);
      }
      if (row < group->row_support.size() && !group->row_support.Test(row)) {
        return fail("row " + std::to_string(row) + " rank " +
                    std::to_string(i + 1) + " group does not cover the row");
      }
      if (i > 0 &&
          CompareSignificance(list[i - 1]->support,
                              list[i - 1]->antecedent_support, group->support,
                              group->antecedent_support) < 0) {
        return fail("row " + std::to_string(row) +
                    " list not sorted by significance at rank " +
                    std::to_string(i + 1));
      }
      for (size_t j = 0; j < i; ++j) {
        if (list[j] == group) {
          return fail("row " + std::to_string(row) +
                      " lists the same group twice (ranks " +
                      std::to_string(j + 1) + " and " + std::to_string(i + 1) +
                      ")");
        }
      }
    }
  }
  return true;
}

void TopkResult::ValidateInvariants(uint32_t k) const {
#if TOPKRGS_DCHECK_IS_ON()
  std::string error;
  TKRGS_DCHECK(CheckInvariants(k, &error), error.c_str());
#else
  (void)k;
#endif
}

namespace {

/// Collapses `candidates` (scan order) to the distinct rowsets, keeping
/// the first occurrence of each and preserving scan order.
///
/// The hash only buckets the equality probes — it never decides order:
/// output order is the candidates' own order, the membership index is an
/// ORDERED map (no hash-bucket iteration anywhere), and within a bucket
/// the candidate indices are probed in sorted (ascending, i.e. scan)
/// order. Salting the hash therefore reshuffles buckets without moving a
/// single output element — pinned by the DistinctGroupsHashSaltInvariant
/// regression test, which is what licenses the hash in this
/// deterministic zone at all.
std::vector<RuleGroupPtr> DedupByRowSupport(
    const std::vector<const RuleGroupPtr*>& candidates, uint64_t hash_salt) {
  std::vector<RuleGroupPtr> out;
  std::map<uint64_t, std::vector<size_t>> seen;  // salted hash -> out indices
  for (const RuleGroupPtr* gp : candidates) {
    const RuleGroupPtr& g = *gp;
    // SplitMix64 finalizer over (rowset hash ^ salt): any salt yields a
    // usable bucketing function, so tests can sweep several.
    uint64_t h = g->row_support.Hash() ^ hash_salt;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    std::vector<size_t>& bucket = seen[h];
    TKRGS_DCHECK_SORTED(bucket.begin(), bucket.end(),
                        [](size_t a, size_t b) { return a < b; },
                        "dedup probe order must be scan order, never bucket "
                        "layout");
    bool dup = false;
    for (size_t idx : bucket) {
      if (out[idx]->row_support == g->row_support) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      bucket.push_back(out.size());  // appended ascending: stays sorted
      out.push_back(g);
    }
  }
  return out;
}

}  // namespace

std::vector<RuleGroupPtr> TopkResult::DistinctGroups(uint64_t hash_salt) const {
  std::vector<const RuleGroupPtr*> candidates;
  for (const auto& list : per_row) {
    for (const RuleGroupPtr& g : list) candidates.push_back(&g);
  }
  return DedupByRowSupport(candidates, hash_salt);
}

std::vector<RuleGroupPtr> TopkResult::GroupsAtRank(uint32_t j,
                                                   uint64_t hash_salt) const {
  TOPKRGS_CHECK(j >= 1, "rank is 1-based");
  std::vector<const RuleGroupPtr*> candidates;
  for (const auto& list : per_row) {
    if (list.size() < j) continue;
    candidates.push_back(&list[j - 1]);
  }
  return DedupByRowSupport(candidates, hash_salt);
}

TopkResult MineTopkRGS(const DiscreteDataset& data, ClassLabel consequent,
                       const TopkMinerOptions& options) {
  TopkSearch search(data, consequent, options);
  return search.Run();
}

}  // namespace topkrgs

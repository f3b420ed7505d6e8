#ifndef TOPKRGS_MINE_TOPK_LIST_H_
#define TOPKRGS_MINE_TOPK_LIST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rule.h"

namespace topkrgs {

/// The paper's per-row top-k list maintenance (§4.1.1), shared by
/// MineTopkRGS and the sharded merge (src/scale/topk_merge.cc) so that the
/// same insertion order builds the same lists in both.
///
/// `list` holds at most `k` handles sorted by non-increasing significance.
/// A `Handle` exposes `RuleGroup group` and `bool provisional` (a seeded
/// single item whose closed antecedent has not arrived yet). The rule:
///  * a group equal to a listed one by (support, antecedent support, row
///    support) is a duplicate; when it is the closure of a provisional
///    seed, the seed's antecedent is upgraded in place (the first
///    optimization of §4.1.1);
///  * a group no more significant than a full list's k-th entry is
///    rejected, so among exact ties the earlier arrival keeps the slot;
///  * otherwise the group goes after every entry at least as significant,
///    and a list grown past k drops its last entry.
/// Returns true iff the list's membership changed.
template <typename Handle>
bool InsertTopk(std::vector<std::shared_ptr<Handle>>& list,
                const std::shared_ptr<Handle>& handle, uint32_t k) {
  const RuleGroup& g = handle->group;
  for (auto& existing : list) {
    RuleGroup& e = existing->group;
    if (e.support == g.support && e.antecedent_support == g.antecedent_support &&
        e.row_support == g.row_support) {
      if (existing->provisional && !handle->provisional) {
        e.antecedent = g.antecedent;
        existing->provisional = false;
      }
      return false;
    }
  }
  if (list.size() >= k) {
    const RuleGroup& kth = list.back()->group;
    if (CompareSignificance(g.support, g.antecedent_support, kth.support,
                            kth.antecedent_support) <= 0) {
      return false;
    }
  }
  auto it = std::find_if(list.begin(), list.end(), [&](const auto& e) {
    return CompareSignificance(g.support, g.antecedent_support,
                               e->group.support,
                               e->group.antecedent_support) > 0;
  });
  // NOLINT(hotpath: k-bounded list — the insert shifts at most k entries
  // and the pop below caps growth)
  list.insert(it, handle);
  if (list.size() > k) list.pop_back();
  return true;
}

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_TOPK_LIST_H_

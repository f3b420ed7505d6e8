#include "mine/hybrid_miner.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mine/miner_common.h"
#include "util/check.h"
#include "util/status.h"

namespace topkrgs {

namespace {

/// Per-row merge accumulator: distinct candidate groups by antecedent
/// support set, then the k most significant win.
struct RowMerge {
  std::vector<RuleGroupPtr> groups;

  void Add(const RuleGroupPtr& group) {
    for (const RuleGroupPtr& existing : groups) {
      if (existing->row_support == group->row_support) return;
    }
    groups.push_back(group);
  }

  std::vector<RuleGroupPtr> TopK(uint32_t k) const {
    std::vector<RuleGroupPtr> sorted = groups;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const RuleGroupPtr& a, const RuleGroupPtr& b) {
                       return CompareSignificance(a->support,
                                                  a->antecedent_support,
                                                  b->support,
                                                  b->antecedent_support) > 0;
                     });
    if (sorted.size() > k) sorted.resize(k);
    return sorted;
  }
};

/// One partition's mining output, produced by a worker thread.
struct PartitionOutput {
  std::vector<RowId> row_ids;  // partition row -> global row
  TopkResult result;
};

}  // namespace

TopkResult MineTopkRGSHybrid(const DiscreteDataset& data, ClassLabel consequent,
                             const TopkMinerOptions& options) {
  Stopwatch timer;
  const Status options_status = options.Validate();
  TOPKRGS_CHECK(options_status.ok(), options_status.message().c_str());
  const uint32_t minsup = std::max<uint32_t>(1, options.min_support);
  const Bitset frequent = FrequentItems(data, consequent, minsup);
  const std::vector<ItemId> items = [&] {
    std::vector<ItemId> out;
    frequent.ForEach([&](size_t i) { out.push_back(static_cast<ItemId>(i)); });
    return out;
  }();

  // Column step + row step, one partition per frequent item, fanned out
  // over workers. Partitions are fully independent; aggregation below runs
  // serially in item order, so the result is deterministic regardless of
  // the thread count.
  std::vector<PartitionOutput> outputs(items.size());
  std::atomic<size_t> next_item{0};
  std::atomic<bool> timed_out{false};
  auto worker = [&] {
    while (true) {
      const size_t index = next_item.fetch_add(1);
      if (index >= items.size()) return;
      if (options.deadline.Expired()) {
        timed_out.store(true);
        return;
      }
      const ItemId item = items[index];
      PartitionOutput& out = outputs[index];
      const auto rows = data.item_rows(item).ToVector();
      out.row_ids.assign(rows.begin(), rows.end());
      const DiscreteDataset partition = data.SelectRows(out.row_ids);
      TopkMinerOptions part_options = options;
      part_options.min_support = minsup;
      out.result = MineTopkRGS(partition, consequent, part_options);
      if (out.result.stats.timed_out) timed_out.store(true);
    }
  };

  uint32_t num_threads = ResolveThreadCount(
      options.threads, std::thread::hardware_concurrency());
  num_threads = std::min<uint32_t>(
      num_threads, std::max<size_t>(1, items.size()));
  if (num_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < num_threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Aggregation step: translate row supports back to global ids, keep only
  // groups whose antecedent contains the partition item, merge per row.
  TopkResult merged;
  merged.per_row.assign(data.num_rows(), {});
  merged.effective_min_support = minsup;
  std::vector<RowMerge> accumulators(data.num_rows());
  for (size_t index = 0; index < items.size(); ++index) {
    const ItemId item = items[index];
    const PartitionOutput& out = outputs[index];
    merged.stats.nodes_visited += out.result.stats.nodes_visited;
    merged.stats.pruned_backward += out.result.stats.pruned_backward;
    merged.stats.pruned_bounds += out.result.stats.pruned_bounds;
    // NOLINT(determinism: pointer-keyed memo probed via find() only, never
    // iterated — output order comes from the per_row/row_ids scan; the
    // pointer keys identify one partition's in-memory groups and never
    // order anything)
    std::unordered_map<const RuleGroup*, RuleGroupPtr> translated;
    for (RowId local_row = 0; local_row < out.result.per_row.size();
         ++local_row) {
      if (local_row >= out.row_ids.size()) break;
      const RowId global_row = out.row_ids[local_row];
      for (const RuleGroupPtr& group : out.result.per_row[local_row]) {
        if (!group->antecedent.Test(item)) continue;
        auto it = translated.find(group.get());
        if (it == translated.end()) {
          auto copy = std::make_shared<RuleGroup>(*group);
          Bitset rows(data.num_rows());
          group->row_support.ForEach(
              [&](size_t r) { rows.Set(out.row_ids[r]); });
          copy->row_support = std::move(rows);
          it = translated.emplace(group.get(), std::move(copy)).first;
        }
        accumulators[global_row].Add(it->second);
      }
    }
  }

  for (RowId r = 0; r < data.num_rows(); ++r) {
    if (data.label(r) != consequent) continue;
    merged.per_row[r] = accumulators[r].TopK(options.k);
  }
  merged.stats.timed_out = timed_out.load();
  merged.stats.seconds = timer.ElapsedSeconds();
  return merged;
}

}  // namespace topkrgs

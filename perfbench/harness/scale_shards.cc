// scale-shards: the out-of-core path on the 100k x 10k scale-full profile:
// StreamReader::ReadItemData -> WriteTkds -> MmapDataset::Open ->
// MineShardedTopkRGS, with the memory budget bench_scale uses (twice the
// planner's one-shard working-set estimate), k=3, SuggestedMinSupport and
// min(4, nproc) threads. The only workload that runs src/scale.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "topkrgs/topkrgs.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace topkrgs;

constexpr ClassLabel kConsequent = 1;

bool SameView(const TransposedView& a, const TransposedView& b) {
  if (a.num_items != b.num_items || a.num_rows != b.num_rows ||
      a.num_classes != b.num_classes || a.nnz() != b.nnz()) {
    return false;
  }
  return std::memcmp(a.labels, b.labels, a.num_rows * sizeof(ClassLabel)) == 0 &&
         std::memcmp(a.item_offsets, b.item_offsets,
                     (a.num_items + 1) * sizeof(uint64_t)) == 0 &&
         std::memcmp(a.item_row_ids, b.item_row_ids,
                     a.nnz() * sizeof(uint32_t)) == 0;
}

/// Writes the profile's rows in the order a seed permutes them; the
/// default seed keeps the library's own row order (and bytes).
Status WriteScaleRows(const ScaleProfile& profile, uint64_t seed,
                      const std::string& path) {
  if (seed == kDefaultSeed) return WriteScaleItemData(profile, path);
  const std::vector<uint32_t> order = Permutation(
      static_cast<uint32_t>(profile.rows), MixSeed(seed, profile.seed));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::string chunk;
  bool ok = true;
  for (size_t i = 0; i < order.size(); ++i) {
    AppendScaleRow(profile, order[i], &chunk);
    if (chunk.size() >= (1u << 20) || i + 1 == order.size()) {
      ok = ok && std::fwrite(chunk.data(), 1, chunk.size(), f) == chunk.size();
      chunk.clear();
    }
  }
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::OK() : Status::IOError("short write to " + path);
}

struct ScaleSetup {
  ScaleProfile profile;
  std::string items_path, tkds_path;
  uint32_t min_support = 1;
  uint64_t budget_bytes = 0;
};

ShardPlanOptions PlanOptions(const ScaleSetup& s) {
  ShardPlanOptions opt;
  opt.k = 3;
  opt.min_support = s.min_support;
  opt.memory_budget_bytes = s.budget_bytes;
  return opt;
}

ShardMineOptions MineOptions() {
  ShardMineOptions opt;
  opt.threads = ParallelThreads();
  return opt;
}

struct OpResult {
  bool ok = true;
  std::string error;
  double ingest_s = 0, convert_s = 0, open_s = 0, mine_s = 0, total_s = 0;
  double peak_mib = 0;
  uint64_t digest = 0;
  size_t shards = 0;
  bool timed_out = false;
};

/// Runs the timed path once; `measure_peak` resets the peak-RSS mark first
/// and reads it after (the probe skips both: trimming the heap on every
/// round would make the other probes' next rounds fault their pages in).
OpResult RunOp(const ScaleSetup& s, bool measure_peak) {
  OpResult r;
  if (measure_peak) ResetPeakRss();
  const double t0 = NowSeconds();
  {
    auto table_or = StreamReader::ReadItemData(s.items_path);
    if (!table_or.ok()) {
      r.ok = false;
      r.error = table_or.status().ToString();
      return r;
    }
    r.ingest_s = NowSeconds() - t0;
    const double t1 = NowSeconds();
    const Status written = WriteTkds(table_or.value(), s.tkds_path);
    r.convert_s = NowSeconds() - t1;
    if (!written.ok()) {
      r.ok = false;
      r.error = written.ToString();
      return r;
    }
  }  // the streamed table is released before mining, as with the CLI tools
  const double t2 = NowSeconds();
  auto mapped_or = MmapDataset::Open(s.tkds_path);
  r.open_s = NowSeconds() - t2;
  if (!mapped_or.ok()) {
    r.ok = false;
    r.error = mapped_or.status().ToString();
    return r;
  }
  const double t3 = NowSeconds();
  ShardPlan plan;
  auto merged_or = MineShardedTopkRGS(mapped_or.value().View(), kConsequent,
                                      PlanOptions(s), MineOptions(), &plan);
  const double t4 = NowSeconds();
  if (measure_peak) r.peak_mib = PeakRssMib();
  r.mine_s = t4 - t3;
  r.total_s = t4 - t0;
  if (!merged_or.ok()) {
    r.ok = false;
    r.error = merged_or.status().ToString();
    return r;
  }
  r.digest = TopkDigest(merged_or.value().per_row,
                        merged_or.value().effective_min_support);
  r.shards = plan.shards.size();
  r.timed_out = merged_or.value().stats.timed_out;
  return r;
}

/// Smoke size: scale-micro grown to 4000 x 1000, so that an operation
/// takes tens of milliseconds (long against timer and thread start-up
/// jitter) and plans two shards.
ScaleProfile SmokeProfile() {
  ScaleProfile p = ScaleProfile::Micro();
  p.name = "scale-smoke";
  p.rows = 4000;
  p.num_items = 1000;
  return p;
}

ScaleSetup MakeSetup(Size size, const std::string& dir) {
  ScaleSetup s;
  s.profile = size == Size::kFull ? ScaleProfile::Full() : SmokeProfile();
  s.items_path = dir + "/" + s.profile.name + ".items";
  s.tkds_path = dir + "/" + s.profile.name + ".tkds";
  s.min_support = s.profile.SuggestedMinSupport();
  return s;
}

/// Set-up: write the profile as item-data text (rows permuted by the seed,
/// like the paper profiles), and size the memory budget as bench_scale
/// does: twice the one-shard plan's estimate.
bool WriteInput(uint64_t seed, ScaleSetup* s) {
  if (!WriteScaleRows(s->profile, seed, s->items_path).ok()) return false;
  auto table_or = StreamReader::ReadItemData(s->items_path);
  if (!table_or.ok()) return false;
  ShardPlanOptions probe;
  probe.k = 3;
  probe.min_support = s->min_support;
  auto plan_or = PlanShards(table_or.value().View(), kConsequent, probe);
  if (!plan_or.ok()) return false;
  s->budget_bytes = 2 * plan_or.value().estimated_peak_bytes;
  return true;
}

/// Runs the timed path once and checks it: the digest equals the first
/// operation's, no shard timed out, and (at full size; at smoke size the
/// budget is below the process's own baseline) peak RSS stays within the
/// budget.
OpResult CheckedOp(const ScaleSetup& s, bool check_budget, bool measure_peak,
                   const OpResult* first, Outcome* out) {
  OpResult r = RunOp(s, measure_peak);
  const double budget_mib = static_cast<double>(s.budget_bytes) / (1024.0 * 1024.0);
  const uint64_t want = first == nullptr ? r.digest : first->digest;
  const bool within_budget = !check_budget || r.peak_mib <= budget_mib;
  out->Record(r.ok && !r.timed_out && r.digest == want && within_budget,
              "scale-shards op: " +
                  (r.ok ? "digest " + Hex(r.digest) + " (first " + Hex(want) +
                              "), peak " + FormatDouble(r.peak_mib) + " MiB, budget " +
                              FormatDouble(budget_mib) + " MiB, timed_out " +
                              std::to_string(r.timed_out)
                        : r.error));
  return r;
}

/// At the default seed, the first operation's digest against the reference.
void CheckReference(const ScaleSetup& s, const OpResult& first, uint64_t seed,
                    const Reference& reference, Outcome* out) {
  if (seed != kDefaultSeed) return;
  const std::string key = "scale-shards." + s.profile.name + ".digest";
  const std::string want = reference.String(key);
  out->Record(Hex(first.digest) == want,
              key + ": measured " + Hex(first.digest) + ", reference " + want);
}

class ScaleProbe : public Probe {
 public:
  ScaleProbe(const Args& args, const Reference& reference, const std::string& dir)
      : args_(args), reference_(reference), setup_(MakeSetup(Size::kSmoke, dir)) {
    ok_ = WriteInput(args.seed, &setup_);
    result.Record(ok_, "scale-shards probe: set-up");
  }

 protected:
  /// Two operations per round: the first warms what the workload's own
  /// operation left cold (caches, the heap, the page cache), the second is
  /// measured.
  void Round() override {
    if (!ok_) return;
    CheckedOp(setup_, false, false, times_.empty() ? nullptr : &first_, &result);
    OpResult r =
        CheckedOp(setup_, false, false, times_.empty() ? nullptr : &first_, &result);
    times_.push_back(r.total_s);
    if (times_.size() == 1) {
      first_ = r;
      CheckReference(setup_, first_, args_.seed, reference_, &result);
    }
  }
  void Report() override { result.Set("shard_mine_s", Mean(times_), "s"); }

 private:
  const Args& args_;
  const Reference& reference_;
  ScaleSetup setup_;
  bool ok_ = false;
  OpResult first_;
  std::vector<double> times_;
};

}  // namespace

std::unique_ptr<Probe> MakeScaleProbe(const Args& args, const Reference& ref,
                                      const std::string& dir) {
  return std::make_unique<ScaleProbe>(args, ref, dir);
}

void RunScaleShards(const Context& ctx) {
  Outcome* out = ctx.out;
  ScaleSetup s = MakeSetup(ctx.size, ctx.dir);
  bool setup_ok = true;
  const double setup_s =
      MedianSetupSeconds(3, [&] { setup_ok = WriteInput(ctx.args.seed, &s) && setup_ok; });
  out->Record(setup_ok, "scale-shards: set-up");
  out->Set("setup_s", setup_s, "s");
  if (!setup_ok) return;

  // Timed phase, with the other workloads' probes run before and after
  // each operation. One operation takes about as long as --seconds, and the
  // host's speed drifts on that scale, so a full-size run makes at least two.
  const size_t min_ops = ctx.size == Size::kFull ? 2 : 1;
  std::vector<double> times, peaks;
  OpResult first;
  const double start = NowSeconds();
  do {
    ctx.Interleave(3);
    OpResult r = CheckedOp(s, ctx.size == Size::kFull, true,
                           times.empty() ? nullptr : &first, out);
    times.push_back(r.total_s);
    peaks.push_back(r.peak_mib);
    if (times.size() == 1) first = r;
  } while (!ctx.tracer &&
           (times.size() < min_ops || NowSeconds() - start < ctx.MeasureSeconds()));
  ctx.Interleave(3);
  out->Set("shard_mine_s", Median(times), "s");
  out->Set("peak_rss_mib", Median(peaks), "MiB");
  out->Note("scale-shards digest " + Hex(first.digest) + " shards " +
            std::to_string(first.shards) + " budget_mib " +
            FormatDouble(static_cast<double>(s.budget_bytes) / (1024.0 * 1024.0)));
  if (!first.ok) return;

  // Cross-path check: the mapped tkds file holds exactly the table the
  // streaming reader builds from the text.
  {
    auto table_or = StreamReader::ReadItemData(s.items_path);
    auto mapped_or = MmapDataset::Open(s.tkds_path);
    out->Record(table_or.ok() && mapped_or.ok() &&
                    SameView(table_or.value().View(), mapped_or.value().View()),
                "scale-shards: mmap view differs from streamed view");
  }
  CheckReference(s, first, ctx.args.seed, ctx.reference, out);
  if (ctx.tracer == nullptr) return;

  // Traced pass in the program's order: ingest, convert, open, then the
  // pieces MineShardedTopkRGS is made of (PlanShards, MineShard per shard,
  // MergeShardResults), then the whole call; the merged digest must equal
  // the whole calls' of this pass and of the untraced operation.
  Tracer* tr = ctx.tracer;
  const double traced_start = NowSeconds();
  {
    StreamedTable table;
    {
      ScopedSpan span(tr, "scale.ReadItemData");
      auto table_or = StreamReader::ReadItemData(s.items_path);
      out->Record(table_or.ok(), "scale-shards: traced ingest");
      if (!table_or.ok()) return;
      table = std::move(table_or).value();
    }
    ScopedSpan span(tr, "scale.WriteTkds");
    out->Record(WriteTkds(table, s.tkds_path).ok(), "scale-shards: traced convert");
  }
  MmapDataset mapped;
  {
    ScopedSpan span(tr, "scale.MmapOpen");
    auto mapped_or = MmapDataset::Open(s.tkds_path);
    out->Record(mapped_or.ok(), "scale-shards: traced open");
    if (!mapped_or.ok()) return;
    mapped = std::move(mapped_or).value();
  }
  const TransposedView view = mapped.View();
  ShardPlan plan;
  {
    ScopedSpan span(tr, "scale.PlanShards");
    auto plan_or = PlanShards(view, kConsequent, PlanOptions(s));
    out->Record(plan_or.ok(), "scale-shards: traced plan");
    if (!plan_or.ok()) return;
    plan = std::move(plan_or).value();
  }
  std::vector<ShardResult> results;
  std::vector<double> shard_s;
  MinerStats sum;
  for (uint32_t p = 0; p < plan.shards.size(); ++p) {
    {
      ScopedSpan span(tr, "scale.MineShard", p + 1);
      results.push_back(MineShard(view, plan, p, MineOptions()));
    }
    shard_s.push_back(tr->spans().back().duration());
    AddStats(results.back().stats, &sum);
  }
  MergedTopk merged;
  {
    ScopedSpan span(tr, "scale.MergeShardResults");
    merged = MergeShardResults(view, plan, results);
  }
  const double traced_wall = NowSeconds() - traced_start;
  const uint64_t digest = TopkDigest(merged.per_row, merged.effective_min_support);
  out->Record(digest == first.digest && plan.shards.size() == first.shards,
              "scale-shards: decomposed digest " + Hex(digest) +
                  " != untraced whole-call digest " + Hex(first.digest));
  // Then the whole call, as the program makes it, on the same mapping (no
  // span: the pieces above are its layers).
  {
    ShardPlan whole_plan;
    auto whole_or = MineShardedTopkRGS(view, kConsequent, PlanOptions(s), MineOptions(),
                                       &whole_plan);
    const uint64_t whole = whole_or.ok() ? TopkDigest(whole_or.value().per_row,
                                                      whole_or.value().effective_min_support)
                                         : 0;
    out->Record(whole_or.ok() && whole == digest &&
                    whole_plan.shards.size() == plan.shards.size(),
                "scale-shards: decomposed digest " + Hex(digest) +
                    " != traced whole-call digest " + Hex(whole));
  }

  const double ingest = tr->Total("scale.ReadItemData");
  double shard_busy = 0;
  for (double d : shard_s) shard_busy += d;
  out->Set("scale.ingest_s", ingest, "s");
  out->Set("scale.ingest_rows_per_s", ingest > 0 ? s.profile.rows / ingest : 0, "1/s");
  out->Set("scale.convert_s", tr->Total("scale.WriteTkds"), "s");
  out->Set("scale.mmap_open_s", tr->Total("scale.MmapOpen"), "s");
  out->Set("scale.plan_s", tr->Total("scale.PlanShards"), "s");
  out->Set("scale.shards", static_cast<double>(plan.shards.size()), "count");
  out->Set("scale.shard_busy_s", shard_busy, "s");
  out->Set("scale.shard_max_s", Percentile(shard_s, 100), "s");
  out->Set("scale.merge_s", tr->Total("scale.MergeShardResults"), "s");
  // Mining inside the shards (MineShard = suffix dataset build + the hooked
  // MineTopkRGS), counted from the returned MinerStats.
  SetMineMetrics(sum, plan.shards.size(), shard_busy, out);

  // Every call of the timed path is inside a span, so the remainder against
  // the untraced operation is run-to-run variation of the same calls. What
  // is checked is that the spans account for the traced pass itself.
  const double untraced = first.total_s;
  const double layers = tr->LayerSelf("scale");
  SetReconciliation(untraced, {{"scale", layers}}, traced_wall / untraced, out);
  out->Record(layers >= 0.95 * traced_wall,
              "scale-shards: spans cover " + FormatDouble(layers / traced_wall) +
                  " of the traced pass (limit 0.95)");
}

}  // namespace perfbench

// mine-deep: MineTopkRGS alone (consequent class 1, minsup 0.7 x class,
// k=100) on the discretized OC and PC training sets, each at 1 thread and
// at min(4, nproc) threads. Mining and its scheduler do all the work; OC
// splits and steals, PC's warm-up drains the whole search.

#include <algorithm>
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

struct MineInput {
  DatasetProfile profile;
  std::string name;
  DiscreteDataset train;
  uint32_t min_support = 1;
};

struct Call {
  double seconds = 0;
  uint64_t digest = 0;
  MinerStats stats;
};

Call MineOnce(const MineInput& in, uint32_t threads) {
  TopkMinerOptions opt;
  opt.k = 100;
  opt.min_support = in.min_support;
  opt.threads = threads;
  const double t0 = NowSeconds();
  TopkResult result = MineTopkRGS(in.train, kConsequent, opt);
  Call call;
  call.seconds = NowSeconds() - t0;
  call.digest = TopkDigest(result.per_row, result.effective_min_support);
  call.stats = result.stats;
  return call;
}

/// The thread counts every profile is mined at: 1 and min(4, nproc).
std::vector<uint32_t> ThreadCounts() { return {1, ParallelThreads()}; }

std::vector<MineInput> MakeInputs(Size size) {
  // Smoke: ALL, the smallest paper profile; its searches take milliseconds
  // and finish inside the serial warm-up.
  const std::vector<DatasetProfile> profiles =
      size == Size::kFull
          ? std::vector<DatasetProfile>{DatasetProfile::OC(), DatasetProfile::PC()}
          : std::vector<DatasetProfile>{DatasetProfile::ALL()};
  std::vector<MineInput> inputs(profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    inputs[i].profile = profiles[i];
    inputs[i].name = profiles[i].name;
  }
  return inputs;
}

/// Set-up: generate (permuted by the seed) and discretize each profile.
void Discretize(uint64_t seed, std::vector<MineInput>* inputs) {
  for (MineInput& in : *inputs) {
    const GeneratedData data = PermutedProfile(in.profile, seed);
    Pipeline p = PreparePipeline(data.train, data.test);
    in.min_support = MinSupportFromFrac(0.7, CountClassRows(p.train, kConsequent));
    in.train = std::move(p.train);
  }
}

/// One round: every profile at 1 and at min(4, nproc) threads. The
/// TopkDigest must not depend on the thread count or the round; a timed-out
/// search is a failed operation. Adds the 1-thread and many-thread times.
/// A non-null `ctx` runs its probes before each call and raises *peak_mib
/// to the call's peak RSS, measured from a reset after the probes ran (the
/// allocator state they leave would otherwise move the workload's peak).
void RunRound(const std::vector<MineInput>& inputs, const Context* ctx,
              std::vector<std::vector<Call>>* first, double* t1, double* tn,
              double* peak_mib, Outcome* out) {
  std::vector<std::vector<Call>> round(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (uint32_t threads : ThreadCounts()) {
      if (ctx != nullptr) {
        ctx->Interleave(1);
        ResetPeakRss();
      }
      round[i].push_back(MineOnce(inputs[i], threads));
      if (ctx != nullptr) *peak_mib = std::max(*peak_mib, PeakRssMib());
      const Call& c = round[i].back();
      (round[i].size() == 1 ? *t1 : *tn) += c.seconds;
      const uint64_t want = first->empty() ? round[i][0].digest : (*first)[i][0].digest;
      out->Record(!c.stats.timed_out && c.digest == want,
                  inputs[i].name + " at " + std::to_string(threads) +
                      " threads: digest " + Hex(c.digest) + " != " + Hex(want));
    }
  }
  if (first->empty()) *first = std::move(round);
}

/// At the default seed, the first round's digests against the reference.
void CheckReference(const std::vector<MineInput>& inputs,
                    const std::vector<std::vector<Call>>& first, uint64_t seed,
                    const Reference& reference, Outcome* out) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    out->Note(inputs[i].name + " digest " + Hex(first[i][0].digest) +
              " nodes_t1 " + std::to_string(first[i][0].stats.nodes_visited) +
              " nodes_tn " + std::to_string(first[i][1].stats.nodes_visited));
    if (seed != kDefaultSeed) continue;
    const std::string key = "mine-deep." + inputs[i].name + ".digest";
    const std::string want = reference.String(key);
    out->Record(Hex(first[i][0].digest) == want,
                key + ": measured " + Hex(first[i][0].digest) + ", reference " + want);
  }
}

class MineProbe : public Probe {
 public:
  MineProbe(const Args& args, const Reference& reference)
      : args_(args), reference_(reference), inputs_(MakeInputs(Size::kSmoke)) {
    Discretize(args.seed, &inputs_);
  }

 protected:
  /// Two rounds of calls per probe round: the first warms what the
  /// workload's own operation left cold (caches, the heap), the second is
  /// measured.
  void Round() override {
    double t1 = 0, tn = 0;
    RunRound(inputs_, nullptr, &first_, &t1, &tn, nullptr, &result);
    t1 = tn = 0;
    RunRound(inputs_, nullptr, &first_, &t1, &tn, nullptr, &result);
    t1_.push_back(t1);
    tn_.push_back(tn);
    if (t1_.size() == 1) CheckReference(inputs_, first_, args_.seed, reference_, &result);
  }
  void Report() override {
    result.Set("mine_t1_s", Mean(t1_), "s");
    result.Set("mine_t4_s", Mean(tn_), "s");
  }


 private:
  const Args& args_;
  const Reference& reference_;
  std::vector<MineInput> inputs_;
  std::vector<std::vector<Call>> first_;
  std::vector<double> t1_, tn_;
};

}  // namespace

std::unique_ptr<Probe> MakeMineProbe(const Args& args, const Reference& ref,
                                     const std::string&) {
  return std::make_unique<MineProbe>(args, ref);
}

void RunMineDeep(const Context& ctx) {
  Outcome* out = ctx.out;
  std::vector<MineInput> inputs = MakeInputs(ctx.size);
  const std::vector<uint32_t> thread_counts = ThreadCounts();
  const double setup_s = MedianSetupSeconds(3, [&] { Discretize(ctx.args.seed, &inputs); });
  out->Set("setup_s", setup_s, "s");

  // Timed phase: rounds of every (profile, thread count) call, with the
  // other workloads' probes run between the calls.
  std::vector<double> t1_rounds, tn_rounds;
  std::vector<std::vector<Call>> first;  // [profile][thread config]
  double peak_mib = 0;
  const double start = NowSeconds();
  do {
    double t1 = 0, tn = 0;
    RunRound(inputs, &ctx, &first, &t1, &tn, &peak_mib, out);
    t1_rounds.push_back(t1);
    tn_rounds.push_back(tn);
  } while (!ctx.tracer && NowSeconds() - start < ctx.MeasureSeconds());
  out->Set("peak_rss_mib", peak_mib, "MiB");
  out->Set("mine_t1_s", Median(t1_rounds), "s");
  out->Set("mine_t4_s", Median(tn_rounds), "s");
  ctx.Interleave(1);
  CheckReference(inputs, first, ctx.args.seed, ctx.reference, out);
  if (ctx.tracer == nullptr) return;

  // Traced pass: the same calls, one span each.
  Tracer* tr = ctx.tracer;
  MinerStats sum;
  double busy[2] = {0, 0};
  uint64_t nodes[2] = {0, 0};
  uint64_t calls = 0;
  const double traced_start = NowSeconds();
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      Call c;
      {
        ScopedSpan span(tr, "mine.MineTopkRGS", i * 2 + t + 1);
        c = MineOnce(inputs[i], thread_counts[t]);
      }
      out->Record(c.digest == first[i][0].digest,
                  inputs[i].name + ": traced digest differs");
      busy[t] += tr->spans().back().duration();
      nodes[t] += c.stats.nodes_visited;
      AddStats(c.stats, &sum);
      ++calls;
    }
  }
  const double traced_wall = NowSeconds() - traced_start;
  const double mine = tr->LayerSelf("mine");
  SetMineMetrics(sum, calls, mine, out);
  out->Set("mine.speedup", busy[1] > 0 ? busy[0] / busy[1] : 0, "ratio");
  out->Set("mine.redundant_work_ratio",
           nodes[0] ? static_cast<double>(nodes[1]) / nodes[0] : 0, "ratio");

  // Every call of the timed path is inside a span, so the remainder against
  // the untraced round is run-to-run variation of the same calls. What is
  // checked is that the spans account for the traced pass itself.
  const double untraced = t1_rounds[0] + tn_rounds[0];
  SetReconciliation(untraced, {{"mine", mine}}, traced_wall / untraced, out);
  out->Record(mine >= 0.95 * traced_wall,
              "mine-deep: spans cover " + FormatDouble(mine / traced_wall) +
                  " of the traced pass (limit 0.95)");
}

}  // namespace perfbench

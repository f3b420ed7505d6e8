// table2-train: the paper's Table 2 training path on the OC and PC profiles
// (RCBT k=10, nl=20, minsup 0.7 x class size). One operation per profile:
// ContinuousDataset::ReadTsv -> PreparePipeline -> RcbtClassifier::Train ->
// Predict on the test split -> SaveRcbtClassifier + SaveDiscretization.
// FindLB does nearly all of the work here and mining very little.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "topkrgs/topkrgs.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace topkrgs;

struct ProfileInput {
  DatasetProfile profile;
  std::string name;
  std::string train_tsv, test_tsv, model_path, disc_path;
};

RcbtOptions PaperRcbtOptions(const Pipeline& p) {
  RcbtOptions opt;
  opt.k = 10;
  opt.nl = 20;
  opt.min_support_frac = 0.7;
  // The Table 2 pipeline ranks FindLB candidates by the entropy scores
  // PreparePipeline derives (§5.1), exactly as bench_table2 does.
  opt.item_scores = p.item_scores;
  return opt;
}

/// One untraced operation's results and per-call wall times.
struct OpResult {
  bool ok = true;
  std::string error;
  double read_s = 0, prepare_s = 0, train_s = 0, predict_s = 0, save_s = 0;
  double total_s = 0;
  Pipeline pipeline;
  RcbtClassifier clf;
  std::vector<ClassLabel> predictions;
  uint32_t correct = 0;
};

OpResult RunOp(const ProfileInput& in) {
  OpResult r;
  const double t0 = NowSeconds();
  auto train_or = ContinuousDataset::ReadTsv(in.train_tsv);
  auto test_or = ContinuousDataset::ReadTsv(in.test_tsv);
  const double t1 = NowSeconds();
  if (!train_or.ok() || !test_or.ok()) {
    r.ok = false;
    r.error = "ReadTsv failed";
    return r;
  }
  r.pipeline = PreparePipeline(train_or.value(), test_or.value());
  const double t2 = NowSeconds();
  r.clf = RcbtClassifier::Train(r.pipeline.train, PaperRcbtOptions(r.pipeline));
  const double t3 = NowSeconds();
  const DiscreteDataset& test = r.pipeline.test;
  r.predictions.reserve(test.num_rows());
  for (RowId row = 0; row < test.num_rows(); ++row) {
    r.predictions.push_back(r.clf.Predict(test.row_bitset(row)).label);
  }
  const double t4 = NowSeconds();
  const Status saved_model = SaveRcbtClassifier(
      r.clf, r.pipeline.discretization.num_items(), in.model_path);
  const Status saved_disc =
      SaveDiscretization(r.pipeline.discretization, in.disc_path);
  const double t5 = NowSeconds();
  if (!saved_model.ok() || !saved_disc.ok()) {
    r.ok = false;
    r.error = "save failed";
  }
  for (RowId row = 0; row < test.num_rows(); ++row) {
    r.correct += r.predictions[row] == test.label(row);
  }
  r.read_s = t1 - t0;
  r.prepare_s = t2 - t1;
  r.train_s = t3 - t2;
  r.predict_s = t4 - t3;
  r.save_s = t5 - t4;
  r.total_s = t5 - t0;
  return r;
}

/// Cross-path check: the saved artifacts, loaded back through the
/// hardened parsers, classify the test split exactly as the in-memory model.
bool ReloadPredictsSame(const ProfileInput& in, const OpResult& r,
                        std::string* why) {
  auto test_or = ContinuousDataset::ReadTsv(in.test_tsv);
  auto disc_or = LoadDiscretization(in.disc_path);
  uint32_t num_items = 0;
  auto clf_or = LoadRcbtClassifier(in.model_path, &num_items);
  if (!test_or.ok() || !disc_or.ok() || !clf_or.ok()) {
    *why = "reload failed";
    return false;
  }
  const DiscreteDataset test = disc_or.value().Apply(test_or.value());
  for (RowId row = 0; row < test.num_rows(); ++row) {
    if (clf_or.value().Predict(test.row_bitset(row)).label !=
        r.predictions[row]) {
      *why = "reloaded model disagrees on test row " + std::to_string(row);
      return false;
    }
  }
  return true;
}

bool SameDiscrete(const DiscreteDataset& a, const DiscreteDataset& b) {
  if (a.num_rows() != b.num_rows() || a.num_items() != b.num_items()) {
    return false;
  }
  for (RowId r = 0; r < a.num_rows(); ++r) {
    if (a.label(r) != b.label(r) || !(a.row_bitset(r) == b.row_bitset(r))) {
      return false;
    }
  }
  return true;
}

/// Per-layer totals of the traced pass.
struct TraceTotals {
  MinerStats mine;
  uint64_t mine_calls = 0;
  uint64_t find_lb_calls = 0;
  uint64_t bounds = 0;
  uint32_t nl = 0;
  /// Wall time of the whole PreparePipeline and RcbtClassifier::Train calls
  /// the traced pass makes beside their decomposition.
  double prepare_whole_s = 0;
  double train_whole_s = 0;
};

bool SameRules(const RcbtClassifier& a, const RcbtClassifier& b) {
  if (a.num_classifiers() != b.num_classifiers()) return false;
  for (uint32_t j = 1; j <= a.num_classifiers(); ++j) {
    const std::vector<Rule>& ra = a.classifier_rules(j);
    const std::vector<Rule>& rb = b.classifier_rules(j);
    if (ra.size() != rb.size()) return false;
    for (size_t i = 0; i < ra.size(); ++i) {
      if (ra[i].ToString() != rb[i].ToString()) return false;
    }
  }
  return true;
}

/// The traced pass of one profile: the same path as RunOp, decomposed into
/// the library calls the program makes, in the program's order —
/// ReadTsv, EntropyDiscretizer::Fit, Discretization::Apply, MineTopkRGS per
/// class, FindLowerBounds per GroupsAtRank(j) group, then the whole
/// RcbtClassifier::Train, Predict per test row, the two Save calls — each
/// inside its own span. The whole PreparePipeline is timed too (without a
/// span, since Fit and Apply are inside it), so the glue it adds around
/// them is measured in this pass. The decomposed results are checked
/// against the untraced whole calls of the same run.
void TracedProfile(const Context& ctx, const ProfileInput& in,
                   const OpResult& whole, uint64_t request,
                   TraceTotals* totals) {
  Tracer* tr = ctx.tracer;
  Outcome* out = ctx.out;
  ContinuousDataset train, test;
  {
    ScopedSpan span(tr, "core.ReadTsv", request);
    auto train_or = ContinuousDataset::ReadTsv(in.train_tsv);
    auto test_or = ContinuousDataset::ReadTsv(in.test_tsv);
    out->Record(train_or.ok() && test_or.ok(), in.name + ": traced ReadTsv");
    if (!train_or.ok() || !test_or.ok()) return;
    train = std::move(train_or).value();
    test = std::move(test_or).value();
  }
  Discretization disc;
  {
    ScopedSpan span(tr, "discretize.Fit", request);
    disc = EntropyDiscretizer().Fit(train);
  }
  DiscreteDataset dtrain, dtest;
  {
    ScopedSpan span(tr, "discretize.Apply", request);
    dtrain = disc.Apply(train);
    dtest = disc.Apply(test);
  }
  out->Record(SameDiscrete(dtrain, whole.pipeline.train) &&
                  SameDiscrete(dtest, whole.pipeline.test),
              in.name + ": decomposed Fit+Apply equals PreparePipeline");
  {
    const double t0 = NowSeconds();
    const Pipeline p = PreparePipeline(train, test);
    totals->prepare_whole_s += NowSeconds() - t0;
    out->Record(SameDiscrete(p.train, dtrain),
                in.name + ": traced PreparePipeline equals its decomposition");
  }

  const RcbtOptions opt = PaperRcbtOptions(whole.pipeline);
  const std::vector<uint32_t> counts = dtrain.ClassCounts();
  std::vector<TopkResult> mined(dtrain.num_classes());
  for (uint32_t cls = 0; cls < dtrain.num_classes(); ++cls) {
    if (counts[cls] == 0) continue;
    TopkMinerOptions mopt;
    mopt.k = opt.k;
    mopt.min_support = MinSupportFromFrac(opt.min_support_frac, counts[cls]);
    ScopedSpan span(tr, "mine.MineTopkRGS", request);
    mined[cls] = MineTopkRGS(dtrain, static_cast<ClassLabel>(cls), mopt);
    AddStats(mined[cls].stats, &totals->mine);
    ++totals->mine_calls;
  }

  FindLbOptions lopt;
  lopt.num_lower_bounds = opt.nl;
  totals->nl = opt.nl;
  bool rules_match = true;
  uint32_t ranks_with_rules = 0;
  for (uint32_t j = 1; j <= opt.k; ++j) {
    std::set<std::string> rank_rules;
    for (uint32_t cls = 0; cls < dtrain.num_classes(); ++cls) {
      for (const RuleGroupPtr& group : mined[cls].GroupsAtRank(j)) {
        std::vector<Rule> lbs;
        {
          ScopedSpan span(tr, "find_lb.FindLowerBounds", request);
          lbs = FindLowerBounds(dtrain, *group, opt.item_scores, lopt);
        }
        ++totals->find_lb_calls;
        totals->bounds += lbs.size();
        for (const Rule& lb : lbs) rank_rules.insert(lb.ToString());
      }
    }
    if (rank_rules.empty()) {
      if (j == 1) break;
      continue;
    }
    // Every rule RCBT kept in CL_j must be one of the lower bounds found
    // for RG_j.
    ++ranks_with_rules;
    if (ranks_with_rules <= whole.clf.num_classifiers()) {
      for (const Rule& rule : whole.clf.classifier_rules(ranks_with_rules)) {
        if (rank_rules.count(rule.ToString()) == 0) rules_match = false;
      }
    }
  }
  out->Record(rules_match && ranks_with_rules == whole.clf.num_classifiers(),
              in.name + ": decomposed FindLB bounds cover Train's rules");
  {
    const double t0 = NowSeconds();
    RcbtClassifier clf;
    {
      ScopedSpan span(tr, "rcbt.Train", request);
      clf = RcbtClassifier::Train(dtrain, opt);
    }
    totals->train_whole_s += NowSeconds() - t0;
    out->Record(SameRules(clf, whole.clf),
                in.name + ": traced Train equals untraced Train");
  }

  bool same_predictions = true;
  for (RowId row = 0; row < dtest.num_rows(); ++row) {
    ClassLabel label;
    {
      ScopedSpan span(tr, "rcbt.Predict", request);
      label = whole.clf.Predict(dtest.row_bitset(row)).label;
    }
    same_predictions = same_predictions && label == whole.predictions[row];
  }
  out->Record(same_predictions, in.name + ": traced Predict equals untraced");
  {
    ScopedSpan span(tr, "model_io.Save", request);
    const bool ok =
        SaveRcbtClassifier(whole.clf, disc.num_items(), in.model_path).ok() &&
        SaveDiscretization(disc, in.disc_path).ok();
    out->Record(ok, in.name + ": traced save");
  }
}

std::vector<ProfileInput> MakeInputs(Size size, const std::string& dir) {
  const std::vector<DatasetProfile> profiles =
      size == Size::kFull
          ? std::vector<DatasetProfile>{DatasetProfile::OC(), DatasetProfile::PC()}
          : std::vector<DatasetProfile>{DatasetProfile::Tiny(11), DatasetProfile::Tiny(12)};
  std::vector<ProfileInput> inputs(profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    ProfileInput& in = inputs[i];
    in.profile = profiles[i];
    in.name = size == Size::kFull ? profiles[i].name : "TINY" + std::to_string(11 + i);
    in.train_tsv = dir + "/" + in.name + "_train.tsv";
    in.test_tsv = dir + "/" + in.name + "_test.tsv";
    in.model_path = dir + "/" + in.name + ".rcbt";
    in.disc_path = dir + "/" + in.name + ".disc";
  }
  return inputs;
}

/// Set-up: generate each profile (permuted by the seed) and write the
/// train/test TSVs the timed path reads.
bool WriteInputs(const std::vector<ProfileInput>& inputs, uint64_t seed) {
  bool ok = true;
  for (const ProfileInput& in : inputs) {
    const GeneratedData data = PermutedProfile(in.profile, seed);
    ok = ok && data.train.WriteTsv(in.train_tsv).ok() &&
         data.test.WriteTsv(in.test_tsv).ok();
  }
  return ok;
}

/// Runs every profile once; checks each operation, and its predictions
/// against the first round's. Returns the round's total time. A non-null
/// `ctx` runs its probes before each operation and raises *peak_mib to the
/// operation's peak RSS, measured from a reset after the probes ran.
double RunRound(const std::vector<ProfileInput>& inputs, const Context* ctx,
                std::vector<OpResult>* first, double* peak_mib, Outcome* out) {
  double total = 0;
  std::vector<OpResult> round;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (ctx != nullptr) {
      ctx->Interleave(2);
      ResetPeakRss();
    }
    round.push_back(RunOp(inputs[i]));
    if (ctx != nullptr) *peak_mib = std::max(*peak_mib, PeakRssMib());
    const OpResult& r = round.back();
    total += r.total_s;
    const bool ok = r.ok && (first->empty() ||
                             r.predictions == (*first)[i].predictions);
    out->Record(ok, inputs[i].name + ": train op " +
                        (r.ok ? "repeat disagrees" : r.error));
  }
  if (first->empty()) *first = std::move(round);
  return total;
}

/// Checks the first round's saved artifacts and, at the default seed, its
/// test accuracy against the reference.
void CheckFirstRound(const std::vector<ProfileInput>& inputs,
                     const std::vector<OpResult>& first, uint64_t seed,
                     const Reference& reference, Outcome* out) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    const OpResult& r = first[i];
    if (!r.ok) continue;
    std::string why;
    out->Record(ReloadPredictsSame(inputs[i], r, &why),
                inputs[i].name + ": " + why);
    const double acc =
        100.0 * r.correct / std::max<uint32_t>(1, r.pipeline.test.num_rows());
    out->Note(inputs[i].name + " accuracy_pct " + FormatDouble(acc) +
              " train_s " + FormatDouble(r.train_s));
    if (seed == kDefaultSeed) {
      const std::string key = "table2-train." + inputs[i].name + ".accuracy_pct";
      const double want = reference.Number(key);
      out->Record(std::fabs(acc - want) < 0.005,
                  key + ": measured " + FormatDouble(acc) + ", reference " +
                      FormatDouble(want));
    }
  }
}

class Table2Probe : public Probe {
 public:
  Table2Probe(const Args& args, const Reference& reference, const std::string& dir)
      : args_(args), reference_(reference), inputs_(MakeInputs(Size::kSmoke, dir)) {
    ok_ = WriteInputs(inputs_, args.seed);
    result.Record(ok_, "table2-train probe: set-up");
  }

 protected:
  /// Two operations per round: the first warms what the workload's own
  /// operation left cold (caches, the heap), the second is measured.
  void Round() override {
    if (!ok_) return;
    RunRound(inputs_, nullptr, &first_, nullptr, &result);
    rounds_.push_back(RunRound(inputs_, nullptr, &first_, nullptr, &result));
    if (rounds_.size() == 1) {
      CheckFirstRound(inputs_, first_, args_.seed, reference_, &result);
    }
  }
  void Report() override { result.Set("train_s", Mean(rounds_), "s"); }

 private:
  const Args& args_;
  const Reference& reference_;
  std::vector<ProfileInput> inputs_;
  bool ok_ = false;
  std::vector<OpResult> first_;
  std::vector<double> rounds_;
};

}  // namespace

std::unique_ptr<Probe> MakeTable2Probe(const Args& args, const Reference& ref,
                                       const std::string& dir) {
  return std::make_unique<Table2Probe>(args, ref, dir);
}

void RunTable2Train(const Context& ctx) {
  Outcome* out = ctx.out;
  const std::vector<ProfileInput> inputs = MakeInputs(ctx.size, ctx.dir);
  bool setup_ok = true;
  const double setup_s = MedianSetupSeconds(
      2, [&] { setup_ok = WriteInputs(inputs, ctx.args.seed) && setup_ok; });
  out->Record(setup_ok, "table2-train: write input TSVs");
  out->Set("setup_s", setup_s, "s");
  if (!setup_ok) return;

  // Timed phase: whole operations, untraced, with the other workloads'
  // probes run between them. A traced run needs one round as its untraced
  // reference.
  std::vector<double> round_s;
  std::vector<OpResult> first;
  double peak_mib = 0;
  const double start = NowSeconds();
  do {
    round_s.push_back(RunRound(inputs, &ctx, &first, &peak_mib, out));
  } while (!ctx.tracer && NowSeconds() - start < ctx.MeasureSeconds());
  out->Set("peak_rss_mib", peak_mib, "MiB");
  out->Set("train_s", Median(round_s), "s");
  ctx.Interleave(2);
  CheckFirstRound(inputs, first, ctx.args.seed, ctx.reference, out);
  if (ctx.tracer == nullptr) return;

  // Traced pass, then reconciliation against the untraced round.
  Tracer* tr = ctx.tracer;
  TraceTotals totals;
  const double traced_start = NowSeconds();
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (first[i].ok) TracedProfile(ctx, inputs[i], first[i], i + 1, &totals);
  }
  const double traced_wall = NowSeconds() - traced_start;

  // The host's speed drifts over the tens of seconds the traced pass takes,
  // so the untraced reference is the mean of the round before it and one
  // round after it.
  const double untraced =
      (round_s.front() + RunRound(inputs, nullptr, &first, nullptr, out)) / 2;
  const double read = tr->LayerSelf("core");
  const double fit = tr->Total("discretize.Fit");
  const double apply = tr->Total("discretize.Apply");
  const double mine = tr->LayerSelf("mine");
  const double find_lb = tr->LayerSelf("find_lb");
  const double train = tr->Total("rcbt.Train");
  const double predict = tr->Total("rcbt.Predict");
  const double save = tr->LayerSelf("model_io");
  // RCBT's own selection work (sorting, rule pruning, the default class) is
  // the whole Train minus the mine and FindLB spans it decomposes into, all
  // from this pass; PreparePipeline's glue (selected-gene views, entropy
  // item scores) likewise.
  const double select = train - mine - find_lb;
  const double glue = totals.prepare_whole_s - fit - apply;

  const std::vector<double> lb_ms = [&] {
    std::vector<double> v = tr->Durations("find_lb.FindLowerBounds");
    for (double& d : v) d *= 1e3;
    return v;
  }();
  out->Set("core.read_tsv_s", read, "s");
  out->Set("discretize.fit_s", fit, "s");
  out->Set("discretize.apply_s", apply, "s");
  SetMineMetrics(totals.mine, totals.mine_calls, mine, out);
  out->Set("find_lb.calls", static_cast<double>(totals.find_lb_calls), "count");
  out->Set("find_lb.busy_s", find_lb, "s");
  out->Set("find_lb.call_p50_ms", Median(lb_ms), "ms");
  out->Set("find_lb.call_max_ms", Percentile(lb_ms, 100), "ms");
  out->Set("find_lb.bounds_returned", static_cast<double>(totals.bounds), "count");
  out->Set("find_lb.fill_ratio",
           totals.find_lb_calls
               ? static_cast<double>(totals.bounds) / (totals.find_lb_calls * totals.nl)
               : 0,
           "ratio");
  out->Set("rcbt.train_s", train, "s");
  out->Set("rcbt.select_s", select, "s");
  out->Set("model_io.save_s", save, "s");

  // The layer self times of the decomposed calls account for the untraced
  // operation time up to the named remainder: RCBT's selection and
  // PreparePipeline's glue, which the decomposition does not call. A slow or
  // missing span shows as a remainder outside +-15%. The tracing overhead
  // is the traced time of the same work (the decomposed calls with the
  // harness around them, plus selection and glue) over the untraced time.
  const double decomposed_wall =
      traced_wall - totals.prepare_whole_s - totals.train_whole_s;
  const double remainder = SetReconciliation(
      untraced,
      {{"core", read}, {"discretize", fit + apply}, {"mine", mine},
       {"find_lb", find_lb}, {"rcbt", predict}, {"model_io", save}},
      (decomposed_wall + select + glue) / untraced, out);
  out->Note("table2-train named remainder: RCBT selection " + FormatDouble(select) +
            " s + PreparePipeline glue " + FormatDouble(glue) + " s = " +
            FormatDouble((select + glue) / untraced) + " of the untraced " +
            FormatDouble(untraced) + " s; measured remainder " +
            FormatDouble(remainder));
  // Smoke inputs take milliseconds, too short to reconcile against noise.
  if (ctx.size == Size::kFull) {
    out->Record(std::fabs(remainder) <= 0.15,
                "table2-train: layer self times leave " + FormatDouble(remainder) +
                    " of untraced time unexplained (limit 0.15)");
  }
}

}  // namespace perfbench

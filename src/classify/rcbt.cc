#include "classify/rcbt.h"


#include "classify/cba.h"
#include "classify/find_lb.h"
#include "mine/miner_common.h"
#include "mine/topk_miner.h"
#include "util/status.h"

namespace topkrgs {

namespace {

/// Voting score S(γ) = conf * sup / d_c (bounded by 1).
double VotingScore(const Rule& rule, const std::vector<uint32_t>& class_counts) {
  const uint32_t d = class_counts[rule.consequent];
  if (d == 0) return 0.0;
  return rule.confidence() * static_cast<double>(rule.support) / d;
}

}  // namespace

RcbtClassifier RcbtClassifier::FromParts(
    std::vector<std::vector<Rule>> classifiers,
    std::vector<uint32_t> class_counts, ClassLabel default_class) {
  RcbtClassifier clf;
  clf.class_counts_ = std::move(class_counts);
  clf.num_classes_ = static_cast<uint32_t>(clf.class_counts_.size());
  clf.default_class_ = default_class;
  for (auto& rules : classifiers) {
    SubClassifier sub;
    sub.rules = std::move(rules);
    sub.score_norm.assign(clf.num_classes_, 0.0);
    for (const Rule& rule : sub.rules) {
      // Deserialization (ParseRcbtModel) validates consequents against the
      // class count before calling here; an out-of-range consequent at this
      // point is a caller bug, not bad input.
      TOPKRGS_CHECK(rule.consequent < clf.num_classes_,
                    "FromParts: rule consequent out of range");
      sub.score_norm[rule.consequent] += VotingScore(rule, clf.class_counts_);
    }
    clf.classifiers_.push_back(std::move(sub));
  }
  return clf;
}

RcbtClassifier RcbtClassifier::Train(const DiscreteDataset& train,
                                     const RcbtOptions& options) {
  TOPKRGS_CHECK(options.k >= 1, "RCBT needs k >= 1");
  RcbtClassifier clf;
  clf.num_classes_ = train.num_classes();
  clf.class_counts_ = train.ClassCounts();

  // Mine top-k covering rule groups once per class.
  std::vector<TopkResult> mined(train.num_classes());
  for (uint32_t cls = 0; cls < train.num_classes(); ++cls) {
    if (clf.class_counts_[cls] == 0) continue;
    TopkMinerOptions mopt;
    mopt.k = options.k;
    mopt.min_support =
        MinSupportFromFrac(options.min_support_frac, clf.class_counts_[cls]);
    mined[cls] = MineTopkRGS(train, static_cast<ClassLabel>(cls), mopt);
  }

  FindLbOptions lopt;
  lopt.num_lower_bounds = options.nl;
  std::vector<double> computed_scores;
  const std::vector<double>& item_scores =
      ResolveItemScores(train, options.item_scores, &computed_scores);
  std::vector<Bitset> class_rows(train.num_classes(), Bitset(train.num_rows()));
  for (RowId r = 0; r < train.num_rows(); ++r) class_rows[train.label(r)].Set(r);

  bool default_set = false;
  for (uint32_t j = 1; j <= options.k; ++j) {
    // RG_j: groups appearing as a top-j group of some row, over all classes.
    std::vector<Rule> rules;
    for (uint32_t cls = 0; cls < train.num_classes(); ++cls) {
      for (const RuleGroupPtr& group : mined[cls].GroupsAtRank(j)) {
        std::vector<Rule> lbs =
            FindLowerBounds(train, *group, item_scores, lopt);
        for (Rule& lb : lbs) rules.push_back(std::move(lb));
      }
    }
    if (rules.empty()) {
      if (j == 1) break;  // nothing mined at all
      continue;
    }
    // Sort by CBA's precedence and prune rules that classify no training
    // row correctly. Unlike CBA's Step 3 this keeps every such rule rather
    // than cascading row removal: RCBT aggregates a *subset of rules* per
    // decision, and Figure 7 (accuracy responds to nl up to ~15-20 rules
    // per group) only makes sense if the covering lists survive selection.
    SortRulesByPrecedence(&rules);
    SubClassifier sub;
    Bitset covered_correctly(train.num_rows());
    for (Rule& rule : rules) {
      // The rows a rule classifies correctly: its antecedent's support set
      // within its consequent class.
      Bitset correct = train.ItemSupportSet(rule.antecedent);
      correct.IntersectWith(class_rows[rule.consequent]);
      if (correct.None()) continue;
      covered_correctly.UnionWith(correct);
      sub.rules.push_back(std::move(rule));
    }
    sub.score_norm.assign(train.num_classes(), 0.0);
    for (const Rule& rule : sub.rules) {
      sub.score_norm[rule.consequent] += VotingScore(rule, clf.class_counts_);
    }
    if (j == 1) {
      // Default class: majority among the training rows no main-classifier
      // rule classifies correctly.
      std::vector<uint32_t> uncovered(train.num_classes(), 0);
      bool any_uncovered = false;
      for (RowId r = 0; r < train.num_rows(); ++r) {
        if (!covered_correctly.Test(r)) {
          ++uncovered[train.label(r)];
          any_uncovered = true;
        }
      }
      if (any_uncovered) {
        ClassLabel majority = 0;
        for (uint32_t c = 1; c < uncovered.size(); ++c) {
          if (uncovered[c] > uncovered[majority]) {
            majority = static_cast<ClassLabel>(c);
          }
        }
        clf.default_class_ = majority;
        default_set = true;
      }
    }
    clf.classifiers_.push_back(std::move(sub));
  }

  if (!default_set) {
    ClassLabel majority = 0;
    for (uint32_t c = 1; c < clf.class_counts_.size(); ++c) {
      if (clf.class_counts_[c] > clf.class_counts_[majority]) {
        majority = static_cast<ClassLabel>(c);
      }
    }
    clf.default_class_ = majority;
  }
  return clf;
}

RcbtClassifier::Prediction RcbtClassifier::Predict(
    const Bitset& row_items) const {
  Prediction out;
  for (uint32_t j = 0; j < classifiers_.size(); ++j) {
    const SubClassifier& sub = classifiers_[j];
    std::vector<double> scores(num_classes_, 0.0);
    std::vector<uint32_t> matched;
    for (uint32_t i = 0; i < sub.rules.size(); ++i) {
      const Rule& rule = sub.rules[i];
      if (!rule.antecedent.IsSubsetOf(row_items)) continue;
      matched.push_back(i);
      scores[rule.consequent] += VotingScore(rule, class_counts_);
    }
    if (matched.empty()) continue;
    for (uint32_t c = 0; c < num_classes_; ++c) {
      if (sub.score_norm[c] > 0.0) scores[c] /= sub.score_norm[c];
    }
    uint32_t best = 0;
    for (uint32_t c = 1; c < num_classes_; ++c) {
      if (scores[c] > scores[best]) best = c;
    }
    out.label = static_cast<ClassLabel>(best);
    out.classifier_index = j + 1;
    out.used_default = false;
    out.scores = std::move(scores);
    out.matched_rules = std::move(matched);
    return out;
  }
  out.label = default_class_;
  out.classifier_index = 0;
  out.used_default = true;
  return out;
}

}  // namespace topkrgs

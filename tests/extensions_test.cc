#include <gtest/gtest.h>

#include <string>

#include "classify/evaluator.h"
#include "mine/carpenter.h"
#include "mine/hybrid_miner.h"
#include "mine/naive_miner.h"
#include "mine/topk_miner.h"
#include "scale/topk_merge.h"
#include "synth/generator.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;
using testing_util::SignificanceSeq;

std::vector<testing_util::CanonicalGroup> CanonicalPatterns(
    const std::vector<ClosedPattern>& patterns) {
  std::vector<testing_util::CanonicalGroup> out;
  for (const ClosedPattern& p : patterns) {
    out.push_back({p.items.ToVector(), p.support, p.support});
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CarpenterTest, RunningExampleClosedPatterns) {
  DiscreteDataset d = MakeRunningExampleDataset();
  CarpenterOptions opt;
  opt.min_support = 2;
  CarpenterResult result = MineCarpenter(d, opt);
  const auto oracle = NaiveClosedPatterns(d, 2);
  EXPECT_EQ(CanonicalPatterns(result.patterns), CanonicalPatterns(oracle));
  // Pattern supports and rowsets must be consistent.
  for (const ClosedPattern& p : result.patterns) {
    EXPECT_EQ(p.support, p.rows.Count());
    EXPECT_EQ(d.ItemSupportSet(p.items), p.rows);
  }
}

class CarpenterOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(CarpenterOracleTest, MatchesOracle) {
  const auto [seed, minsup] = GetParam();
  DiscreteDataset d = RandomDataset(static_cast<uint64_t>(seed), 10, 12, 0.4);
  const auto oracle = NaiveClosedPatterns(d, minsup);
  for (bool prefix : {false, true}) {
    CarpenterOptions opt;
    opt.min_support = minsup;
    opt.use_prefix_tree = prefix;
    CarpenterResult result = MineCarpenter(d, opt);
    ASSERT_EQ(CanonicalPatterns(result.patterns), CanonicalPatterns(oracle))
        << "seed=" << seed << " minsup=" << minsup << " prefix=" << prefix;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CarpenterOracleTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(1u, 2u, 3u,
                                                              5u)));

TEST(CarpenterTest, MaxPatternsStopsEarly) {
  DiscreteDataset d = RandomDataset(9, 12, 14, 0.5);
  CarpenterOptions opt;
  opt.min_support = 1;
  opt.max_patterns = 4;
  CarpenterResult result = MineCarpenter(d, opt);
  EXPECT_EQ(result.patterns.size(), 4u);
  EXPECT_TRUE(result.stats.timed_out);
}

TEST(CarpenterTest, MinsupAboveRowsYieldsNothing) {
  DiscreteDataset d = MakeRunningExampleDataset();
  CarpenterOptions opt;
  opt.min_support = 6;
  EXPECT_TRUE(MineCarpenter(d, opt).patterns.empty());
}

class HybridOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t, uint32_t>> {};

TEST_P(HybridOracleTest, MatchesRowEnumerationMiner) {
  const auto [seed, k, minsup] = GetParam();
  DiscreteDataset d = RandomDataset(static_cast<uint64_t>(seed), 10, 12, 0.4);
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    TopkMinerOptions opt;
    opt.k = k;
    opt.min_support = minsup;
    const TopkResult expected = MineTopkRGS(d, cls, opt);
    const TopkResult hybrid = MineTopkRGSHybrid(d, cls, opt);
    for (RowId r = 0; r < d.num_rows(); ++r) {
      ASSERT_EQ(SignificanceSeq(hybrid.per_row[r]),
                SignificanceSeq(expected.per_row[r]))
          << "seed=" << seed << " k=" << k << " minsup=" << minsup
          << " cls=" << int(cls) << " row=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HybridOracleTest,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Values(1u, 3u),
                       ::testing::Values(1u, 2u, 3u)));

TEST(HybridTest, GroupsAreValidGlobally) {
  DiscreteDataset d = RandomDataset(77, 11, 13, 0.45);
  TopkMinerOptions opt;
  opt.k = 3;
  opt.min_support = 2;
  const TopkResult result = MineTopkRGSHybrid(d, 1, opt);
  const Bitset class_rows = d.ClassRowset(1);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    for (const RuleGroupPtr& g : result.per_row[r]) {
      // Supports are global, not per-partition.
      EXPECT_EQ(d.ItemSupportSet(g->antecedent), g->row_support);
      EXPECT_EQ(g->antecedent_support, g->row_support.Count());
      EXPECT_EQ(g->support, g->row_support.IntersectCount(class_rows));
      EXPECT_TRUE(g->row_support.Test(r));
    }
  }
}

TEST(HybridTest, ParallelMatchesSerial) {
  DiscreteDataset d = RandomDataset(91, 12, 14, 0.4);
  TopkMinerOptions serial;
  serial.k = 3;
  serial.min_support = 2;
  TopkMinerOptions parallel = serial;
  parallel.threads = 4;
  const TopkResult a = MineTopkRGSHybrid(d, 1, serial);
  const TopkResult b = MineTopkRGSHybrid(d, 1, parallel);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(SignificanceSeq(a.per_row[r]), SignificanceSeq(b.per_row[r]))
        << r;
  }
}

// MineTopkRGSHybrid is the one parallel top-k miner: its partitions fan
// out over `threads` workers and aggregate in item order, so any thread
// count must give the same lists, group for group.
TEST(TopkParallelTest, HybridMinerHonorsThreadsField) {
  const DiscreteDataset data = RandomDataset(13, 20, 24, 0.4);
  TopkMinerOptions serial;
  serial.k = 2;
  serial.min_support = 2;
  serial.threads = 1;
  const TopkResult reference = MineTopkRGSHybrid(data, 1, serial);
  TopkMinerOptions parallel = serial;
  parallel.threads = 4;
  const TopkResult result = MineTopkRGSHybrid(data, 1, parallel);
  EXPECT_EQ(TopkDigest(reference.per_row, reference.effective_min_support),
            TopkDigest(result.per_row, result.effective_min_support));
  EXPECT_EQ(result.DistinctGroups().size(), reference.DistinctGroups().size());
}

TEST(HybridTest, ZeroThreadsMeansHardwareDefault) {
  DiscreteDataset d = RandomDataset(92, 10, 12, 0.4);
  TopkMinerOptions opt;
  opt.k = 2;
  opt.min_support = 2;
  opt.threads = 0;
  const TopkResult via_hw = MineTopkRGSHybrid(d, 1, opt);
  opt.threads = 1;
  const TopkResult via_one = MineTopkRGSHybrid(d, 1, opt);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(SignificanceSeq(via_hw.per_row[r]),
              SignificanceSeq(via_one.per_row[r]));
  }
}

TEST(TopkParallelTest, ResolveThreadCountClampsAutoToAtLeastOne) {
  // threads = 0 means "one per hardware core", but the standard allows
  // hardware_concurrency() to report 0 when the core count is unknowable;
  // the resolved worker count must still be >= 1.
  EXPECT_EQ(ResolveThreadCount(0, 0), 1u);
  EXPECT_EQ(ResolveThreadCount(0, 1), 1u);
  EXPECT_EQ(ResolveThreadCount(0, 8), 8u);
  // Explicit requests pass through untouched, even on the 0-core report.
  EXPECT_EQ(ResolveThreadCount(3, 0), 3u);
  EXPECT_EQ(ResolveThreadCount(1, 16), 1u);
}

/// Deep equality of two mining results: every per-row list must match
/// group-for-group (antecedent, supports, row support, order), along with
/// the derived threshold and the distinct-group ordering.
void ExpectIdenticalResults(const TopkResult& a, const TopkResult& b,
                            const std::string& context) {
  EXPECT_EQ(a.effective_min_support, b.effective_min_support) << context;
  ASSERT_EQ(a.per_row.size(), b.per_row.size()) << context;
  for (size_t r = 0; r < a.per_row.size(); ++r) {
    const auto& la = a.per_row[r];
    const auto& lb = b.per_row[r];
    ASSERT_EQ(la.size(), lb.size()) << context << " row " << r;
    for (size_t i = 0; i < la.size(); ++i) {
      const RuleGroup& ga = *la[i];
      const RuleGroup& gb = *lb[i];
      EXPECT_EQ(ga.antecedent, gb.antecedent)
          << context << " row " << r << " rank " << i;
      EXPECT_EQ(ga.consequent, gb.consequent)
          << context << " row " << r << " rank " << i;
      EXPECT_EQ(ga.support, gb.support)
          << context << " row " << r << " rank " << i;
      EXPECT_EQ(ga.antecedent_support, gb.antecedent_support)
          << context << " row " << r << " rank " << i;
      EXPECT_EQ(ga.row_support, gb.row_support)
          << context << " row " << r << " rank " << i;
    }
  }
  const auto da = a.DistinctGroups();
  const auto db = b.DistinctGroups();
  ASSERT_EQ(da.size(), db.size()) << context;
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i]->antecedent, db[i]->antecedent) << context << " #" << i;
    EXPECT_EQ(da[i]->row_support, db[i]->row_support) << context << " #" << i;
  }
}

/// "Results do not depend on the thread count" (TopkMinerOptions::threads)
/// for both top-k miners: MineTopkRGS must return its threads=1 lists and
/// node count at any value of the field, and MineTopkRGSHybrid, which fans
/// its partitions out over that many workers, its threads=1 lists.
void CheckThreadInvariance(const DiscreteDataset& data, ClassLabel consequent,
                           TopkMinerOptions opt, const std::string& context) {
  opt.threads = 1;
  const TopkResult serial = MineTopkRGS(data, consequent, opt);
  const TopkResult hybrid = MineTopkRGSHybrid(data, consequent, opt);
  EXPECT_FALSE(serial.stats.timed_out) << context;
  EXPECT_FALSE(hybrid.stats.timed_out) << context;
  for (uint32_t threads : {2u, 8u, 0u /* auto = hardware cores */}) {
    TopkMinerOptions par = opt;
    par.threads = threads;
    const std::string at = context + " threads=" + std::to_string(threads);
    const TopkResult result = MineTopkRGS(data, consequent, par);
    EXPECT_EQ(result.stats.nodes_visited, serial.stats.nodes_visited) << at;
    ExpectIdenticalResults(serial, result, at);
    // threads=0 on the hybrid miner is HybridTest.ZeroThreadsMeansHardware-
    // Default's case; here the worker count stays bounded.
    if (threads == 0) continue;
    ExpectIdenticalResults(hybrid, MineTopkRGSHybrid(data, consequent, par),
                           at + " hybrid");
  }
}

TEST(TopkParallelTest, DeterministicOnSyntheticPipelineData) {
  for (uint64_t seed : {7u, 19u}) {
    const GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(seed));
    const Pipeline pipeline = PreparePipeline(data.train, data.test);
    for (ClassLabel consequent : {0, 1}) {
      TopkMinerOptions opt;
      opt.k = 3;
      opt.min_support = 2;
      CheckThreadInvariance(pipeline.train, consequent, opt,
                            "tiny seed " + std::to_string(seed) + " class " +
                                std::to_string(consequent));
    }
  }
}

TEST(TopkParallelTest, DeterministicAcrossBackends) {
  const DiscreteDataset data = RandomDataset(11, 28, 40, 0.35);
  for (auto backend : {TopkMinerOptions::Backend::kPrefixTree,
                       TopkMinerOptions::Backend::kBitset,
                       TopkMinerOptions::Backend::kVector}) {
    TopkMinerOptions opt;
    opt.k = 4;
    opt.min_support = 2;
    opt.backend = backend;
    CheckThreadInvariance(
        data, 1, opt,
        "backend " + std::to_string(static_cast<int>(backend)));
  }
}

TEST(TopkParallelTest, DeterministicOverRandomDatasets) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const DiscreteDataset data = RandomDataset(seed, 24, 32, 0.4);
    for (uint32_t k : {1u, 2u, 5u}) {
      TopkMinerOptions opt;
      opt.k = k;
      opt.min_support = 1 + static_cast<uint32_t>(seed % 3);
      CheckThreadInvariance(data, 1, opt,
                            "seed " + std::to_string(seed) + " k " +
                                std::to_string(k));
    }
  }
}

TEST(HybridTest, RunningExample) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TopkMinerOptions opt;
  opt.k = 1;
  opt.min_support = 2;
  const TopkResult hybrid = MineTopkRGSHybrid(d, 1, opt);
  // r1/r2: abc -> C (conf 1.0, sup 2).
  ASSERT_EQ(hybrid.per_row[0].size(), 1u);
  EXPECT_EQ(hybrid.per_row[0][0]->support, 2u);
  EXPECT_EQ(hybrid.per_row[0][0]->antecedent_support, 2u);
  // r3: c -> C (conf 0.75, sup 3) per Definition 2.2.
  ASSERT_EQ(hybrid.per_row[2].size(), 1u);
  EXPECT_EQ(hybrid.per_row[2][0]->support, 3u);
  EXPECT_EQ(hybrid.per_row[2][0]->antecedent_support, 4u);
}

}  // namespace
}  // namespace topkrgs

// Golden equivalence pins for FindLB: the ordered Rule::ToString sequence
// FindLowerBounds returns for every rule group of generated datasets,
// crossed with nl, the item ranking (computed or supplied), max_depth and
// max_candidates (the default and one small enough that both the examined
// cap and the frontier-size cap fire); the same for FindAllLowerBounds;
// and a digest of the saved RCBT and CBA models trained on Tiny profiles.
// A refactor of the lower-bound search that keeps every pin returns the
// same rules in the same order as the implementation that recorded them.
//
// A mismatch prints the case and the value observed, in table syntax.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "classify/cba.h"
#include "classify/evaluator.h"
#include "classify/find_lb.h"
#include "classify/model_io.h"
#include "classify/rcbt.h"
#include "mine/naive_miner.h"
#include "mine/topk_miner.h"
#include "synth/generator.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;

/// FNV-1a over a byte string, folded into a running digest.
uint64_t Fold(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  h ^= 0xff;  // separator, so "ab","c" and "a","bc" differ
  return h * 0x100000001b3ull;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

struct GoldenDataset {
  std::string name;
  DiscreteDataset data;
  std::vector<RuleGroup> groups;  // both consequents, canonical order
  std::vector<double> scores;     // supplied ranking, with ties
};

/// Sorts groups by (consequent, antecedent items, support) so the pinned
/// order does not depend on the miner's output order.
void Canonicalize(std::vector<RuleGroup>* groups) {
  std::sort(groups->begin(), groups->end(),
            [](const RuleGroup& a, const RuleGroup& b) {
              if (a.consequent != b.consequent) {
                return a.consequent < b.consequent;
              }
              const auto ia = a.antecedent.ToVector();
              const auto ib = b.antecedent.ToVector();
              if (ia != ib) return ia < ib;
              return a.support < b.support;
            });
}

/// Scores with many ties (five distinct values), so the stable ranking
/// order of equal-score items is pinned too.
std::vector<double> TiedScores(uint32_t num_items) {
  std::vector<double> scores(num_items);
  for (uint32_t i = 0; i < num_items; ++i) scores[i] = (i * 7u) % 5u;
  return scores;
}

GoldenDataset FromNaive(const std::string& name, DiscreteDataset data,
                        uint32_t min_support) {
  GoldenDataset ds{name, std::move(data), {}, {}};
  for (ClassLabel cls : {0, 1}) {
    for (RuleGroup& g : NaiveRuleGroups(ds.data, cls, min_support)) {
      ds.groups.push_back(std::move(g));
    }
  }
  Canonicalize(&ds.groups);
  ds.scores = TiedScores(ds.data.num_items());
  return ds;
}

GoldenDataset FromTopk(const std::string& name, uint64_t seed) {
  const GeneratedData generated = GenerateMicroarray(DatasetProfile::Tiny(seed));
  Pipeline p = PreparePipeline(generated.train, generated.test);
  GoldenDataset ds{name, std::move(p.train), {}, std::move(p.item_scores)};
  for (ClassLabel cls : {0, 1}) {
    TopkMinerOptions opt;
    opt.k = 5;
    opt.min_support = 2;
    const TopkResult result = MineTopkRGS(ds.data, cls, opt);
    for (const RuleGroupPtr& g : result.DistinctGroups()) {
      ds.groups.push_back(*g);
    }
  }
  Canonicalize(&ds.groups);
  return ds;
}

std::vector<GoldenDataset> GoldenDatasets() {
  std::vector<GoldenDataset> out;
  out.push_back(FromNaive("rand1", RandomDataset(1, 16, 24, 0.5), 2));
  // Dense enough that many closed antecedents exceed the first 16-item
  // window, so the window doubles.
  out.push_back(FromNaive("rand2", RandomDataset(2, 14, 36, 0.65), 2));
  out.push_back(FromNaive("rand3", RandomDataset(3, 12, 44, 0.75), 1));
  out.push_back(FromTopk("tiny7", 7));
  out.push_back(FromTopk("tiny19", 19));
  return out;
}

struct Pin {
  uint64_t digest;
  uint64_t count;  // rules returned, or bytes saved for the model pins
};

// Cases in enumeration order: dataset, nl in {1,4,20}, scores in
// {computed, supplied}, max_depth in {2,5}, max_candidates in {default,
// 60}. Each pin folds every group's rule list, in group order.
constexpr Pin kFindLbPins[] = {
    {0xc032e56e6419ef04ull, 717},  // rand1 nl=1 computed depth=2 cap=2000000
    {0xc032e56e6419ef04ull, 717},  // rand1 nl=1 computed depth=2 cap=60
    {0x5fb8a91cdc412034ull, 717},  // rand1 nl=1 computed depth=5 cap=2000000
    {0x5fb8a91cdc412034ull, 717},  // rand1 nl=1 computed depth=5 cap=60
    {0x25758c446dc823d2ull, 717},  // rand1 nl=1 supplied depth=2 cap=2000000
    {0x25758c446dc823d2ull, 717},  // rand1 nl=1 supplied depth=2 cap=60
    {0x12dfd1c2fd7a1062ull, 717},  // rand1 nl=1 supplied depth=5 cap=2000000
    {0xd09a8cb18c8e7546ull, 717},  // rand1 nl=1 supplied depth=5 cap=60
    {0x085362b6aecd619eull, 743},  // rand1 nl=4 computed depth=2 cap=2000000
    {0x085362b6aecd619eull, 743},  // rand1 nl=4 computed depth=2 cap=60
    {0x02a901e6a1f5569cull, 1091},  // rand1 nl=4 computed depth=5 cap=2000000
    {0xdd350cddbe488234ull, 1055},  // rand1 nl=4 computed depth=5 cap=60
    {0xb70d0dd914c7d708ull, 743},  // rand1 nl=4 supplied depth=2 cap=2000000
    {0xb70d0dd914c7d708ull, 743},  // rand1 nl=4 supplied depth=2 cap=60
    {0x0b1aa24ab8821d14ull, 1091},  // rand1 nl=4 supplied depth=5 cap=2000000
    {0x2238e0bfd2ac264eull, 1057},  // rand1 nl=4 supplied depth=5 cap=60
    {0x085362b6aecd619eull, 743},  // rand1 nl=20 computed depth=2 cap=2000000
    {0x085362b6aecd619eull, 743},  // rand1 nl=20 computed depth=2 cap=60
    {0xdd040b06a765c192ull, 1403},  // rand1 nl=20 computed depth=5 cap=2000000
    {0xbb9e73e5291beb6full, 1145},  // rand1 nl=20 computed depth=5 cap=60
    {0xb70d0dd914c7d708ull, 743},  // rand1 nl=20 supplied depth=2 cap=2000000
    {0xb70d0dd914c7d708ull, 743},  // rand1 nl=20 supplied depth=2 cap=60
    {0x9789fb62eda04710ull, 1403},  // rand1 nl=20 supplied depth=5 cap=2000000
    {0xaf2e7802b4e72c86ull, 1155},  // rand1 nl=20 supplied depth=5 cap=60
    {0xb16ed9ac347480b1ull, 3229},  // rand2 nl=1 computed depth=2 cap=2000000
    {0xbd2e91619cfd07c1ull, 3229},  // rand2 nl=1 computed depth=2 cap=60
    {0xde2de91780cbb3a2ull, 3229},  // rand2 nl=1 computed depth=5 cap=2000000
    {0x9a36b3c182e21236ull, 3229},  // rand2 nl=1 computed depth=5 cap=60
    {0x2d82e4a1ff39d408ull, 3229},  // rand2 nl=1 supplied depth=2 cap=2000000
    {0xf312d73b1b847872ull, 3229},  // rand2 nl=1 supplied depth=2 cap=60
    {0x0b8fc937c5f120d5ull, 3229},  // rand2 nl=1 supplied depth=5 cap=2000000
    {0x9cf7ffef18df8a11ull, 3229},  // rand2 nl=1 supplied depth=5 cap=60
    {0x627c012802d2ab13ull, 3391},  // rand2 nl=4 computed depth=2 cap=2000000
    {0xf5a16d181b10fde8ull, 3375},  // rand2 nl=4 computed depth=2 cap=60
    {0xbb2571d914865369ull, 7449},  // rand2 nl=4 computed depth=5 cap=2000000
    {0x2f3a34f81dd6d1b7ull, 4666},  // rand2 nl=4 computed depth=5 cap=60
    {0x8cb42f6b5d0f0e3full, 3391},  // rand2 nl=4 supplied depth=2 cap=2000000
    {0x573eb6914a8c0ddcull, 3386},  // rand2 nl=4 supplied depth=2 cap=60
    {0x01c26c84b45d7ac6ull, 7449},  // rand2 nl=4 supplied depth=5 cap=2000000
    {0xf00b3deec417ccaeull, 4662},  // rand2 nl=4 supplied depth=5 cap=60
    {0x182a901e8c678f93ull, 3393},  // rand2 nl=20 computed depth=2 cap=2000000
    {0x6c095199bdc6d010ull, 3377},  // rand2 nl=20 computed depth=2 cap=60
    {0xe394c905f81b005bull, 13686},  // rand2 nl=20 computed depth=5 cap=2000000
    {0x1fd1fe0f3efcef52ull, 4754},  // rand2 nl=20 computed depth=5 cap=60
    {0x63e1d8cd48d8a13full, 3393},  // rand2 nl=20 supplied depth=2 cap=2000000
    {0x95a3ac8058629cdaull, 3388},  // rand2 nl=20 supplied depth=2 cap=60
    {0xf411f349ea056843ull, 13686},  // rand2 nl=20 supplied depth=5 cap=2000000
    {0x8808800059488c61ull, 4741},  // rand2 nl=20 supplied depth=5 cap=60
    {0xd2532d188b364cffull, 3820},  // rand3 nl=1 computed depth=2 cap=2000000
    {0x8eb89e231ba90466ull, 3820},  // rand3 nl=1 computed depth=2 cap=60
    {0xb32a2a92da1a063bull, 3820},  // rand3 nl=1 computed depth=5 cap=2000000
    {0xa1262ffbef2ed8eaull, 3820},  // rand3 nl=1 computed depth=5 cap=60
    {0x752b779dcbddbeabull, 3820},  // rand3 nl=1 supplied depth=2 cap=2000000
    {0xce5a125d25c724e0ull, 3820},  // rand3 nl=1 supplied depth=2 cap=60
    {0xaf5d9c51daeb12cbull, 3820},  // rand3 nl=1 supplied depth=5 cap=2000000
    {0x1170778a76f3cbdcull, 3820},  // rand3 nl=1 supplied depth=5 cap=60
    {0x2998e9660d337f0dull, 4436},  // rand3 nl=4 computed depth=2 cap=2000000
    {0x2777840d00f757c4ull, 4370},  // rand3 nl=4 computed depth=2 cap=60
    {0x5ff6325b775f26f0ull, 13304},  // rand3 nl=4 computed depth=5 cap=2000000
    {0x279bfb05e3723135ull, 4968},  // rand3 nl=4 computed depth=5 cap=60
    {0x25f0560eaa2f520dull, 4436},  // rand3 nl=4 supplied depth=2 cap=2000000
    {0x1369f002d11bf8f8ull, 4396},  // rand3 nl=4 supplied depth=2 cap=60
    {0x2fcd7f681bc884b5ull, 13304},  // rand3 nl=4 supplied depth=5 cap=2000000
    {0xa96238285e7fd68bull, 5186},  // rand3 nl=4 supplied depth=5 cap=60
    {0xc85f2ddb140d7534ull, 4484},  // rand3 nl=20 computed depth=2 cap=2000000
    {0x6ecbfae47ccf2c28ull, 4410},  // rand3 nl=20 computed depth=2 cap=60
    {0xa9661db856cbf6a0ull, 43100},  // rand3 nl=20 computed depth=5 cap=2000000
    {0xa9950a28ca523813ull, 5042},  // rand3 nl=20 computed depth=5 cap=60
    {0xc218be4acb3a5224ull, 4484},  // rand3 nl=20 supplied depth=2 cap=2000000
    {0xaa93a3ebbbc2a905ull, 4438},  // rand3 nl=20 supplied depth=2 cap=60
    {0xcd39d37cb731aa11ull, 43100},  // rand3 nl=20 supplied depth=5 cap=2000000
    {0x2f1b6e403b866586ull, 5256},  // rand3 nl=20 supplied depth=5 cap=60
    {0x009e6214490d3984ull, 14},  // tiny7 nl=1 computed depth=2 cap=2000000
    {0x009e6214490d3984ull, 14},  // tiny7 nl=1 computed depth=2 cap=60
    {0x009e6214490d3984ull, 14},  // tiny7 nl=1 computed depth=5 cap=2000000
    {0x009e6214490d3984ull, 14},  // tiny7 nl=1 computed depth=5 cap=60
    {0x009e6214490d3984ull, 14},  // tiny7 nl=1 supplied depth=2 cap=2000000
    {0x009e6214490d3984ull, 14},  // tiny7 nl=1 supplied depth=2 cap=60
    {0x009e6214490d3984ull, 14},  // tiny7 nl=1 supplied depth=5 cap=2000000
    {0x009e6214490d3984ull, 14},  // tiny7 nl=1 supplied depth=5 cap=60
    {0x158d5ae893c6d604ull, 39},  // tiny7 nl=4 computed depth=2 cap=2000000
    {0xfe9d3ddba291d5caull, 37},  // tiny7 nl=4 computed depth=2 cap=60
    {0x9085fc1b644adb79ull, 43},  // tiny7 nl=4 computed depth=5 cap=2000000
    {0xfe9d3ddba291d5caull, 37},  // tiny7 nl=4 computed depth=5 cap=60
    {0x158d5ae893c6d604ull, 39},  // tiny7 nl=4 supplied depth=2 cap=2000000
    {0xfe9d3ddba291d5caull, 37},  // tiny7 nl=4 supplied depth=2 cap=60
    {0x9085fc1b644adb79ull, 43},  // tiny7 nl=4 supplied depth=5 cap=2000000
    {0xfe9d3ddba291d5caull, 37},  // tiny7 nl=4 supplied depth=5 cap=60
    {0xe717bd68355f3960ull, 74},  // tiny7 nl=20 computed depth=2 cap=2000000
    {0xa6c30a204a9db7abull, 71},  // tiny7 nl=20 computed depth=2 cap=60
    {0x38e6ec0637cd2379ull, 116},  // tiny7 nl=20 computed depth=5 cap=2000000
    {0xe15f71bc937b48a8ull, 74},  // tiny7 nl=20 computed depth=5 cap=60
    {0xe717bd68355f3960ull, 74},  // tiny7 nl=20 supplied depth=2 cap=2000000
    {0xa6c30a204a9db7abull, 71},  // tiny7 nl=20 supplied depth=2 cap=60
    {0x38e6ec0637cd2379ull, 116},  // tiny7 nl=20 supplied depth=5 cap=2000000
    {0xe15f71bc937b48a8ull, 74},  // tiny7 nl=20 supplied depth=5 cap=60
    {0xd41b2c2a74b69f79ull, 15},  // tiny19 nl=1 computed depth=2 cap=2000000
    {0xd41b2c2a74b69f79ull, 15},  // tiny19 nl=1 computed depth=2 cap=60
    {0xd41b2c2a74b69f79ull, 15},  // tiny19 nl=1 computed depth=5 cap=2000000
    {0xd41b2c2a74b69f79ull, 15},  // tiny19 nl=1 computed depth=5 cap=60
    {0xd41b2c2a74b69f79ull, 15},  // tiny19 nl=1 supplied depth=2 cap=2000000
    {0xd41b2c2a74b69f79ull, 15},  // tiny19 nl=1 supplied depth=2 cap=60
    {0xd41b2c2a74b69f79ull, 15},  // tiny19 nl=1 supplied depth=5 cap=2000000
    {0xd41b2c2a74b69f79ull, 15},  // tiny19 nl=1 supplied depth=5 cap=60
    {0xf4af7d4040c9ce9full, 44},  // tiny19 nl=4 computed depth=2 cap=2000000
    {0xf4af7d4040c9ce9full, 44},  // tiny19 nl=4 computed depth=2 cap=60
    {0xf4af7d4040c9ce9full, 44},  // tiny19 nl=4 computed depth=5 cap=2000000
    {0xf4af7d4040c9ce9full, 44},  // tiny19 nl=4 computed depth=5 cap=60
    {0xf4af7d4040c9ce9full, 44},  // tiny19 nl=4 supplied depth=2 cap=2000000
    {0xf4af7d4040c9ce9full, 44},  // tiny19 nl=4 supplied depth=2 cap=60
    {0xf4af7d4040c9ce9full, 44},  // tiny19 nl=4 supplied depth=5 cap=2000000
    {0xf4af7d4040c9ce9full, 44},  // tiny19 nl=4 supplied depth=5 cap=60
    {0x6a9dc21cc4800ac3ull, 71},  // tiny19 nl=20 computed depth=2 cap=2000000
    {0x9c3cb806c44cdf63ull, 70},  // tiny19 nl=20 computed depth=2 cap=60
    {0xd4827b79669d3736ull, 94},  // tiny19 nl=20 computed depth=5 cap=2000000
    {0x6b658846edd739f8ull, 75},  // tiny19 nl=20 computed depth=5 cap=60
    {0x6a9dc21cc4800ac3ull, 71},  // tiny19 nl=20 supplied depth=2 cap=2000000
    {0x9c3cb806c44cdf63ull, 70},  // tiny19 nl=20 supplied depth=2 cap=60
    {0xd4827b79669d3736ull, 94},  // tiny19 nl=20 supplied depth=5 cap=2000000
    {0x6b658846edd739f8ull, 75},  // tiny19 nl=20 supplied depth=5 cap=60
};

TEST(FindLbGoldenTest, LowerBoundsMatchPins) {
  size_t index = 0;
  size_t mismatches = 0;
  for (const GoldenDataset& ds : GoldenDatasets()) {
    for (uint32_t nl : {1u, 4u, 20u}) {
      for (bool supplied : {false, true}) {
        for (uint32_t depth : {2u, 5u}) {
          for (uint64_t cap : {uint64_t{2000000}, uint64_t{60}}) {
            FindLbOptions opt;
            opt.num_lower_bounds = nl;
            opt.max_depth = depth;
            opt.max_candidates = cap;
            const std::vector<double> none;
            Pin got{kFnvBasis, 0};
            for (const RuleGroup& g : ds.groups) {
              for (const Rule& r : FindLowerBounds(
                       ds.data, g, supplied ? ds.scores : none, opt)) {
                got.digest = Fold(got.digest, r.ToString());
                ++got.count;
              }
              got.digest = Fold(got.digest, "|");
            }
            char line[160];
            std::snprintf(line, sizeof(line),
                          "    {0x%016" PRIx64 "ull, %" PRIu64
                          "},  // %s nl=%u %s depth=%u cap=%" PRIu64,
                          got.digest, got.count, ds.name.c_str(), nl,
                          supplied ? "supplied" : "computed", depth, cap);
            const bool have = index < std::size(kFindLbPins);
            if (!have || kFindLbPins[index].digest != got.digest ||
                kFindLbPins[index].count != got.count) {
              ++mismatches;
              ADD_FAILURE() << "pin " << index << " differs; observed:\n"
                            << line;
            }
            ++index;
          }
        }
      }
    }
  }
  EXPECT_EQ(index, std::size(kFindLbPins)) << "pin table size";
  EXPECT_EQ(mismatches, 0u);
}

// Cases in enumeration order: dataset, max_depth in {2,3}, max_bounds in
// {unlimited, 3}.
constexpr Pin kFindAllPins[] = {
    {0x7613b7d34b376f5eull, 414},  // rand1 depth=2 max_bounds=0
    {0x206cffbeb3b18421ull, 413},  // rand1 depth=2 max_bounds=3
    {0xb221391daf8c1431ull, 1206},  // rand1 depth=3 max_bounds=0
    {0xf1243dd00b51fca1ull, 965},  // rand1 depth=3 max_bounds=3
    {0x239e96d5174e8591ull, 988},  // rand2 depth=2 max_bounds=0
    {0xf9263595a8458ca5ull, 979},  // rand2 depth=2 max_bounds=3
    {0x5f9e3e86ecba591eull, 5803},  // rand2 depth=3 max_bounds=0
    {0x0992c635fb9690e0ull, 4116},  // rand2 depth=3 max_bounds=3
    {0xd041c2f5e33c5a90ull, 1650},  // rand3 depth=2 max_bounds=0
    {0x7732a501e6cf330full, 1540},  // rand3 depth=2 max_bounds=3
    {0xc6d741a91161a374ull, 16597},  // rand3 depth=3 max_bounds=0
    {0x687d188ae3fbc36aull, 7488},  // rand3 depth=3 max_bounds=3
    {0x530ddb5ddb70b828ull, 73},  // tiny7 depth=2 max_bounds=0
    {0x6a793a3a321570b5ull, 31},  // tiny7 depth=2 max_bounds=3
    {0xfae5f9c20eee69d8ull, 146},  // tiny7 depth=3 max_bounds=0
    {0xb71c8d0c8d513c69ull, 34},  // tiny7 depth=3 max_bounds=3
    {0x7678fa4b720eb121ull, 71},  // tiny19 depth=2 max_bounds=0
    {0x9a6b5fa41be00939ull, 35},  // tiny19 depth=2 max_bounds=3
    {0xa808662184df7544ull, 105},  // tiny19 depth=3 max_bounds=0
    {0x9a6b5fa41be00939ull, 35},  // tiny19 depth=3 max_bounds=3
};

TEST(FindLbGoldenTest, AllLowerBoundsMatchPins) {
  size_t index = 0;
  size_t mismatches = 0;
  for (const GoldenDataset& ds : GoldenDatasets()) {
    for (uint32_t depth : {2u, 3u}) {
      for (uint64_t max_bounds : {uint64_t{0}, uint64_t{3}}) {
        Pin got{kFnvBasis, 0};
        for (const RuleGroup& g : ds.groups) {
          for (const Rule& r : FindAllLowerBounds(ds.data, g, depth, max_bounds)) {
            got.digest = Fold(got.digest, r.ToString());
            ++got.count;
          }
          got.digest = Fold(got.digest, "|");
        }
        char line[160];
        std::snprintf(line, sizeof(line),
                      "    {0x%016" PRIx64 "ull, %" PRIu64
                      "},  // %s depth=%u max_bounds=%" PRIu64,
                      got.digest, got.count, ds.name.c_str(), depth,
                      max_bounds);
        const bool have = index < std::size(kFindAllPins);
        if (!have || kFindAllPins[index].digest != got.digest ||
            kFindAllPins[index].count != got.count) {
          ++mismatches;
          ADD_FAILURE() << "pin " << index << " differs; observed:\n" << line;
        }
        ++index;
      }
    }
  }
  EXPECT_EQ(index, std::size(kFindAllPins)) << "pin table size";
  EXPECT_EQ(mismatches, 0u);
}

TEST(FindLbGoldenTest, GreedyFallbackWhenEveryLowerBoundIsTooLong) {
  // Row 0 holds {a,b,c}; rows 1-3 each hold one pair of them, so every
  // proper subset of abc covers an extra row and abc is its own only lower
  // bound. A depth-2 search finds nothing and falls back to greedy
  // minimization, which cannot drop any item. Item d ranks the search
  // above the antecedent's items but is not part of it.
  DiscreteDataset d(4, {{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}, {3}},
                    {1, 1, 0, 0, 0});
  Bitset abc(4);
  for (ItemId i : {0u, 1u, 2u}) abc.Set(i);
  const RuleGroup g = CloseItemset(d, abc, 1);
  FindLbOptions opt;
  opt.num_lower_bounds = 3;
  opt.max_depth = 2;
  const std::vector<Rule> lbs = FindLowerBounds(d, g, {}, opt);
  ASSERT_EQ(lbs.size(), 1u);
  EXPECT_EQ(lbs[0].ToString(), g.ToString());
  EXPECT_EQ(lbs[0].antecedent.Count(), 3u);
  opt.max_depth = 3;
  const std::vector<Rule> bfs = FindLowerBounds(d, g, {}, opt);
  ASSERT_EQ(bfs.size(), 1u);
  EXPECT_EQ(bfs[0].ToString(), lbs[0].ToString());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Cases in enumeration order: Tiny seed in {11, 12}, scores in {computed,
// pipeline entropy, tied}; each pin is the digest and byte size of the
// saved model.
constexpr const char* kRankings[] = {"computed", "entropy", "tied"};
constexpr Pin kRcbtPins[] = {
    {0xab0cf42900bcdcdfull, 6297},  // tiny11 computed
    {0xab0cf42900bcdcdfull, 6297},  // tiny11 entropy
    {0x58a75b3cd6660c4full, 6305},  // tiny11 tied
    {0x9b8f6d6b05e4eadaull, 2901},  // tiny12 computed
    {0x9b8f6d6b05e4eadaull, 2901},  // tiny12 entropy
    {0x7b01147ebb8acbbull, 2903},  // tiny12 tied
};
constexpr Pin kCbaPins[] = {
    {0x2d52f66709fe15d7ull, 64},  // tiny11 computed
    {0x2d52f66709fe15d7ull, 64},  // tiny11 entropy
    {0x7a37c28aa051b590ull, 65},  // tiny11 tied
    {0xd4104e5fa22d4d8eull, 62},  // tiny12 computed
    {0xd4104e5fa22d4d8eull, 62},  // tiny12 entropy
    {0xd4104e5fa22d4d8eull, 62},  // tiny12 tied
};

TEST(FindLbGoldenTest, SavedRcbtAndCbaModelsMatchPins) {
  size_t index = 0;
  for (uint64_t seed : {11u, 12u}) {
    const GeneratedData generated =
        GenerateMicroarray(DatasetProfile::Tiny(seed));
    const Pipeline p = PreparePipeline(generated.train, generated.test);
    for (int ranking = 0; ranking < 3; ++ranking) {
      const std::vector<double> scores =
          ranking == 0   ? std::vector<double>{}
          : ranking == 1 ? p.item_scores
                         : TiedScores(p.train.num_items());
      RcbtOptions ropt;
      ropt.item_scores = scores;
      const RcbtClassifier rcbt = RcbtClassifier::Train(p.train, ropt);
      CbaOptions copt;
      copt.item_scores = scores;
      const CbaClassifier cba = TrainCba(p.train, copt);

      const std::string rcbt_path =
          ::testing::TempDir() + "find_lb_golden_" + std::to_string(index) + ".rcbt";
      const std::string cba_path =
          ::testing::TempDir() + "find_lb_golden_" + std::to_string(index) + ".cba";
      ASSERT_TRUE(SaveRcbtClassifier(rcbt, p.train.num_items(), rcbt_path).ok());
      ASSERT_TRUE(SaveCbaClassifier(cba, p.train.num_items(), cba_path).ok());
      const std::string rcbt_bytes = ReadFile(rcbt_path);
      const std::string cba_bytes = ReadFile(cba_path);
      const Pin rcbt_got{Fold(kFnvBasis, rcbt_bytes), rcbt_bytes.size()};
      const Pin cba_got{Fold(kFnvBasis, cba_bytes), cba_bytes.size()};
      const char* name = kRankings[ranking];
      const bool have = index < std::size(kRcbtPins);
      EXPECT_TRUE(have && kRcbtPins[index].digest == rcbt_got.digest &&
                  kRcbtPins[index].count == rcbt_got.count)
          << "rcbt pin " << index << " differs; observed:\n"
          << "    {0x" << std::hex << rcbt_got.digest << std::dec << "ull, "
          << rcbt_got.count << "},  // tiny" << seed << " " << name;
      EXPECT_TRUE(have && kCbaPins[index].digest == cba_got.digest &&
                  kCbaPins[index].count == cba_got.count)
          << "cba pin " << index << " differs; observed:\n"
          << "    {0x" << std::hex << cba_got.digest << std::dec << "ull, "
          << cba_got.count << "},  // tiny" << seed << " " << name;
      ++index;
    }
  }
  EXPECT_EQ(index, std::size(kRcbtPins)) << "pin table size";
  static_assert(std::size(kCbaPins) == std::size(kRcbtPins));
}

}  // namespace
}  // namespace topkrgs

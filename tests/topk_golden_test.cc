// Golden equivalence pins for MineTopkRGS: the TopkDigest of the result
// and the number of enumeration nodes visited, recorded for generated
// datasets crossed with k, the consequent class, the search backend and
// each pruning ablation. The digest pins the output bit for bit; the node
// count pins every pruning decision, so a refactor of the search that
// keeps both is equivalent to the implementation that recorded them.
//
// A mismatch prints the case and the value observed, in table syntax.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "classify/evaluator.h"
#include "mine/topk_miner.h"
#include "scale/topk_merge.h"
#include "synth/generator.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;

struct GoldenDataset {
  std::string name;
  DiscreteDataset data;
  uint32_t min_support;
};

std::vector<GoldenDataset> GoldenDatasets() {
  std::vector<GoldenDataset> out;
  out.push_back({"rand1", RandomDataset(1, 24, 32, 0.4), 2});
  out.push_back({"rand2", RandomDataset(2, 30, 36, 0.45), 1});
  out.push_back({"rand42", RandomDataset(42, 40, 44, 0.45), 1});
  // Sparse enough that some rows hold no frequent item at all: such rows
  // enter the bitset backend's node-entry cut but not the root's cut over
  // its surviving candidates, which decides whether a first-level child
  // is pruned.
  out.push_back({"sparse22", RandomDataset(22, 20, 8, 0.15), 2});
  out.push_back({"sparse49", RandomDataset(49, 20, 6, 0.15), 1});
  for (uint64_t seed : {7u, 19u}) {
    const GeneratedData generated =
        GenerateMicroarray(DatasetProfile::Tiny(seed));
    out.push_back({"tiny" + std::to_string(seed),
                   PreparePipeline(generated.train, generated.test).train, 2});
  }
  return out;
}

/// Baseline (all pruning on) and each ablation toggle switched off alone.
constexpr const char* kToggles[] = {"baseline",    "no_topk",   "no_bound",
                                    "no_backward", "no_seeding", "no_dynamic"};

TopkMinerOptions GoldenOptions(uint32_t k, uint32_t min_support,
                               TopkMinerOptions::Backend backend,
                               int toggle) {
  TopkMinerOptions opt;
  opt.k = k;
  opt.min_support = min_support;
  opt.backend = backend;
  opt.use_topk_pruning = toggle != 1;
  opt.use_bound_pruning = toggle != 2;
  opt.use_backward_pruning = toggle != 3;
  opt.seed_single_items = toggle != 4;
  opt.dynamic_min_support = toggle != 5;
  return opt;
}

struct Pin {
  uint64_t digest;
  uint64_t nodes;
};

// Cases in enumeration order: dataset, k in {1,3,5}, consequent in {0,1},
// backend in {prefix tree, bitset, vector}, toggle in kToggles order.
constexpr Pin kPins[] = {
    {0xb6df8e59dce9547cull, 60},  // rand1 k=1 c=0 b=0 baseline
    {0xb6df8e59dce9547cull, 157},  // rand1 k=1 c=0 b=0 no_topk
    {0xb6df8e59dce9547cull, 833},  // rand1 k=1 c=0 b=0 no_bound
    {0xb6df8e59dce9547cull, 104},  // rand1 k=1 c=0 b=0 no_backward
    {0xb6df8e59dce9547cull, 63},  // rand1 k=1 c=0 b=0 no_seeding
    {0x0d2450b76cefc3efull, 60},  // rand1 k=1 c=0 b=0 no_dynamic
    {0xb6df8e59dce9547cull, 60},  // rand1 k=1 c=0 b=1 baseline
    {0xb6df8e59dce9547cull, 157},  // rand1 k=1 c=0 b=1 no_topk
    {0xb6df8e59dce9547cull, 833},  // rand1 k=1 c=0 b=1 no_bound
    {0xb6df8e59dce9547cull, 104},  // rand1 k=1 c=0 b=1 no_backward
    {0xb6df8e59dce9547cull, 63},  // rand1 k=1 c=0 b=1 no_seeding
    {0x0d2450b76cefc3efull, 60},  // rand1 k=1 c=0 b=1 no_dynamic
    {0xb6df8e59dce9547cull, 60},  // rand1 k=1 c=0 b=2 baseline
    {0xb6df8e59dce9547cull, 157},  // rand1 k=1 c=0 b=2 no_topk
    {0xb6df8e59dce9547cull, 833},  // rand1 k=1 c=0 b=2 no_bound
    {0xb6df8e59dce9547cull, 104},  // rand1 k=1 c=0 b=2 no_backward
    {0xb6df8e59dce9547cull, 63},  // rand1 k=1 c=0 b=2 no_seeding
    {0x0d2450b76cefc3efull, 60},  // rand1 k=1 c=0 b=2 no_dynamic
    {0x8f85955b02560be7ull, 172},  // rand1 k=1 c=1 b=0 baseline
    {0x8f85955b02560be7ull, 319},  // rand1 k=1 c=1 b=0 no_topk
    {0x8f85955b02560be7ull, 904},  // rand1 k=1 c=1 b=0 no_bound
    {0x8f85955b02560be7ull, 561},  // rand1 k=1 c=1 b=0 no_backward
    {0x8f85955b02560be7ull, 174},  // rand1 k=1 c=1 b=0 no_seeding
    {0xb9a8408d652c56b4ull, 172},  // rand1 k=1 c=1 b=0 no_dynamic
    {0x8f85955b02560be7ull, 173},  // rand1 k=1 c=1 b=1 baseline
    {0x8f85955b02560be7ull, 319},  // rand1 k=1 c=1 b=1 no_topk
    {0x8f85955b02560be7ull, 904},  // rand1 k=1 c=1 b=1 no_bound
    {0x8f85955b02560be7ull, 567},  // rand1 k=1 c=1 b=1 no_backward
    {0x8f85955b02560be7ull, 175},  // rand1 k=1 c=1 b=1 no_seeding
    {0xb9a8408d652c56b4ull, 173},  // rand1 k=1 c=1 b=1 no_dynamic
    {0x8f85955b02560be7ull, 172},  // rand1 k=1 c=1 b=2 baseline
    {0x8f85955b02560be7ull, 319},  // rand1 k=1 c=1 b=2 no_topk
    {0x8f85955b02560be7ull, 904},  // rand1 k=1 c=1 b=2 no_bound
    {0x8f85955b02560be7ull, 561},  // rand1 k=1 c=1 b=2 no_backward
    {0x8f85955b02560be7ull, 174},  // rand1 k=1 c=1 b=2 no_seeding
    {0xb9a8408d652c56b4ull, 172},  // rand1 k=1 c=1 b=2 no_dynamic
    {0xc223f3a787354ab6ull, 84},  // rand1 k=3 c=0 b=0 baseline
    {0xc223f3a787354ab6ull, 270},  // rand1 k=3 c=0 b=0 no_topk
    {0xc223f3a787354ab6ull, 833},  // rand1 k=3 c=0 b=0 no_bound
    {0xc223f3a787354ab6ull, 188},  // rand1 k=3 c=0 b=0 no_backward
    {0xc223f3a787354ab6ull, 88},  // rand1 k=3 c=0 b=0 no_seeding
    {0x008310151af635dfull, 84},  // rand1 k=3 c=0 b=0 no_dynamic
    {0xc223f3a787354ab6ull, 84},  // rand1 k=3 c=0 b=1 baseline
    {0xc223f3a787354ab6ull, 270},  // rand1 k=3 c=0 b=1 no_topk
    {0xc223f3a787354ab6ull, 833},  // rand1 k=3 c=0 b=1 no_bound
    {0xc223f3a787354ab6ull, 188},  // rand1 k=3 c=0 b=1 no_backward
    {0xc223f3a787354ab6ull, 88},  // rand1 k=3 c=0 b=1 no_seeding
    {0x008310151af635dfull, 84},  // rand1 k=3 c=0 b=1 no_dynamic
    {0xc223f3a787354ab6ull, 84},  // rand1 k=3 c=0 b=2 baseline
    {0xc223f3a787354ab6ull, 270},  // rand1 k=3 c=0 b=2 no_topk
    {0xc223f3a787354ab6ull, 833},  // rand1 k=3 c=0 b=2 no_bound
    {0xc223f3a787354ab6ull, 188},  // rand1 k=3 c=0 b=2 no_backward
    {0xc223f3a787354ab6ull, 88},  // rand1 k=3 c=0 b=2 no_seeding
    {0x008310151af635dfull, 84},  // rand1 k=3 c=0 b=2 no_dynamic
    {0xc19e5f6de075732full, 214},  // rand1 k=3 c=1 b=0 baseline
    {0xc19e5f6de075732full, 639},  // rand1 k=3 c=1 b=0 no_topk
    {0xc19e5f6de075732full, 904},  // rand1 k=3 c=1 b=0 no_bound
    {0xc19e5f6de075732full, 757},  // rand1 k=3 c=1 b=0 no_backward
    {0xc19e5f6de075732full, 231},  // rand1 k=3 c=1 b=0 no_seeding
    {0x5fd99efafa0bb609ull, 214},  // rand1 k=3 c=1 b=0 no_dynamic
    {0xc19e5f6de075732full, 215},  // rand1 k=3 c=1 b=1 baseline
    {0xc19e5f6de075732full, 639},  // rand1 k=3 c=1 b=1 no_topk
    {0xc19e5f6de075732full, 904},  // rand1 k=3 c=1 b=1 no_bound
    {0xc19e5f6de075732full, 758},  // rand1 k=3 c=1 b=1 no_backward
    {0xc19e5f6de075732full, 232},  // rand1 k=3 c=1 b=1 no_seeding
    {0x5fd99efafa0bb609ull, 215},  // rand1 k=3 c=1 b=1 no_dynamic
    {0xc19e5f6de075732full, 214},  // rand1 k=3 c=1 b=2 baseline
    {0xc19e5f6de075732full, 639},  // rand1 k=3 c=1 b=2 no_topk
    {0xc19e5f6de075732full, 904},  // rand1 k=3 c=1 b=2 no_bound
    {0xc19e5f6de075732full, 757},  // rand1 k=3 c=1 b=2 no_backward
    {0xc19e5f6de075732full, 231},  // rand1 k=3 c=1 b=2 no_seeding
    {0x5fd99efafa0bb609ull, 214},  // rand1 k=3 c=1 b=2 no_dynamic
    {0xd1e4ef638c3f1021ull, 111},  // rand1 k=5 c=0 b=0 baseline
    {0xd1e4ef638c3f1021ull, 412},  // rand1 k=5 c=0 b=0 no_topk
    {0xd1e4ef638c3f1021ull, 833},  // rand1 k=5 c=0 b=0 no_bound
    {0xd1e4ef638c3f1021ull, 310},  // rand1 k=5 c=0 b=0 no_backward
    {0xd1e4ef638c3f1021ull, 113},  // rand1 k=5 c=0 b=0 no_seeding
    {0x96c0b9e6a44e2391ull, 111},  // rand1 k=5 c=0 b=0 no_dynamic
    {0xd1e4ef638c3f1021ull, 111},  // rand1 k=5 c=0 b=1 baseline
    {0xd1e4ef638c3f1021ull, 412},  // rand1 k=5 c=0 b=1 no_topk
    {0xd1e4ef638c3f1021ull, 833},  // rand1 k=5 c=0 b=1 no_bound
    {0xd1e4ef638c3f1021ull, 310},  // rand1 k=5 c=0 b=1 no_backward
    {0xd1e4ef638c3f1021ull, 113},  // rand1 k=5 c=0 b=1 no_seeding
    {0x96c0b9e6a44e2391ull, 111},  // rand1 k=5 c=0 b=1 no_dynamic
    {0xd1e4ef638c3f1021ull, 111},  // rand1 k=5 c=0 b=2 baseline
    {0xd1e4ef638c3f1021ull, 412},  // rand1 k=5 c=0 b=2 no_topk
    {0xd1e4ef638c3f1021ull, 833},  // rand1 k=5 c=0 b=2 no_bound
    {0xd1e4ef638c3f1021ull, 310},  // rand1 k=5 c=0 b=2 no_backward
    {0xd1e4ef638c3f1021ull, 113},  // rand1 k=5 c=0 b=2 no_seeding
    {0x96c0b9e6a44e2391ull, 111},  // rand1 k=5 c=0 b=2 no_dynamic
    {0x5670c4c1b99b8fadull, 248},  // rand1 k=5 c=1 b=0 baseline
    {0x5670c4c1b99b8fadull, 639},  // rand1 k=5 c=1 b=0 no_topk
    {0x5670c4c1b99b8fadull, 904},  // rand1 k=5 c=1 b=0 no_bound
    {0x5670c4c1b99b8fadull, 906},  // rand1 k=5 c=1 b=0 no_backward
    {0x5670c4c1b99b8fadull, 264},  // rand1 k=5 c=1 b=0 no_seeding
    {0x6169c58d0bcc12fdull, 248},  // rand1 k=5 c=1 b=0 no_dynamic
    {0x5670c4c1b99b8fadull, 248},  // rand1 k=5 c=1 b=1 baseline
    {0x5670c4c1b99b8fadull, 639},  // rand1 k=5 c=1 b=1 no_topk
    {0x5670c4c1b99b8fadull, 904},  // rand1 k=5 c=1 b=1 no_bound
    {0x5670c4c1b99b8fadull, 911},  // rand1 k=5 c=1 b=1 no_backward
    {0x5670c4c1b99b8fadull, 264},  // rand1 k=5 c=1 b=1 no_seeding
    {0x6169c58d0bcc12fdull, 248},  // rand1 k=5 c=1 b=1 no_dynamic
    {0x5670c4c1b99b8fadull, 248},  // rand1 k=5 c=1 b=2 baseline
    {0x5670c4c1b99b8fadull, 639},  // rand1 k=5 c=1 b=2 no_topk
    {0x5670c4c1b99b8fadull, 904},  // rand1 k=5 c=1 b=2 no_bound
    {0x5670c4c1b99b8fadull, 906},  // rand1 k=5 c=1 b=2 no_backward
    {0x5670c4c1b99b8fadull, 264},  // rand1 k=5 c=1 b=2 no_seeding
    {0x6169c58d0bcc12fdull, 248},  // rand1 k=5 c=1 b=2 no_dynamic
    {0xe6b8f77ae4a47603ull, 377},  // rand2 k=1 c=0 b=0 baseline
    {0xe6b8f77ae4a47603ull, 928},  // rand2 k=1 c=0 b=0 no_topk
    {0xe6b8f77ae4a47603ull, 3049},  // rand2 k=1 c=0 b=0 no_bound
    {0xe6b8f77ae4a47603ull, 1170},  // rand2 k=1 c=0 b=0 no_backward
    {0xe6b8f77ae4a47603ull, 395},  // rand2 k=1 c=0 b=0 no_seeding
    {0xb76ac2600d630e1full, 377},  // rand2 k=1 c=0 b=0 no_dynamic
    {0xe6b8f77ae4a47603ull, 379},  // rand2 k=1 c=0 b=1 baseline
    {0xe6b8f77ae4a47603ull, 928},  // rand2 k=1 c=0 b=1 no_topk
    {0xe6b8f77ae4a47603ull, 3049},  // rand2 k=1 c=0 b=1 no_bound
    {0xe6b8f77ae4a47603ull, 1181},  // rand2 k=1 c=0 b=1 no_backward
    {0xe6b8f77ae4a47603ull, 397},  // rand2 k=1 c=0 b=1 no_seeding
    {0xb76ac2600d630e1full, 379},  // rand2 k=1 c=0 b=1 no_dynamic
    {0xe6b8f77ae4a47603ull, 377},  // rand2 k=1 c=0 b=2 baseline
    {0xe6b8f77ae4a47603ull, 928},  // rand2 k=1 c=0 b=2 no_topk
    {0xe6b8f77ae4a47603ull, 3049},  // rand2 k=1 c=0 b=2 no_bound
    {0xe6b8f77ae4a47603ull, 1170},  // rand2 k=1 c=0 b=2 no_backward
    {0xe6b8f77ae4a47603ull, 395},  // rand2 k=1 c=0 b=2 no_seeding
    {0xb76ac2600d630e1full, 377},  // rand2 k=1 c=0 b=2 no_dynamic
    {0x788984b7a8b96134ull, 229},  // rand2 k=1 c=1 b=0 baseline
    {0x788984b7a8b96134ull, 996},  // rand2 k=1 c=1 b=0 no_topk
    {0x788984b7a8b96134ull, 3049},  // rand2 k=1 c=1 b=0 no_bound
    {0x788984b7a8b96134ull, 638},  // rand2 k=1 c=1 b=0 no_backward
    {0x788984b7a8b96134ull, 232},  // rand2 k=1 c=1 b=0 no_seeding
    {0x01abd3c559a3df35ull, 229},  // rand2 k=1 c=1 b=0 no_dynamic
    {0x788984b7a8b96134ull, 229},  // rand2 k=1 c=1 b=1 baseline
    {0x788984b7a8b96134ull, 996},  // rand2 k=1 c=1 b=1 no_topk
    {0x788984b7a8b96134ull, 3049},  // rand2 k=1 c=1 b=1 no_bound
    {0x788984b7a8b96134ull, 645},  // rand2 k=1 c=1 b=1 no_backward
    {0x788984b7a8b96134ull, 232},  // rand2 k=1 c=1 b=1 no_seeding
    {0x01abd3c559a3df35ull, 229},  // rand2 k=1 c=1 b=1 no_dynamic
    {0x788984b7a8b96134ull, 229},  // rand2 k=1 c=1 b=2 baseline
    {0x788984b7a8b96134ull, 996},  // rand2 k=1 c=1 b=2 no_topk
    {0x788984b7a8b96134ull, 3049},  // rand2 k=1 c=1 b=2 no_bound
    {0x788984b7a8b96134ull, 638},  // rand2 k=1 c=1 b=2 no_backward
    {0x788984b7a8b96134ull, 232},  // rand2 k=1 c=1 b=2 no_seeding
    {0x01abd3c559a3df35ull, 229},  // rand2 k=1 c=1 b=2 no_dynamic
    {0x39632e4f7c495e8dull, 494},  // rand2 k=3 c=0 b=0 baseline
    {0x39632e4f7c495e8dull, 1605},  // rand2 k=3 c=0 b=0 no_topk
    {0x39632e4f7c495e8dull, 3049},  // rand2 k=3 c=0 b=0 no_bound
    {0x39632e4f7c495e8dull, 1768},  // rand2 k=3 c=0 b=0 no_backward
    {0x39632e4f7c495e8dull, 516},  // rand2 k=3 c=0 b=0 no_seeding
    {0xbbe916d9c02c80cfull, 494},  // rand2 k=3 c=0 b=0 no_dynamic
    {0x39632e4f7c495e8dull, 497},  // rand2 k=3 c=0 b=1 baseline
    {0x39632e4f7c495e8dull, 1605},  // rand2 k=3 c=0 b=1 no_topk
    {0x39632e4f7c495e8dull, 3049},  // rand2 k=3 c=0 b=1 no_bound
    {0x39632e4f7c495e8dull, 1790},  // rand2 k=3 c=0 b=1 no_backward
    {0x39632e4f7c495e8dull, 519},  // rand2 k=3 c=0 b=1 no_seeding
    {0xbbe916d9c02c80cfull, 497},  // rand2 k=3 c=0 b=1 no_dynamic
    {0x39632e4f7c495e8dull, 494},  // rand2 k=3 c=0 b=2 baseline
    {0x39632e4f7c495e8dull, 1605},  // rand2 k=3 c=0 b=2 no_topk
    {0x39632e4f7c495e8dull, 3049},  // rand2 k=3 c=0 b=2 no_bound
    {0x39632e4f7c495e8dull, 1768},  // rand2 k=3 c=0 b=2 no_backward
    {0x39632e4f7c495e8dull, 516},  // rand2 k=3 c=0 b=2 no_seeding
    {0xbbe916d9c02c80cfull, 494},  // rand2 k=3 c=0 b=2 no_dynamic
    {0x6f23e800be4bf401ull, 281},  // rand2 k=3 c=1 b=0 baseline
    {0x6f23e800be4bf401ull, 1482},  // rand2 k=3 c=1 b=0 no_topk
    {0x6f23e800be4bf401ull, 3049},  // rand2 k=3 c=1 b=0 no_bound
    {0x6f23e800be4bf401ull, 1125},  // rand2 k=3 c=1 b=0 no_backward
    {0x6f23e800be4bf401ull, 284},  // rand2 k=3 c=1 b=0 no_seeding
    {0x81e462f675169f8bull, 281},  // rand2 k=3 c=1 b=0 no_dynamic
    {0x6f23e800be4bf401ull, 281},  // rand2 k=3 c=1 b=1 baseline
    {0x6f23e800be4bf401ull, 1482},  // rand2 k=3 c=1 b=1 no_topk
    {0x6f23e800be4bf401ull, 3049},  // rand2 k=3 c=1 b=1 no_bound
    {0x6f23e800be4bf401ull, 1130},  // rand2 k=3 c=1 b=1 no_backward
    {0x6f23e800be4bf401ull, 284},  // rand2 k=3 c=1 b=1 no_seeding
    {0x81e462f675169f8bull, 281},  // rand2 k=3 c=1 b=1 no_dynamic
    {0x6f23e800be4bf401ull, 281},  // rand2 k=3 c=1 b=2 baseline
    {0x6f23e800be4bf401ull, 1482},  // rand2 k=3 c=1 b=2 no_topk
    {0x6f23e800be4bf401ull, 3049},  // rand2 k=3 c=1 b=2 no_bound
    {0x6f23e800be4bf401ull, 1125},  // rand2 k=3 c=1 b=2 no_backward
    {0x6f23e800be4bf401ull, 284},  // rand2 k=3 c=1 b=2 no_seeding
    {0x81e462f675169f8bull, 281},  // rand2 k=3 c=1 b=2 no_dynamic
    {0x8837b4d51af615cfull, 542},  // rand2 k=5 c=0 b=0 baseline
    {0x8837b4d51af615cfull, 1664},  // rand2 k=5 c=0 b=0 no_topk
    {0x8837b4d51af615cfull, 3049},  // rand2 k=5 c=0 b=0 no_bound
    {0x8837b4d51af615cfull, 2225},  // rand2 k=5 c=0 b=0 no_backward
    {0x8837b4d51af615cfull, 555},  // rand2 k=5 c=0 b=0 no_seeding
    {0x545266013753820aull, 542},  // rand2 k=5 c=0 b=0 no_dynamic
    {0x8837b4d51af615cfull, 544},  // rand2 k=5 c=0 b=1 baseline
    {0x8837b4d51af615cfull, 1664},  // rand2 k=5 c=0 b=1 no_topk
    {0x8837b4d51af615cfull, 3049},  // rand2 k=5 c=0 b=1 no_bound
    {0x8837b4d51af615cfull, 2314},  // rand2 k=5 c=0 b=1 no_backward
    {0x8837b4d51af615cfull, 557},  // rand2 k=5 c=0 b=1 no_seeding
    {0x545266013753820aull, 544},  // rand2 k=5 c=0 b=1 no_dynamic
    {0x8837b4d51af615cfull, 542},  // rand2 k=5 c=0 b=2 baseline
    {0x8837b4d51af615cfull, 1664},  // rand2 k=5 c=0 b=2 no_topk
    {0x8837b4d51af615cfull, 3049},  // rand2 k=5 c=0 b=2 no_bound
    {0x8837b4d51af615cfull, 2225},  // rand2 k=5 c=0 b=2 no_backward
    {0x8837b4d51af615cfull, 555},  // rand2 k=5 c=0 b=2 no_seeding
    {0x545266013753820aull, 542},  // rand2 k=5 c=0 b=2 no_dynamic
    {0x9acb9fe7a1e56072ull, 338},  // rand2 k=5 c=1 b=0 baseline
    {0x9acb9fe7a1e56072ull, 1982},  // rand2 k=5 c=1 b=0 no_topk
    {0x9acb9fe7a1e56072ull, 3049},  // rand2 k=5 c=1 b=0 no_bound
    {0x9acb9fe7a1e56072ull, 1438},  // rand2 k=5 c=1 b=0 no_backward
    {0x9acb9fe7a1e56072ull, 341},  // rand2 k=5 c=1 b=0 no_seeding
    {0x95b90ffdefe21a0aull, 338},  // rand2 k=5 c=1 b=0 no_dynamic
    {0x9acb9fe7a1e56072ull, 341},  // rand2 k=5 c=1 b=1 baseline
    {0x9acb9fe7a1e56072ull, 1982},  // rand2 k=5 c=1 b=1 no_topk
    {0x9acb9fe7a1e56072ull, 3049},  // rand2 k=5 c=1 b=1 no_bound
    {0x9acb9fe7a1e56072ull, 1479},  // rand2 k=5 c=1 b=1 no_backward
    {0x9acb9fe7a1e56072ull, 344},  // rand2 k=5 c=1 b=1 no_seeding
    {0x95b90ffdefe21a0aull, 341},  // rand2 k=5 c=1 b=1 no_dynamic
    {0x9acb9fe7a1e56072ull, 338},  // rand2 k=5 c=1 b=2 baseline
    {0x9acb9fe7a1e56072ull, 1982},  // rand2 k=5 c=1 b=2 no_topk
    {0x9acb9fe7a1e56072ull, 3049},  // rand2 k=5 c=1 b=2 no_bound
    {0x9acb9fe7a1e56072ull, 1438},  // rand2 k=5 c=1 b=2 no_backward
    {0x9acb9fe7a1e56072ull, 341},  // rand2 k=5 c=1 b=2 no_seeding
    {0x95b90ffdefe21a0aull, 338},  // rand2 k=5 c=1 b=2 no_dynamic
    {0xda67ac80fd767819ull, 912},  // rand42 k=1 c=0 b=0 baseline
    {0xda67ac80fd767819ull, 2254},  // rand42 k=1 c=0 b=0 no_topk
    {0xda67ac80fd767819ull, 12511},  // rand42 k=1 c=0 b=0 no_bound
    {0xda67ac80fd767819ull, 3624},  // rand42 k=1 c=0 b=0 no_backward
    {0xda67ac80fd767819ull, 915},  // rand42 k=1 c=0 b=0 no_seeding
    {0x6772ba6eb32bc00full, 912},  // rand42 k=1 c=0 b=0 no_dynamic
    {0xda67ac80fd767819ull, 913},  // rand42 k=1 c=0 b=1 baseline
    {0xda67ac80fd767819ull, 2254},  // rand42 k=1 c=0 b=1 no_topk
    {0xda67ac80fd767819ull, 12511},  // rand42 k=1 c=0 b=1 no_bound
    {0xda67ac80fd767819ull, 3809},  // rand42 k=1 c=0 b=1 no_backward
    {0xda67ac80fd767819ull, 917},  // rand42 k=1 c=0 b=1 no_seeding
    {0x6772ba6eb32bc00full, 913},  // rand42 k=1 c=0 b=1 no_dynamic
    {0xda67ac80fd767819ull, 912},  // rand42 k=1 c=0 b=2 baseline
    {0xda67ac80fd767819ull, 2254},  // rand42 k=1 c=0 b=2 no_topk
    {0xda67ac80fd767819ull, 12511},  // rand42 k=1 c=0 b=2 no_bound
    {0xda67ac80fd767819ull, 3624},  // rand42 k=1 c=0 b=2 no_backward
    {0xda67ac80fd767819ull, 915},  // rand42 k=1 c=0 b=2 no_seeding
    {0x6772ba6eb32bc00full, 912},  // rand42 k=1 c=0 b=2 no_dynamic
    {0xada3fb15ecbab450ull, 787},  // rand42 k=1 c=1 b=0 baseline
    {0xada3fb15ecbab450ull, 2426},  // rand42 k=1 c=1 b=0 no_topk
    {0xada3fb15ecbab450ull, 12511},  // rand42 k=1 c=1 b=0 no_bound
    {0xada3fb15ecbab450ull, 2409},  // rand42 k=1 c=1 b=0 no_backward
    {0xada3fb15ecbab450ull, 817},  // rand42 k=1 c=1 b=0 no_seeding
    {0xbad1bbce05668de2ull, 787},  // rand42 k=1 c=1 b=0 no_dynamic
    {0xada3fb15ecbab450ull, 787},  // rand42 k=1 c=1 b=1 baseline
    {0xada3fb15ecbab450ull, 2426},  // rand42 k=1 c=1 b=1 no_topk
    {0xada3fb15ecbab450ull, 12511},  // rand42 k=1 c=1 b=1 no_bound
    {0xada3fb15ecbab450ull, 2409},  // rand42 k=1 c=1 b=1 no_backward
    {0xada3fb15ecbab450ull, 817},  // rand42 k=1 c=1 b=1 no_seeding
    {0xbad1bbce05668de2ull, 787},  // rand42 k=1 c=1 b=1 no_dynamic
    {0xada3fb15ecbab450ull, 787},  // rand42 k=1 c=1 b=2 baseline
    {0xada3fb15ecbab450ull, 2426},  // rand42 k=1 c=1 b=2 no_topk
    {0xada3fb15ecbab450ull, 12511},  // rand42 k=1 c=1 b=2 no_bound
    {0xada3fb15ecbab450ull, 2409},  // rand42 k=1 c=1 b=2 no_backward
    {0xada3fb15ecbab450ull, 817},  // rand42 k=1 c=1 b=2 no_seeding
    {0xbad1bbce05668de2ull, 787},  // rand42 k=1 c=1 b=2 no_dynamic
    {0xdb4034da98b2c6a4ull, 1071},  // rand42 k=3 c=0 b=0 baseline
    {0xdb4034da98b2c6a4ull, 2456},  // rand42 k=3 c=0 b=0 no_topk
    {0xdb4034da98b2c6a4ull, 12511},  // rand42 k=3 c=0 b=0 no_bound
    {0xdb4034da98b2c6a4ull, 5261},  // rand42 k=3 c=0 b=0 no_backward
    {0xdb4034da98b2c6a4ull, 1075},  // rand42 k=3 c=0 b=0 no_seeding
    {0x58b0f605dd29eab6ull, 1071},  // rand42 k=3 c=0 b=0 no_dynamic
    {0xdb4034da98b2c6a4ull, 1071},  // rand42 k=3 c=0 b=1 baseline
    {0xdb4034da98b2c6a4ull, 2456},  // rand42 k=3 c=0 b=1 no_topk
    {0xdb4034da98b2c6a4ull, 12511},  // rand42 k=3 c=0 b=1 no_bound
    {0xdb4034da98b2c6a4ull, 5340},  // rand42 k=3 c=0 b=1 no_backward
    {0xdb4034da98b2c6a4ull, 1075},  // rand42 k=3 c=0 b=1 no_seeding
    {0x58b0f605dd29eab6ull, 1071},  // rand42 k=3 c=0 b=1 no_dynamic
    {0xdb4034da98b2c6a4ull, 1071},  // rand42 k=3 c=0 b=2 baseline
    {0xdb4034da98b2c6a4ull, 2456},  // rand42 k=3 c=0 b=2 no_topk
    {0xdb4034da98b2c6a4ull, 12511},  // rand42 k=3 c=0 b=2 no_bound
    {0xdb4034da98b2c6a4ull, 5261},  // rand42 k=3 c=0 b=2 no_backward
    {0xdb4034da98b2c6a4ull, 1075},  // rand42 k=3 c=0 b=2 no_seeding
    {0x58b0f605dd29eab6ull, 1071},  // rand42 k=3 c=0 b=2 no_dynamic
    {0xd063447e45ad6818ull, 933},  // rand42 k=3 c=1 b=0 baseline
    {0xd063447e45ad6818ull, 2719},  // rand42 k=3 c=1 b=0 no_topk
    {0xd063447e45ad6818ull, 12511},  // rand42 k=3 c=1 b=0 no_bound
    {0xd063447e45ad6818ull, 3166},  // rand42 k=3 c=1 b=0 no_backward
    {0xd063447e45ad6818ull, 948},  // rand42 k=3 c=1 b=0 no_seeding
    {0x46508482d905859cull, 933},  // rand42 k=3 c=1 b=0 no_dynamic
    {0xd063447e45ad6818ull, 935},  // rand42 k=3 c=1 b=1 baseline
    {0xd063447e45ad6818ull, 2719},  // rand42 k=3 c=1 b=1 no_topk
    {0xd063447e45ad6818ull, 12511},  // rand42 k=3 c=1 b=1 no_bound
    {0xd063447e45ad6818ull, 3173},  // rand42 k=3 c=1 b=1 no_backward
    {0xd063447e45ad6818ull, 949},  // rand42 k=3 c=1 b=1 no_seeding
    {0x46508482d905859cull, 935},  // rand42 k=3 c=1 b=1 no_dynamic
    {0xd063447e45ad6818ull, 933},  // rand42 k=3 c=1 b=2 baseline
    {0xd063447e45ad6818ull, 2719},  // rand42 k=3 c=1 b=2 no_topk
    {0xd063447e45ad6818ull, 12511},  // rand42 k=3 c=1 b=2 no_bound
    {0xd063447e45ad6818ull, 3166},  // rand42 k=3 c=1 b=2 no_backward
    {0xd063447e45ad6818ull, 948},  // rand42 k=3 c=1 b=2 no_seeding
    {0x46508482d905859cull, 933},  // rand42 k=3 c=1 b=2 no_dynamic
    {0xc13f734c70ce7dadull, 1140},  // rand42 k=5 c=0 b=0 baseline
    {0xc13f734c70ce7dadull, 2688},  // rand42 k=5 c=0 b=0 no_topk
    {0xc13f734c70ce7dadull, 12511},  // rand42 k=5 c=0 b=0 no_bound
    {0xc13f734c70ce7dadull, 6419},  // rand42 k=5 c=0 b=0 no_backward
    {0xc13f734c70ce7dadull, 1175},  // rand42 k=5 c=0 b=0 no_seeding
    {0x130ad686f97a60ebull, 1140},  // rand42 k=5 c=0 b=0 no_dynamic
    {0xc13f734c70ce7dadull, 1140},  // rand42 k=5 c=0 b=1 baseline
    {0xc13f734c70ce7dadull, 2688},  // rand42 k=5 c=0 b=1 no_topk
    {0xc13f734c70ce7dadull, 12511},  // rand42 k=5 c=0 b=1 no_bound
    {0xc13f734c70ce7dadull, 6543},  // rand42 k=5 c=0 b=1 no_backward
    {0xc13f734c70ce7dadull, 1175},  // rand42 k=5 c=0 b=1 no_seeding
    {0x130ad686f97a60ebull, 1140},  // rand42 k=5 c=0 b=1 no_dynamic
    {0xc13f734c70ce7dadull, 1140},  // rand42 k=5 c=0 b=2 baseline
    {0xc13f734c70ce7dadull, 2688},  // rand42 k=5 c=0 b=2 no_topk
    {0xc13f734c70ce7dadull, 12511},  // rand42 k=5 c=0 b=2 no_bound
    {0xc13f734c70ce7dadull, 6419},  // rand42 k=5 c=0 b=2 no_backward
    {0xc13f734c70ce7dadull, 1175},  // rand42 k=5 c=0 b=2 no_seeding
    {0x130ad686f97a60ebull, 1140},  // rand42 k=5 c=0 b=2 no_dynamic
    {0xdbf82a732664ad32ull, 1031},  // rand42 k=5 c=1 b=0 baseline
    {0xdbf82a732664ad32ull, 3558},  // rand42 k=5 c=1 b=0 no_topk
    {0xdbf82a732664ad32ull, 12511},  // rand42 k=5 c=1 b=0 no_bound
    {0xdbf82a732664ad32ull, 3978},  // rand42 k=5 c=1 b=0 no_backward
    {0xdbf82a732664ad32ull, 1061},  // rand42 k=5 c=1 b=0 no_seeding
    {0x79c6d521fcf0ac1bull, 1031},  // rand42 k=5 c=1 b=0 no_dynamic
    {0xdbf82a732664ad32ull, 1033},  // rand42 k=5 c=1 b=1 baseline
    {0xdbf82a732664ad32ull, 3558},  // rand42 k=5 c=1 b=1 no_topk
    {0xdbf82a732664ad32ull, 12511},  // rand42 k=5 c=1 b=1 no_bound
    {0xdbf82a732664ad32ull, 3991},  // rand42 k=5 c=1 b=1 no_backward
    {0xdbf82a732664ad32ull, 1063},  // rand42 k=5 c=1 b=1 no_seeding
    {0x79c6d521fcf0ac1bull, 1033},  // rand42 k=5 c=1 b=1 no_dynamic
    {0xdbf82a732664ad32ull, 1031},  // rand42 k=5 c=1 b=2 baseline
    {0xdbf82a732664ad32ull, 3558},  // rand42 k=5 c=1 b=2 no_topk
    {0xdbf82a732664ad32ull, 12511},  // rand42 k=5 c=1 b=2 no_bound
    {0xdbf82a732664ad32ull, 3978},  // rand42 k=5 c=1 b=2 no_backward
    {0xdbf82a732664ad32ull, 1061},  // rand42 k=5 c=1 b=2 no_seeding
    {0x79c6d521fcf0ac1bull, 1031},  // rand42 k=5 c=1 b=2 no_dynamic
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=0 baseline
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=0 no_topk
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=0 no_bound
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=0 no_backward
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=0 no_seeding
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=0 no_dynamic
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=1 baseline
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=1 no_topk
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=1 no_bound
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=1 no_backward
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=1 no_seeding
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=1 no_dynamic
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=2 baseline
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=2 no_topk
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=2 no_bound
    {0x430b0fe8022051c9ull, 3},  // sparse22 k=1 c=0 b=2 no_backward
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=2 no_seeding
    {0x430b0fe8022051c9ull, 2},  // sparse22 k=1 c=0 b=2 no_dynamic
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=0 baseline
    {0x42137fb7eccf3e97ull, 15},  // sparse22 k=1 c=1 b=0 no_topk
    {0x42137fb7eccf3e97ull, 21},  // sparse22 k=1 c=1 b=0 no_bound
    {0x42137fb7eccf3e97ull, 16},  // sparse22 k=1 c=1 b=0 no_backward
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=0 no_seeding
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=0 no_dynamic
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=1 baseline
    {0x42137fb7eccf3e97ull, 15},  // sparse22 k=1 c=1 b=1 no_topk
    {0x42137fb7eccf3e97ull, 21},  // sparse22 k=1 c=1 b=1 no_bound
    {0x42137fb7eccf3e97ull, 16},  // sparse22 k=1 c=1 b=1 no_backward
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=1 no_seeding
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=1 no_dynamic
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=2 baseline
    {0x42137fb7eccf3e97ull, 15},  // sparse22 k=1 c=1 b=2 no_topk
    {0x42137fb7eccf3e97ull, 21},  // sparse22 k=1 c=1 b=2 no_bound
    {0x42137fb7eccf3e97ull, 16},  // sparse22 k=1 c=1 b=2 no_backward
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=2 no_seeding
    {0x42137fb7eccf3e97ull, 11},  // sparse22 k=1 c=1 b=2 no_dynamic
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=0 baseline
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=0 no_topk
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=0 no_bound
    {0xe6661dbc5621dba7ull, 5},  // sparse22 k=3 c=0 b=0 no_backward
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=0 no_seeding
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=0 no_dynamic
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=1 baseline
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=1 no_topk
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=1 no_bound
    {0xe6661dbc5621dba7ull, 5},  // sparse22 k=3 c=0 b=1 no_backward
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=1 no_seeding
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=1 no_dynamic
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=2 baseline
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=2 no_topk
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=2 no_bound
    {0xe6661dbc5621dba7ull, 5},  // sparse22 k=3 c=0 b=2 no_backward
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=2 no_seeding
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=3 c=0 b=2 no_dynamic
    {0xa69e91ce2a999759ull, 12},  // sparse22 k=3 c=1 b=0 baseline
    {0xa69e91ce2a999759ull, 15},  // sparse22 k=3 c=1 b=0 no_topk
    {0xa69e91ce2a999759ull, 21},  // sparse22 k=3 c=1 b=0 no_bound
    {0xa69e91ce2a999759ull, 17},  // sparse22 k=3 c=1 b=0 no_backward
    {0x71d999a3f47cd4cdull, 13},  // sparse22 k=3 c=1 b=0 no_seeding
    {0xa69e91ce2a999759ull, 12},  // sparse22 k=3 c=1 b=0 no_dynamic
    {0xa69e91ce2a999759ull, 12},  // sparse22 k=3 c=1 b=1 baseline
    {0xa69e91ce2a999759ull, 15},  // sparse22 k=3 c=1 b=1 no_topk
    {0xa69e91ce2a999759ull, 21},  // sparse22 k=3 c=1 b=1 no_bound
    {0xa69e91ce2a999759ull, 17},  // sparse22 k=3 c=1 b=1 no_backward
    {0x71d999a3f47cd4cdull, 13},  // sparse22 k=3 c=1 b=1 no_seeding
    {0xa69e91ce2a999759ull, 12},  // sparse22 k=3 c=1 b=1 no_dynamic
    {0xa69e91ce2a999759ull, 12},  // sparse22 k=3 c=1 b=2 baseline
    {0xa69e91ce2a999759ull, 15},  // sparse22 k=3 c=1 b=2 no_topk
    {0xa69e91ce2a999759ull, 21},  // sparse22 k=3 c=1 b=2 no_bound
    {0xa69e91ce2a999759ull, 17},  // sparse22 k=3 c=1 b=2 no_backward
    {0x71d999a3f47cd4cdull, 13},  // sparse22 k=3 c=1 b=2 no_seeding
    {0xa69e91ce2a999759ull, 12},  // sparse22 k=3 c=1 b=2 no_dynamic
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=0 baseline
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=0 no_topk
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=0 no_bound
    {0xe6661dbc5621dba7ull, 5},  // sparse22 k=5 c=0 b=0 no_backward
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=0 no_seeding
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=0 no_dynamic
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=1 baseline
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=1 no_topk
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=1 no_bound
    {0xe6661dbc5621dba7ull, 5},  // sparse22 k=5 c=0 b=1 no_backward
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=1 no_seeding
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=1 no_dynamic
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=2 baseline
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=2 no_topk
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=2 no_bound
    {0xe6661dbc5621dba7ull, 5},  // sparse22 k=5 c=0 b=2 no_backward
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=2 no_seeding
    {0xe6661dbc5621dba7ull, 3},  // sparse22 k=5 c=0 b=2 no_dynamic
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=0 baseline
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=0 no_topk
    {0xd3a91feb532a9f0full, 21},  // sparse22 k=5 c=1 b=0 no_bound
    {0xd3a91feb532a9f0full, 22},  // sparse22 k=5 c=1 b=0 no_backward
    {0x6b42f4ebe0033e57ull, 15},  // sparse22 k=5 c=1 b=0 no_seeding
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=0 no_dynamic
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=1 baseline
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=1 no_topk
    {0xd3a91feb532a9f0full, 21},  // sparse22 k=5 c=1 b=1 no_bound
    {0xd3a91feb532a9f0full, 22},  // sparse22 k=5 c=1 b=1 no_backward
    {0x6b42f4ebe0033e57ull, 15},  // sparse22 k=5 c=1 b=1 no_seeding
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=1 no_dynamic
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=2 baseline
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=2 no_topk
    {0xd3a91feb532a9f0full, 21},  // sparse22 k=5 c=1 b=2 no_bound
    {0xd3a91feb532a9f0full, 22},  // sparse22 k=5 c=1 b=2 no_backward
    {0x6b42f4ebe0033e57ull, 15},  // sparse22 k=5 c=1 b=2 no_seeding
    {0xd3a91feb532a9f0full, 15},  // sparse22 k=5 c=1 b=2 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=0 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=0 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=0 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=0 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=0 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=0 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=1 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=1 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=1 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=1 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=1 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=1 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=2 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=2 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=2 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=2 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=2 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=1 c=0 b=2 no_dynamic
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=0 baseline
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=0 no_topk
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=0 no_bound
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=0 no_backward
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=0 no_seeding
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=0 no_dynamic
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=1 baseline
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=1 no_topk
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=1 no_bound
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=1 no_backward
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=1 no_seeding
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=1 no_dynamic
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=2 baseline
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=2 no_topk
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=2 no_bound
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=2 no_backward
    {0x16cdeac415b4fa7cull, 6},  // sparse49 k=1 c=1 b=2 no_seeding
    {0x16cdeac415b4fa7cull, 5},  // sparse49 k=1 c=1 b=2 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=0 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=0 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=0 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=0 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=0 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=0 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=1 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=1 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=1 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=1 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=1 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=1 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=2 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=2 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=2 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=2 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=2 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=3 c=0 b=2 no_dynamic
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=0 baseline
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=0 no_topk
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=0 no_bound
    {0x5cdede5cfe9d837dull, 8},  // sparse49 k=3 c=1 b=0 no_backward
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=0 no_seeding
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=0 no_dynamic
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=1 baseline
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=1 no_topk
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=1 no_bound
    {0x5cdede5cfe9d837dull, 8},  // sparse49 k=3 c=1 b=1 no_backward
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=1 no_seeding
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=1 no_dynamic
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=2 baseline
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=2 no_topk
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=2 no_bound
    {0x5cdede5cfe9d837dull, 8},  // sparse49 k=3 c=1 b=2 no_backward
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=2 no_seeding
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=3 c=1 b=2 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=0 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=0 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=0 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=0 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=0 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=0 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=1 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=1 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=1 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=1 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=1 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=1 no_dynamic
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=2 baseline
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=2 no_topk
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=2 no_bound
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=2 no_backward
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=2 no_seeding
    {0xe8db191790e81a45ull, 3},  // sparse49 k=5 c=0 b=2 no_dynamic
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=0 baseline
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=0 no_topk
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=0 no_bound
    {0x5cdede5cfe9d837dull, 8},  // sparse49 k=5 c=1 b=0 no_backward
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=0 no_seeding
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=0 no_dynamic
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=1 baseline
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=1 no_topk
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=1 no_bound
    {0x5cdede5cfe9d837dull, 8},  // sparse49 k=5 c=1 b=1 no_backward
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=1 no_seeding
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=1 no_dynamic
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=2 baseline
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=2 no_topk
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=2 no_bound
    {0x5cdede5cfe9d837dull, 8},  // sparse49 k=5 c=1 b=2 no_backward
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=2 no_seeding
    {0x5cdede5cfe9d837dull, 6},  // sparse49 k=5 c=1 b=2 no_dynamic
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=0 baseline
    {0xf64bd7b716388899ull, 37},  // tiny7 k=1 c=0 b=0 no_topk
    {0xf64bd7b716388899ull, 1035},  // tiny7 k=1 c=0 b=0 no_bound
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=0 no_backward
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=0 no_seeding
    {0x372232f5ad90de2bull, 7},  // tiny7 k=1 c=0 b=0 no_dynamic
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=1 baseline
    {0xf64bd7b716388899ull, 37},  // tiny7 k=1 c=0 b=1 no_topk
    {0xf64bd7b716388899ull, 1035},  // tiny7 k=1 c=0 b=1 no_bound
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=1 no_backward
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=1 no_seeding
    {0x372232f5ad90de2bull, 7},  // tiny7 k=1 c=0 b=1 no_dynamic
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=2 baseline
    {0xf64bd7b716388899ull, 37},  // tiny7 k=1 c=0 b=2 no_topk
    {0xf64bd7b716388899ull, 1035},  // tiny7 k=1 c=0 b=2 no_bound
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=2 no_backward
    {0xf64bd7b716388899ull, 7},  // tiny7 k=1 c=0 b=2 no_seeding
    {0x372232f5ad90de2bull, 7},  // tiny7 k=1 c=0 b=2 no_dynamic
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=0 baseline
    {0xe2e33cabf8261b04ull, 29},  // tiny7 k=1 c=1 b=0 no_topk
    {0xe2e33cabf8261b04ull, 1191},  // tiny7 k=1 c=1 b=0 no_bound
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=0 no_backward
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=0 no_seeding
    {0x55732a7448d6ad1bull, 7},  // tiny7 k=1 c=1 b=0 no_dynamic
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=1 baseline
    {0xe2e33cabf8261b04ull, 29},  // tiny7 k=1 c=1 b=1 no_topk
    {0xe2e33cabf8261b04ull, 1191},  // tiny7 k=1 c=1 b=1 no_bound
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=1 no_backward
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=1 no_seeding
    {0x55732a7448d6ad1bull, 7},  // tiny7 k=1 c=1 b=1 no_dynamic
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=2 baseline
    {0xe2e33cabf8261b04ull, 29},  // tiny7 k=1 c=1 b=2 no_topk
    {0xe2e33cabf8261b04ull, 1191},  // tiny7 k=1 c=1 b=2 no_bound
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=2 no_backward
    {0xe2e33cabf8261b04ull, 7},  // tiny7 k=1 c=1 b=2 no_seeding
    {0x55732a7448d6ad1bull, 7},  // tiny7 k=1 c=1 b=2 no_dynamic
    {0xfd547c3c5b1ad040ull, 16},  // tiny7 k=3 c=0 b=0 baseline
    {0xfd547c3c5b1ad040ull, 69},  // tiny7 k=3 c=0 b=0 no_topk
    {0xfd547c3c5b1ad040ull, 1035},  // tiny7 k=3 c=0 b=0 no_bound
    {0xfd547c3c5b1ad040ull, 21},  // tiny7 k=3 c=0 b=0 no_backward
    {0x5021c0e817495a5bull, 31},  // tiny7 k=3 c=0 b=0 no_seeding
    {0x34701182c8ac4980ull, 16},  // tiny7 k=3 c=0 b=0 no_dynamic
    {0xfd547c3c5b1ad040ull, 16},  // tiny7 k=3 c=0 b=1 baseline
    {0xfd547c3c5b1ad040ull, 69},  // tiny7 k=3 c=0 b=1 no_topk
    {0xfd547c3c5b1ad040ull, 1035},  // tiny7 k=3 c=0 b=1 no_bound
    {0xfd547c3c5b1ad040ull, 21},  // tiny7 k=3 c=0 b=1 no_backward
    {0x5021c0e817495a5bull, 31},  // tiny7 k=3 c=0 b=1 no_seeding
    {0x34701182c8ac4980ull, 16},  // tiny7 k=3 c=0 b=1 no_dynamic
    {0xfd547c3c5b1ad040ull, 16},  // tiny7 k=3 c=0 b=2 baseline
    {0xfd547c3c5b1ad040ull, 69},  // tiny7 k=3 c=0 b=2 no_topk
    {0xfd547c3c5b1ad040ull, 1035},  // tiny7 k=3 c=0 b=2 no_bound
    {0xfd547c3c5b1ad040ull, 21},  // tiny7 k=3 c=0 b=2 no_backward
    {0x5021c0e817495a5bull, 31},  // tiny7 k=3 c=0 b=2 no_seeding
    {0x34701182c8ac4980ull, 16},  // tiny7 k=3 c=0 b=2 no_dynamic
    {0x78c9bd2aaa4d784full, 15},  // tiny7 k=3 c=1 b=0 baseline
    {0x78c9bd2aaa4d784full, 50},  // tiny7 k=3 c=1 b=0 no_topk
    {0x78c9bd2aaa4d784full, 1191},  // tiny7 k=3 c=1 b=0 no_bound
    {0x78c9bd2aaa4d784full, 18},  // tiny7 k=3 c=1 b=0 no_backward
    {0xaec8c123b2f347cdull, 37},  // tiny7 k=3 c=1 b=0 no_seeding
    {0x2d6219d060ef8e4eull, 15},  // tiny7 k=3 c=1 b=0 no_dynamic
    {0x78c9bd2aaa4d784full, 15},  // tiny7 k=3 c=1 b=1 baseline
    {0x78c9bd2aaa4d784full, 50},  // tiny7 k=3 c=1 b=1 no_topk
    {0x78c9bd2aaa4d784full, 1191},  // tiny7 k=3 c=1 b=1 no_bound
    {0x78c9bd2aaa4d784full, 18},  // tiny7 k=3 c=1 b=1 no_backward
    {0xaec8c123b2f347cdull, 37},  // tiny7 k=3 c=1 b=1 no_seeding
    {0x2d6219d060ef8e4eull, 15},  // tiny7 k=3 c=1 b=1 no_dynamic
    {0x78c9bd2aaa4d784full, 15},  // tiny7 k=3 c=1 b=2 baseline
    {0x78c9bd2aaa4d784full, 50},  // tiny7 k=3 c=1 b=2 no_topk
    {0x78c9bd2aaa4d784full, 1191},  // tiny7 k=3 c=1 b=2 no_bound
    {0x78c9bd2aaa4d784full, 18},  // tiny7 k=3 c=1 b=2 no_backward
    {0xaec8c123b2f347cdull, 37},  // tiny7 k=3 c=1 b=2 no_seeding
    {0x2d6219d060ef8e4eull, 15},  // tiny7 k=3 c=1 b=2 no_dynamic
    {0x869e5359177222a0ull, 40},  // tiny7 k=5 c=0 b=0 baseline
    {0x869e5359177222a0ull, 110},  // tiny7 k=5 c=0 b=0 no_topk
    {0x869e5359177222a0ull, 1035},  // tiny7 k=5 c=0 b=0 no_bound
    {0x869e5359177222a0ull, 64},  // tiny7 k=5 c=0 b=0 no_backward
    {0xf9929f68f19bddcaull, 56},  // tiny7 k=5 c=0 b=0 no_seeding
    {0xf82f5f175a88f9bcull, 40},  // tiny7 k=5 c=0 b=0 no_dynamic
    {0x869e5359177222a0ull, 40},  // tiny7 k=5 c=0 b=1 baseline
    {0x869e5359177222a0ull, 110},  // tiny7 k=5 c=0 b=1 no_topk
    {0x869e5359177222a0ull, 1035},  // tiny7 k=5 c=0 b=1 no_bound
    {0x869e5359177222a0ull, 64},  // tiny7 k=5 c=0 b=1 no_backward
    {0xf9929f68f19bddcaull, 56},  // tiny7 k=5 c=0 b=1 no_seeding
    {0xf82f5f175a88f9bcull, 40},  // tiny7 k=5 c=0 b=1 no_dynamic
    {0x869e5359177222a0ull, 40},  // tiny7 k=5 c=0 b=2 baseline
    {0x869e5359177222a0ull, 110},  // tiny7 k=5 c=0 b=2 no_topk
    {0x869e5359177222a0ull, 1035},  // tiny7 k=5 c=0 b=2 no_bound
    {0x869e5359177222a0ull, 64},  // tiny7 k=5 c=0 b=2 no_backward
    {0xf9929f68f19bddcaull, 56},  // tiny7 k=5 c=0 b=2 no_seeding
    {0xf82f5f175a88f9bcull, 40},  // tiny7 k=5 c=0 b=2 no_dynamic
    {0x284cdef2480140b6ull, 25},  // tiny7 k=5 c=1 b=0 baseline
    {0x284cdef2480140b6ull, 74},  // tiny7 k=5 c=1 b=0 no_topk
    {0x284cdef2480140b6ull, 1191},  // tiny7 k=5 c=1 b=0 no_bound
    {0x284cdef2480140b6ull, 34},  // tiny7 k=5 c=1 b=0 no_backward
    {0xdf7ca5dc9599be6bull, 57},  // tiny7 k=5 c=1 b=0 no_seeding
    {0xc9adb597bd30c285ull, 25},  // tiny7 k=5 c=1 b=0 no_dynamic
    {0x284cdef2480140b6ull, 25},  // tiny7 k=5 c=1 b=1 baseline
    {0x284cdef2480140b6ull, 74},  // tiny7 k=5 c=1 b=1 no_topk
    {0x284cdef2480140b6ull, 1191},  // tiny7 k=5 c=1 b=1 no_bound
    {0x284cdef2480140b6ull, 34},  // tiny7 k=5 c=1 b=1 no_backward
    {0xdf7ca5dc9599be6bull, 57},  // tiny7 k=5 c=1 b=1 no_seeding
    {0xc9adb597bd30c285ull, 25},  // tiny7 k=5 c=1 b=1 no_dynamic
    {0x284cdef2480140b6ull, 25},  // tiny7 k=5 c=1 b=2 baseline
    {0x284cdef2480140b6ull, 74},  // tiny7 k=5 c=1 b=2 no_topk
    {0x284cdef2480140b6ull, 1191},  // tiny7 k=5 c=1 b=2 no_bound
    {0x284cdef2480140b6ull, 34},  // tiny7 k=5 c=1 b=2 no_backward
    {0xdf7ca5dc9599be6bull, 57},  // tiny7 k=5 c=1 b=2 no_seeding
    {0xc9adb597bd30c285ull, 25},  // tiny7 k=5 c=1 b=2 no_dynamic
    {0xb421af1d50868959ull, 1},  // tiny19 k=1 c=0 b=0 baseline
    {0xb421af1d50868959ull, 38},  // tiny19 k=1 c=0 b=0 no_topk
    {0xb421af1d50868959ull, 672},  // tiny19 k=1 c=0 b=0 no_bound
    {0xb421af1d50868959ull, 1},  // tiny19 k=1 c=0 b=0 no_backward
    {0xb421af1d50868959ull, 7},  // tiny19 k=1 c=0 b=0 no_seeding
    {0x5349bc15280f8f0dull, 1},  // tiny19 k=1 c=0 b=0 no_dynamic
    {0xb421af1d50868959ull, 1},  // tiny19 k=1 c=0 b=1 baseline
    {0xb421af1d50868959ull, 38},  // tiny19 k=1 c=0 b=1 no_topk
    {0xb421af1d50868959ull, 672},  // tiny19 k=1 c=0 b=1 no_bound
    {0xb421af1d50868959ull, 1},  // tiny19 k=1 c=0 b=1 no_backward
    {0xb421af1d50868959ull, 7},  // tiny19 k=1 c=0 b=1 no_seeding
    {0x5349bc15280f8f0dull, 1},  // tiny19 k=1 c=0 b=1 no_dynamic
    {0xb421af1d50868959ull, 1},  // tiny19 k=1 c=0 b=2 baseline
    {0xb421af1d50868959ull, 38},  // tiny19 k=1 c=0 b=2 no_topk
    {0xb421af1d50868959ull, 672},  // tiny19 k=1 c=0 b=2 no_bound
    {0xb421af1d50868959ull, 1},  // tiny19 k=1 c=0 b=2 no_backward
    {0xb421af1d50868959ull, 7},  // tiny19 k=1 c=0 b=2 no_seeding
    {0x5349bc15280f8f0dull, 1},  // tiny19 k=1 c=0 b=2 no_dynamic
    {0xa8bf729ed1296e4eull, 1},  // tiny19 k=1 c=1 b=0 baseline
    {0xa8bf729ed1296e4eull, 20},  // tiny19 k=1 c=1 b=0 no_topk
    {0xa8bf729ed1296e4eull, 833},  // tiny19 k=1 c=1 b=0 no_bound
    {0xa8bf729ed1296e4eull, 1},  // tiny19 k=1 c=1 b=0 no_backward
    {0xa8bf729ed1296e4eull, 5},  // tiny19 k=1 c=1 b=0 no_seeding
    {0x74ec67078ee9c2fcull, 1},  // tiny19 k=1 c=1 b=0 no_dynamic
    {0xa8bf729ed1296e4eull, 1},  // tiny19 k=1 c=1 b=1 baseline
    {0xa8bf729ed1296e4eull, 20},  // tiny19 k=1 c=1 b=1 no_topk
    {0xa8bf729ed1296e4eull, 833},  // tiny19 k=1 c=1 b=1 no_bound
    {0xa8bf729ed1296e4eull, 1},  // tiny19 k=1 c=1 b=1 no_backward
    {0xa8bf729ed1296e4eull, 5},  // tiny19 k=1 c=1 b=1 no_seeding
    {0x74ec67078ee9c2fcull, 1},  // tiny19 k=1 c=1 b=1 no_dynamic
    {0xa8bf729ed1296e4eull, 1},  // tiny19 k=1 c=1 b=2 baseline
    {0xa8bf729ed1296e4eull, 20},  // tiny19 k=1 c=1 b=2 no_topk
    {0xa8bf729ed1296e4eull, 833},  // tiny19 k=1 c=1 b=2 no_bound
    {0xa8bf729ed1296e4eull, 1},  // tiny19 k=1 c=1 b=2 no_backward
    {0xa8bf729ed1296e4eull, 5},  // tiny19 k=1 c=1 b=2 no_seeding
    {0x74ec67078ee9c2fcull, 1},  // tiny19 k=1 c=1 b=2 no_dynamic
    {0xa93d5ee92d677c85ull, 9},  // tiny19 k=3 c=0 b=0 baseline
    {0xa93d5ee92d677c85ull, 58},  // tiny19 k=3 c=0 b=0 no_topk
    {0xa93d5ee92d677c85ull, 672},  // tiny19 k=3 c=0 b=0 no_bound
    {0xa93d5ee92d677c85ull, 12},  // tiny19 k=3 c=0 b=0 no_backward
    {0xd28bee905ef348c6ull, 22},  // tiny19 k=3 c=0 b=0 no_seeding
    {0xc40e32ffe7d40e0aull, 9},  // tiny19 k=3 c=0 b=0 no_dynamic
    {0xa93d5ee92d677c85ull, 9},  // tiny19 k=3 c=0 b=1 baseline
    {0xa93d5ee92d677c85ull, 58},  // tiny19 k=3 c=0 b=1 no_topk
    {0xa93d5ee92d677c85ull, 672},  // tiny19 k=3 c=0 b=1 no_bound
    {0xa93d5ee92d677c85ull, 12},  // tiny19 k=3 c=0 b=1 no_backward
    {0xd28bee905ef348c6ull, 22},  // tiny19 k=3 c=0 b=1 no_seeding
    {0xc40e32ffe7d40e0aull, 9},  // tiny19 k=3 c=0 b=1 no_dynamic
    {0xa93d5ee92d677c85ull, 9},  // tiny19 k=3 c=0 b=2 baseline
    {0xa93d5ee92d677c85ull, 58},  // tiny19 k=3 c=0 b=2 no_topk
    {0xa93d5ee92d677c85ull, 672},  // tiny19 k=3 c=0 b=2 no_bound
    {0xa93d5ee92d677c85ull, 12},  // tiny19 k=3 c=0 b=2 no_backward
    {0xd28bee905ef348c6ull, 22},  // tiny19 k=3 c=0 b=2 no_seeding
    {0xc40e32ffe7d40e0aull, 9},  // tiny19 k=3 c=0 b=2 no_dynamic
    {0xc2d677a93c247a4aull, 19},  // tiny19 k=3 c=1 b=0 baseline
    {0xc2d677a93c247a4aull, 47},  // tiny19 k=3 c=1 b=0 no_topk
    {0xc2d677a93c247a4aull, 833},  // tiny19 k=3 c=1 b=0 no_bound
    {0xc2d677a93c247a4aull, 35},  // tiny19 k=3 c=1 b=0 no_backward
    {0xba50281b0057f9dcull, 29},  // tiny19 k=3 c=1 b=0 no_seeding
    {0xaf19549b45b34833ull, 19},  // tiny19 k=3 c=1 b=0 no_dynamic
    {0xc2d677a93c247a4aull, 19},  // tiny19 k=3 c=1 b=1 baseline
    {0xc2d677a93c247a4aull, 47},  // tiny19 k=3 c=1 b=1 no_topk
    {0xc2d677a93c247a4aull, 833},  // tiny19 k=3 c=1 b=1 no_bound
    {0xc2d677a93c247a4aull, 35},  // tiny19 k=3 c=1 b=1 no_backward
    {0xba50281b0057f9dcull, 29},  // tiny19 k=3 c=1 b=1 no_seeding
    {0xaf19549b45b34833ull, 19},  // tiny19 k=3 c=1 b=1 no_dynamic
    {0xc2d677a93c247a4aull, 19},  // tiny19 k=3 c=1 b=2 baseline
    {0xc2d677a93c247a4aull, 47},  // tiny19 k=3 c=1 b=2 no_topk
    {0xc2d677a93c247a4aull, 833},  // tiny19 k=3 c=1 b=2 no_bound
    {0xc2d677a93c247a4aull, 35},  // tiny19 k=3 c=1 b=2 no_backward
    {0xba50281b0057f9dcull, 29},  // tiny19 k=3 c=1 b=2 no_seeding
    {0xaf19549b45b34833ull, 19},  // tiny19 k=3 c=1 b=2 no_dynamic
    {0xe4b1d0841df9877aull, 21},  // tiny19 k=5 c=0 b=0 baseline
    {0xe4b1d0841df9877aull, 112},  // tiny19 k=5 c=0 b=0 no_topk
    {0xe4b1d0841df9877aull, 672},  // tiny19 k=5 c=0 b=0 no_bound
    {0xe4b1d0841df9877aull, 36},  // tiny19 k=5 c=0 b=0 no_backward
    {0x8af527149d7407b7ull, 42},  // tiny19 k=5 c=0 b=0 no_seeding
    {0xdae8da46884eaf68ull, 21},  // tiny19 k=5 c=0 b=0 no_dynamic
    {0xe4b1d0841df9877aull, 21},  // tiny19 k=5 c=0 b=1 baseline
    {0xe4b1d0841df9877aull, 112},  // tiny19 k=5 c=0 b=1 no_topk
    {0xe4b1d0841df9877aull, 672},  // tiny19 k=5 c=0 b=1 no_bound
    {0xe4b1d0841df9877aull, 36},  // tiny19 k=5 c=0 b=1 no_backward
    {0x8af527149d7407b7ull, 42},  // tiny19 k=5 c=0 b=1 no_seeding
    {0xdae8da46884eaf68ull, 21},  // tiny19 k=5 c=0 b=1 no_dynamic
    {0xe4b1d0841df9877aull, 21},  // tiny19 k=5 c=0 b=2 baseline
    {0xe4b1d0841df9877aull, 112},  // tiny19 k=5 c=0 b=2 no_topk
    {0xe4b1d0841df9877aull, 672},  // tiny19 k=5 c=0 b=2 no_bound
    {0xe4b1d0841df9877aull, 36},  // tiny19 k=5 c=0 b=2 no_backward
    {0x8af527149d7407b7ull, 42},  // tiny19 k=5 c=0 b=2 no_seeding
    {0xdae8da46884eaf68ull, 21},  // tiny19 k=5 c=0 b=2 no_dynamic
    {0x54130cb80f652827ull, 42},  // tiny19 k=5 c=1 b=0 baseline
    {0x54130cb80f652827ull, 95},  // tiny19 k=5 c=1 b=0 no_topk
    {0x54130cb80f652827ull, 833},  // tiny19 k=5 c=1 b=0 no_bound
    {0x54130cb80f652827ull, 81},  // tiny19 k=5 c=1 b=0 no_backward
    {0x1cb4d146808be662ull, 62},  // tiny19 k=5 c=1 b=0 no_seeding
    {0xab4b56ff47aebfc3ull, 42},  // tiny19 k=5 c=1 b=0 no_dynamic
    {0x54130cb80f652827ull, 42},  // tiny19 k=5 c=1 b=1 baseline
    {0x54130cb80f652827ull, 95},  // tiny19 k=5 c=1 b=1 no_topk
    {0x54130cb80f652827ull, 833},  // tiny19 k=5 c=1 b=1 no_bound
    {0x54130cb80f652827ull, 81},  // tiny19 k=5 c=1 b=1 no_backward
    {0x1cb4d146808be662ull, 62},  // tiny19 k=5 c=1 b=1 no_seeding
    {0xab4b56ff47aebfc3ull, 42},  // tiny19 k=5 c=1 b=1 no_dynamic
    {0x54130cb80f652827ull, 42},  // tiny19 k=5 c=1 b=2 baseline
    {0x54130cb80f652827ull, 95},  // tiny19 k=5 c=1 b=2 no_topk
    {0x54130cb80f652827ull, 833},  // tiny19 k=5 c=1 b=2 no_bound
    {0x54130cb80f652827ull, 81},  // tiny19 k=5 c=1 b=2 no_backward
    {0x1cb4d146808be662ull, 62},  // tiny19 k=5 c=1 b=2 no_seeding
    {0xab4b56ff47aebfc3ull, 42},  // tiny19 k=5 c=1 b=2 no_dynamic
};

TEST(TopkGoldenTest, DigestsAndNodeCountsMatchPins) {
  const std::vector<GoldenDataset> datasets = GoldenDatasets();
  size_t index = 0;
  size_t mismatches = 0;
  for (const GoldenDataset& ds : datasets) {
    for (uint32_t k : {1u, 3u, 5u}) {
      for (ClassLabel consequent : {0, 1}) {
        for (auto backend : {TopkMinerOptions::Backend::kPrefixTree,
                             TopkMinerOptions::Backend::kBitset,
                             TopkMinerOptions::Backend::kVector}) {
          for (int toggle = 0; toggle < 6; ++toggle) {
            const TopkResult result = MineTopkRGS(
                ds.data, consequent,
                GoldenOptions(k, ds.min_support, backend, toggle));
            ASSERT_FALSE(result.stats.timed_out);
            const Pin got{
                TopkDigest(result.per_row, result.effective_min_support),
                result.stats.nodes_visited};
            char line[160];
            std::snprintf(line, sizeof(line),
                          "    {0x%016" PRIx64 "ull, %" PRIu64
                          "},  // %s k=%u c=%d b=%d %s",
                          got.digest, got.nodes, ds.name.c_str(), k,
                          static_cast<int>(consequent),
                          static_cast<int>(backend), kToggles[toggle]);
            const bool have = index < std::size(kPins);
            if (!have || kPins[index].digest != got.digest ||
                kPins[index].nodes != got.nodes) {
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
  EXPECT_EQ(index, std::size(kPins)) << "pin table size";
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace topkrgs

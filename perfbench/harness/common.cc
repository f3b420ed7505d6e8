#include "common.h"

#include <sched.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "serve/json.h"
#include "util/bitkernels.h"
#include "util/random.h"

namespace perfbench {

using topkrgs::ContinuousDataset;
using topkrgs::GeneratedData;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "table2-train", "mine-deep", "serve-http", "scale-shards"};
  return kNames;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s", "*"},
      {"peak_rss_mib", "MiB", "*"},
      {"train_s", "s", "table2-train"},
      {"mine_t1_s", "s", "mine-deep"},
      {"mine_t4_s", "s", "mine-deep"},
      {"shard_mine_s", "s", "scale-shards"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"core.read_tsv_s", "s", "table2-train"},
      {"discretize.fit_s", "s", "table2-train"},
      {"discretize.apply_s", "s", "table2-train"},
      {"discretize.apply_row_us", "us", "serve-http"},
      {"mine.calls", "count", "mine-deep"},
      {"mine.busy_s", "s", "mine-deep"},
      {"mine.nodes_visited", "count", "mine-deep"},
      {"mine.nodes_per_s", "1/s", "mine-deep"},
      {"mine.groups_emitted", "count", "mine-deep"},
      {"mine.useful_ratio", "ratio", "mine-deep"},
      {"mine.pruned_bounds", "count", "mine-deep"},
      {"mine.pruned_backward", "count", "mine-deep"},
      {"mine.tasks_spawned", "count", "mine-deep"},
      {"mine.tasks_stolen", "count", "mine-deep"},
      {"mine.speedup", "ratio", "mine-deep"},
      {"mine.redundant_work_ratio", "ratio", "mine-deep"},
      {"find_lb.calls", "count", "table2-train"},
      {"find_lb.busy_s", "s", "table2-train"},
      {"find_lb.call_p50_ms", "ms", "table2-train"},
      {"find_lb.call_max_ms", "ms", "table2-train"},
      {"find_lb.bounds_returned", "count", "table2-train"},
      {"find_lb.fill_ratio", "ratio", "table2-train"},
      {"rcbt.train_s", "s", "table2-train"},
      {"rcbt.select_s", "s", "table2-train"},
      {"rcbt.predict_row_us", "us", "serve-http"},
      {"model_io.save_s", "s", "table2-train"},
      {"model_io.load_s", "s", "serve-http"},
      {"serve.http_parse_us", "us", "serve-http"},
      {"serve.json_parse_us", "us", "serve-http"},
      {"serve.registry_get_us", "us", "serve-http"},
      {"serve.execute_row_us", "us", "serve-http"},
      {"serve.handoff_us", "us", "serve-http"},
      {"serve.queue_depth_max", "count", "serve-http"},
      {"serve.swap_s", "s", "serve-http"},
      {"serve.requests", "count", "serve-http"},
      {"serve.failed", "count", "serve-http"},
      {"serve.gen_lag_ms", "ms", "serve-http"},
      // Single-row p50 and p99 at the reference rate and the saturation
      // rate: on the shared measuring host they swing with the neighbours'
      // load (p50 by up to 2x within ten runs), too unsteady for a bound.
      {"serve.p50_ms", "ms", "serve-http"},
      {"serve.p99_ms", "ms", "serve-http"},
      {"serve.max_rps", "1/s", "serve-http"},
      {"scale.ingest_s", "s", "scale-shards"},
      {"scale.ingest_rows_per_s", "1/s", "scale-shards"},
      {"scale.convert_s", "s", "scale-shards"},
      {"scale.mmap_open_s", "s", "scale-shards"},
      {"scale.plan_s", "s", "scale-shards"},
      {"scale.shards", "count", "scale-shards"},
      {"scale.shard_busy_s", "s", "scale-shards"},
      {"scale.shard_max_s", "s", "scale-shards"},
      {"scale.merge_s", "s", "scale-shards"},
      // Reconciliation of the run's own workload: the untraced end-to-end
      // time, the sum of layer self times, each layer's share of the
      // untraced time, the named remainder, and the tracing overhead.
      {"trace.untraced_ms", "ms", "*"},
      {"trace.layers_ms", "ms", "*"},
      {"trace.overhead_ratio", "ratio", "*"},
      {"share.core", "ratio", "*"},
      {"share.discretize", "ratio", "*"},
      {"share.mine", "ratio", "*"},
      {"share.find_lb", "ratio", "*"},
      {"share.rcbt", "ratio", "*"},
      {"share.model_io", "ratio", "*"},
      {"share.serve", "ratio", "*"},
      {"share.scale", "ratio", "*"},
      {"share.remainder", "ratio", "*"},
  };
  return kSpecs;
}

Reference Reference::Load(const std::string& path, std::string* error) {
  Reference ref;
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read reference file " + path;
    return ref;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc_or = topkrgs::JsonValue::Parse(buf.str());
  if (!doc_or.ok() || !doc_or.value().is_object()) {
    *error = "reference file " + path + " is not a JSON object";
    return ref;
  }
  for (const auto& [key, value] : doc_or.value().members()) {
    if (value.is_number()) {
      ref.numbers_[key] = value.number();
    } else if (value.is_string()) {
      ref.strings_[key] = value.str();
    }
  }
  return ref;
}

double Reference::Number(const std::string& key) const {
  auto it = numbers_.find(key);
  return it == numbers_.end() ? -1.0 : it->second;
}

std::string Reference::String(const std::string& key) const {
  auto it = strings_.find(key);
  return it == strings_.end() ? std::string() : it->second;
}

void Outcome::Record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 50) failures.push_back(what);
  }
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

void Probe::Run() {
  std::thread round([this] {
    StartOnCpu(rounds_);
    Round();
  });
  round.join();
  ++rounds_;
}

void Context::Interleave(size_t rounds) const {
  if (probes == nullptr) return;
  for (size_t i = 0; i < rounds; ++i) {
    for (const std::unique_ptr<Probe>& probe : *probes) probe->Run();
  }
}

double MedianSetupSeconds(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowSeconds();
    setup();
    times.push_back(NowSeconds() - t0);
  }
  return Median(times);
}

void ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMib() {
  long kb = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

uint32_t UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<uint32_t>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<uint32_t>(n) : 1;
}

void StartOnCpu(size_t k) {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(all), &all);
  }
}

uint32_t ParallelThreads() { return std::min<uint32_t>(4, UsableCpus()); }

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  return topkrgs::bitkernels::SplitMix64(seed * 0x9e3779b97f4a7c15ull ^ salt);
}

std::vector<uint32_t> Permutation(uint32_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  topkrgs::Rng rng(seed);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

namespace {

ContinuousDataset Permute(const ContinuousDataset& data,
                          const std::vector<uint32_t>& rows,
                          const std::vector<uint32_t>& genes) {
  ContinuousDataset out(data.num_genes());
  for (uint32_t g = 0; g < genes.size(); ++g) {
    out.set_gene_name(g, data.gene_name(genes[g]));
  }
  out.set_class_names(data.class_names());
  std::vector<double> row(data.num_genes());
  for (uint32_t r : rows) {
    for (uint32_t g = 0; g < genes.size(); ++g) row[g] = data.value(r, genes[g]);
    out.AddRow(row, data.label(r));
  }
  return out;
}

}  // namespace

GeneratedData PermutedProfile(const topkrgs::DatasetProfile& profile,
                              uint64_t seed) {
  GeneratedData data = topkrgs::GenerateMicroarray(profile);
  if (seed == kDefaultSeed) return data;
  const uint64_t base = MixSeed(seed, profile.seed);
  const auto genes = Permutation(data.train.num_genes(), base ^ 1);
  const auto train_rows = Permutation(data.train.num_rows(), base ^ 2);
  const auto test_rows = Permutation(data.test.num_rows(), base ^ 3);
  GeneratedData out;
  out.train = Permute(data.train, train_rows, genes);
  out.test = Permute(data.test, test_rows, genes);
  return out;
}

void AddStats(const topkrgs::MinerStats& s, topkrgs::MinerStats* sum) {
  sum->nodes_visited += s.nodes_visited;
  sum->groups_emitted += s.groups_emitted;
  sum->pruned_bounds += s.pruned_bounds;
  sum->pruned_backward += s.pruned_backward;
  sum->tasks_spawned += s.tasks_spawned;
  sum->tasks_stolen += s.tasks_stolen;
}

void SetMineMetrics(const topkrgs::MinerStats& sum, uint64_t calls,
                    double busy_s, Outcome* out) {
  const double nodes = static_cast<double>(sum.nodes_visited);
  out->Set("mine.calls", static_cast<double>(calls), "count");
  out->Set("mine.busy_s", busy_s, "s");
  out->Set("mine.nodes_visited", nodes, "count");
  out->Set("mine.nodes_per_s", busy_s > 0 ? nodes / busy_s : 0, "1/s");
  out->Set("mine.groups_emitted", static_cast<double>(sum.groups_emitted), "count");
  out->Set("mine.useful_ratio", nodes > 0 ? sum.groups_emitted / nodes : 0, "ratio");
  out->Set("mine.pruned_bounds", static_cast<double>(sum.pruned_bounds), "count");
  out->Set("mine.pruned_backward", static_cast<double>(sum.pruned_backward), "count");
  out->Set("mine.tasks_spawned", static_cast<double>(sum.tasks_spawned), "count");
  out->Set("mine.tasks_stolen", static_cast<double>(sum.tasks_stolen), "count");
}

double SetReconciliation(double untraced_s,
                         const std::map<std::string, double>& layer_self_s,
                         double overhead_ratio, Outcome* out) {
  double layers = 0;
  for (const auto& [layer, self] : layer_self_s) layers += self;
  out->Set("trace.untraced_ms", untraced_s * 1e3, "ms");
  out->Set("trace.layers_ms", layers * 1e3, "ms");
  out->Set("trace.overhead_ratio", overhead_ratio, "ratio");
  for (const char* layer : {"core", "discretize", "mine", "find_lb", "rcbt",
                            "model_io", "serve", "scale"}) {
    auto it = layer_self_s.find(layer);
    const double self = it == layer_self_s.end() ? 0 : it->second;
    out->Set(std::string("share.") + layer, untraced_s > 0 ? self / untraced_s : 0,
             "ratio");
  }
  const double remainder = untraced_s > 0 ? (untraced_s - layers) / untraced_s : 0;
  out->Set("share.remainder", remainder, "ratio");
  return remainder;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string FormatDouble(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) { return topkrgs::JsonQuote(s); }

std::string EnvJson(const Args& args, uint32_t max_threads_used) {
  const uint32_t hw = std::thread::hardware_concurrency();
  const uint32_t cpus = UsableCpus();
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(cpus);
  out += ", \"hardware_concurrency\": " + std::to_string(hw);
  out += ", \"simd_tier\": " +
         JsonString(topkrgs::bitkernels::ActiveKernelName());
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + JsonString(__VERSION__);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"max_threads_used\": " + std::to_string(max_threads_used);
  out += std::string(", \"oversubscribed\": ") +
         (max_threads_used > cpus || hw <= 1 ? "true" : "false");
  out += "}";
  return out;
}

}  // namespace perfbench

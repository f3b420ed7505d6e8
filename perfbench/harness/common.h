// Shared plumbing of the perfbench harness: arguments, the metric catalogue,
// the per-run outcome (metrics, attempted/failed operations), reference
// values, timing and memory helpers, and the seeded input transforms.
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mine/miner_common.h"
#include "synth/generator.h"

namespace perfbench {

class Probe;
class Tracer;

/// The seed at which the committed reference values (EXPERIMENTS.md
/// accuracies, TopkDigests) hold: inputs are the library's own paper and
/// scale profiles, unpermuted.
constexpr uint64_t kDefaultSeed = 1;

/// Input size: kFull is the measured benchmark; kSmoke runs the same code
/// on tiny inputs in well under a second (self-tests, and the cross-path
/// pass that fills metrics a workload does not own).
enum class Size { kFull, kSmoke };

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string workdir = ".bench_build/work";
  std::string reference = "perfbench/reference.json";
  std::string record;  // full result record (env stamp, checks, spans)
};

struct MetricSpec {
  const char* name;
  const char* unit;
  /// Workload whose path produces the metric; other workloads take it
  /// from that workload's smoke-size pass.
  const char* home;
};

/// End-to-end metrics (printed with --trace 0) and per-layer metrics
/// (printed with --trace 1). BENCHMARK.json lists the same names.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
const std::vector<std::string>& WorkloadNames();

struct Metric {
  double value = 0;
  std::string unit;
};

/// Committed reference values (perfbench/reference.json): a flat object
/// of numbers and strings keyed like "table2-train.OC.accuracy_pct".
class Reference {
 public:
  static Reference Load(const std::string& path, std::string* error);
  double Number(const std::string& key) const;
  std::string String(const std::string& key) const;

 private:
  std::map<std::string, double> numbers_;
  std::map<std::string, std::string> strings_;
};

/// What one workload pass produced.
struct Outcome {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Free-form notes for the result record (reconciliation tables, digests).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation (a timed call, a request, or a correctness
  /// check); `ok == false` counts it as failed and keeps `what`.
  void Record(bool ok, const std::string& what);
  void Note(const std::string& text) { notes.push_back(text); }
};

/// Everything a workload function needs.
struct Context {
  const Args& args;
  Size size;
  const Reference& reference;
  Tracer* tracer;  // non-null only for traced passes
  std::string dir;  // private scratch directory for generated inputs
  Outcome* out;
  /// Probes of the other workloads' paths (untraced full runs only).
  const std::vector<std::unique_ptr<Probe>>* probes = nullptr;

  /// Reference checks apply at the default seed (each input size has its
  /// own keys); other seeds run the cross-path checks only.
  bool UseReference() const { return args.seed == kDefaultSeed; }
  /// How long the timed phase repeats its operation (at least once).
  double MeasureSeconds() const {
    return size == Size::kFull ? args.seconds : 1.5;
  }
  /// Runs `rounds` rounds of every probe. Workloads call it between their
  /// own timed operations, so the probes' timings span the run the way the
  /// workload's own timings do.
  void Interleave(size_t rounds) const;
  std::string Path(const std::string& name) const { return dir + "/" + name; }
};

using WorkloadFn = void (*)(const Context&);
void RunTable2Train(const Context& ctx);
void RunMineDeep(const Context& ctx);
void RunServeHttp(const Context& ctx);
void RunScaleShards(const Context& ctx);

/// A smoke-size run of one workload's path, set up once and then measured
/// in short rounds interleaved with another workload's operations. It fills
/// that workload's end-to-end metrics for paths it does not run itself.
class Probe {
 public:
  virtual ~Probe() = default;
  /// Runs one measured round on a thread of its own that starts on the
  /// next usable CPU in turn (see StartOnCpu); its checks count in `result`.
  void Run();
  /// Runs half of the probe's minimum rounds. Called before the workload
  /// starts, so the rounds span the whole run rather than bunching after
  /// it: the host's vCPUs change speed for seconds at a time (see Mean).
  void Lead() {
    while (rounds_ < min_rounds_ / 2) Run();
  }
  /// Runs the rounds the interleaving left short of the probe's minimum,
  /// then sets its end-to-end metrics in `result`.
  void Finish() {
    while (rounds_ < min_rounds_) Run();
    Report();
  }
  Outcome result;

 protected:
  virtual void Round() = 0;
  virtual void Report() = 0;

 private:
  /// Rounds every probe runs in a run at least.
  static constexpr size_t min_rounds_ = 24;
  size_t rounds_ = 0;
};

/// Each factory sets the probe up in `dir` (its checks count in `result`).
using ProbeFactory = std::unique_ptr<Probe> (*)(const Args&, const Reference&,
                                                const std::string& dir);
std::unique_ptr<Probe> MakeTable2Probe(const Args& args, const Reference& ref,
                                       const std::string& dir);
std::unique_ptr<Probe> MakeMineProbe(const Args& args, const Reference& ref,
                                     const std::string& dir);
std::unique_ptr<Probe> MakeScaleProbe(const Args& args, const Reference& ref,
                                      const std::string& dir);

// --- timing, statistics, memory -------------------------------------------

double NowSeconds();
double Median(std::vector<double> values);
/// The arithmetic mean (0 for none). Probes report the mean of their rounds:
/// the rounds start on each vCPU in turn, and while a neighbour loads the
/// sibling of some of them those run ~1.4x slower. The median of the rounds
/// jumped between the two speeds from run to run, and their fastest round
/// depended on which single round caught a quiet moment; the mean moves
/// only as much as the share of slow rounds does.
double Mean(const std::vector<double>& values);
/// Linear-interpolated percentile (p in [0, 100]).
double Percentile(std::vector<double> values, double p);
/// Runs `setup` `reps` times and returns the median wall time.
double MedianSetupSeconds(int reps, const std::function<void()>& setup);
/// Resets the kernel's peak-RSS high-water mark (after returning freed heap
/// pages), so the next PeakRssMib() covers only what follows.
void ResetPeakRss();
double PeakRssMib();

/// Moves the calling thread to the k-th usable CPU (mod their number) and
/// then allows it every usable CPU again, so it starts there and threads it
/// creates inherit the full set. On a VM whose vCPUs run slower while a
/// neighbour loads their sibling, a short operation run from one thread
/// would otherwise take that vCPU's speed for a whole run.
void StartOnCpu(size_t k);

/// Worker threads for the "many threads" configurations: min(4, nproc).
uint32_t ParallelThreads();
/// Online CPUs usable by this process.
uint32_t UsableCpus();

// --- seeded inputs ---------------------------------------------------------

uint64_t MixSeed(uint64_t seed, uint64_t salt);
/// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<uint32_t> Permutation(uint32_t n, uint64_t seed);
/// The paper profiles are fixed datasets; a benchmark seed presents them
/// with rows (within each split) and genes (consistently across splits)
/// permuted. The default seed is the identity. Mining cost depends on the
/// data far more than on its order (regenerating a profile with another
/// generator seed moves OC's mining time by up to 12x), so a permutation
/// gives each seed different bytes of the same workload.
topkrgs::GeneratedData PermutedProfile(const topkrgs::DatasetProfile& profile,
                                       uint64_t seed);

/// Environment stamp for the result record (nproc, hardware_concurrency,
/// SIMD tier, build type, compiler, seed, oversubscribed flag).
std::string EnvJson(const Args& args, uint32_t max_threads_used);

// --- metric helpers ---------------------------------------------------------

/// Adds `s`'s counters to `sum`.
void AddStats(const topkrgs::MinerStats& s, topkrgs::MinerStats* sum);
/// Sets the mine.* per-layer metrics from summed MinerStats, the number of
/// calls and their busy time (mine.speedup and mine.redundant_work_ratio
/// are the caller's: they need a 1-thread and a many-thread run).
void SetMineMetrics(const topkrgs::MinerStats& sum, uint64_t calls,
                    double busy_s, Outcome* out);
/// Sets the reconciliation metrics of a traced pass: trace.untraced_ms,
/// trace.layers_ms, trace.overhead_ratio and every share.<layer> (layers
/// absent from `layer_self_s` get 0), share.remainder being the part of the
/// untraced time the layer self times leave. Returns share.remainder.
double SetReconciliation(double untraced_s,
                         const std::map<std::string, double>& layer_self_s,
                         double overhead_ratio, Outcome* out);

/// A 64-bit digest as 16 hex digits.
std::string Hex(uint64_t v);
/// Shortest round-trip decimal form of a double.
std::string FormatDouble(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_

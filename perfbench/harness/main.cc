// perfbench: runs one benchmark workload and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|smoke] [--workdir DIR] [--reference FILE]
//             [--record FILE]
//   perfbench --list-metrics
//
// --trace 0 measures the workload untraced and prints every end-to-end
// metric; --trace 1 adds the traced pass and prints every per-layer metric.
// Metrics whose path the workload does not run come from smoke-size runs of
// the workload that owns them: probes interleaved with this workload's
// operations (untraced) or traced smoke passes (see README.md).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {
namespace {

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "table2-train") return RunTable2Train;
  if (name == "mine-deep") return RunMineDeep;
  if (name == "serve-http") return RunServeHttp;
  if (name == "scale-shards") return RunScaleShards;
  return nullptr;
}

uint32_t ThreadsUsed(const std::string& workload) {
  if (workload == "table2-train") return 1;
  if (workload == "serve-http") {
    // client threads + connection threads + executor workers
    const uint32_t cpus = UsableCpus();
    return 2 * std::max<uint32_t>(1, cpus / 2) + std::min<uint32_t>(4, cpus);
  }
  return ParallelThreads();
}

void ListMetrics() {
  std::printf("{\"workloads\": [");
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    std::printf("%s%s", i ? ", " : "", JsonString(WorkloadNames()[i]).c_str());
  }
  for (const char* kind : {"end_to_end", "per_layer"}) {
    const auto& specs = std::string(kind) == "end_to_end" ? EndToEndMetrics()
                                                          : PerLayerMetrics();
    std::printf("], \"%s\": [", kind);
    for (size_t i = 0; i < specs.size(); ++i) {
      std::printf("%s{\"name\": %s, \"unit\": %s, \"home\": %s}", i ? ", " : "",
                  JsonString(specs[i].name).c_str(),
                  JsonString(specs[i].unit).c_str(),
                  JsonString(specs[i].home).c_str());
    }
  }
  std::printf("]}\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") return false;
      args->size = value == "full" ? Size::kFull : Size::kSmoke;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--reference") {
      args->reference = value;
    } else if (flag == "--record") {
      args->record = value;
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr && args->seconds > 0;
}

ProbeFactory FindProbe(const std::string& name) {
  if (name == "table2-train") return MakeTable2Probe;
  if (name == "mine-deep") return MakeMineProbe;
  return MakeScaleProbe;
}

std::string ScratchDir(const Args& args, const std::string& name) {
  const std::string dir = args.workdir + "/" + name + "-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs one workload pass in its own scratch directory.
void RunPass(const Args& args, const std::string& workload, Size size,
             const Reference& ref, Tracer* tracer,
             const std::vector<std::unique_ptr<Probe>>* probes, Outcome* out) {
  const std::string dir =
      ScratchDir(args, workload + (size == Size::kFull ? "-full" : "-smoke"));
  Context ctx{args, size, ref, tracer, dir, out, probes};
  FindWorkload(workload)(ctx);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

/// Copies the metrics `from` measured whose home is `home` and that `into`
/// lacks, and adds `from`'s operations to `into`'s.
void MergeForeign(const Outcome& from, const std::string& home,
                  const std::vector<MetricSpec>& specs, const Outcome& own,
                  Outcome* into) {
  for (const MetricSpec& spec : specs) {
    auto it = from.metrics.find(spec.name);
    if (spec.home == home && own.metrics.count(spec.name) == 0 &&
        it != from.metrics.end()) {
      into->metrics[spec.name] = it->second;
    }
  }
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (const std::string& f : from.failures) {
    into->failures.push_back("[" + home + " probe] " + f);
  }
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        const std::vector<MetricSpec>* only) {
  std::string out = "{";
  bool first = true;
  auto add = [&](const std::string& name, const Metric& m) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           FormatDouble(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  };
  if (only == nullptr) {
    for (const auto& [name, m] : metrics) add(name, m);
  } else {
    for (const MetricSpec& spec : *only) {
      auto it = metrics.find(spec.name);
      if (it != metrics.end()) add(spec.name, it->second);
    }
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    ListMetrics();
    return 0;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <table2-train|mine-deep|"
                 "serve-http|scale-shards> --seed N --seconds S --trace 0|1 "
                 "[--size full|smoke] [--workdir D] [--reference F] "
                 "[--record F]\n");
    return 2;
  }
  std::string error;
  const Reference ref = Reference::Load(args.reference, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  // Metrics of paths this workload does not run come from the other
  // workloads at smoke size: untraced, from probes interleaved with this
  // workload's operations; traced, from smoke passes after it.
  const std::vector<MetricSpec>& specs =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::vector<std::string> others;
  for (const std::string& w : WorkloadNames()) {
    const bool home = std::any_of(specs.begin(), specs.end(),
                                  [&](const MetricSpec& m) { return m.home == w; });
    if (w != args.workload && home) others.push_back(w);
  }
  std::vector<std::string> probe_dirs;
  std::vector<std::unique_ptr<Probe>> probes;
  if (!args.trace) {
    for (const std::string& w : others) {
      probe_dirs.push_back(ScratchDir(args, w + "-probe"));
      probes.push_back(FindProbe(w)(args, ref, probe_dirs.back()));
    }
  }

  for (const std::unique_ptr<Probe>& probe : probes) probe->Lead();

  Tracer tracer;
  Outcome own;
  const double t0 = NowSeconds();
  RunPass(args, args.workload, args.size, ref, args.trace ? &tracer : nullptr,
          &probes, &own);
  const double own_s = NowSeconds() - t0;

  Outcome merged = own;
  for (size_t i = 0; i < others.size(); ++i) {
    Outcome smoke;
    if (args.trace) {
      Tracer smoke_tracer;
      RunPass(args, others[i], Size::kSmoke, ref, &smoke_tracer, nullptr, &smoke);
    } else {
      probes[i]->Finish();
      smoke = probes[i]->result;
    }
    MergeForeign(smoke, others[i], specs, own, &merged);
  }
  probes.clear();
  for (const std::string& dir : probe_dirs) {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  for (const MetricSpec& spec : specs) {
    if (merged.metrics.count(spec.name) == 0) {
      merged.Record(false, std::string("metric not produced: ") + spec.name);
    }
  }
  const bool correct = merged.failed == 0;

  // Human-readable summary, then the environment stamp, then the result.
  for (const std::string& note : own.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& f : merged.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  const std::string env = EnvJson(args, ThreadsUsed(args.workload));
  std::printf("# env %s\n", env.c_str());
  std::printf("# workload %s seed %llu trace %d: own pass %.3f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, own_s);

  if (!args.record.empty()) {
    std::ofstream rec(args.record);
    rec << "{\"workload\": " << JsonString(args.workload)
        << ",\n \"size\": " << JsonString(args.size == Size::kFull ? "full" : "smoke")
        << ",\n \"trace\": " << (args.trace ? 1 : 0)
        << ",\n \"seconds\": " << FormatDouble(args.seconds)
        << ",\n \"env\": " << env << ",\n \"correct\": " << (correct ? "true" : "false")
        << ",\n \"attempted\": " << merged.attempted
        << ",\n \"failed\": " << merged.failed << ",\n \"failures\": [";
    for (size_t i = 0; i < merged.failures.size(); ++i) {
      rec << (i ? ", " : "") << JsonString(merged.failures[i]);
    }
    rec << "],\n \"notes\": [";
    for (size_t i = 0; i < own.notes.size(); ++i) {
      rec << (i ? ", " : "") << JsonString(own.notes[i]);
    }
    rec << "],\n \"own_metrics\": " << MetricsJson(own.metrics, nullptr)
        << ",\n \"spans\": " << tracer.ToJson() << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(merged.attempted),
              static_cast<unsigned long long>(merged.failed),
              MetricsJson(merged.metrics, &specs).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// serve-http: open-loop POST /v1/predict traffic over loopback to an
// in-process PredictionService serving the LC RCBT model trained in set-up.
// Single-row requests at a reference rate, then the same clients closed
// loop on a mix with a fixed share of 16-row batches; meanwhile the model is
// hot-swapped every second through ModelRegistry::Load from the saved
// files. Latency is taken per request by the client, from the request's
// scheduled send time, so a stall also delays the requests queued behind it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "topkrgs/topkrgs.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace topkrgs;

/// In the saturation phase that measures serve.max_rps, every kBatchEvery-th
/// request is a 16-row batch and the rest are single rows. This share is an
/// assumption, not a measured traffic mix: the repository has no record of
/// served traffic. The reference phase that gives serve.p50_ms and
/// serve.p99_ms sends single rows only, so they do not depend on it.
constexpr uint32_t kBatchEvery = 50;
constexpr uint32_t kBatchRows = 16;

/// Traffic shape per input size.
struct ServeParams {
  double ref_rate;         // requests/s of the reference phase (assumed)
  uint32_t ref_requests;   // requests of the reference phase
  double warmup_s;
  uint32_t row_values;     // values per request row (0 = the profile's genes)
  uint32_t sat_windows;    // saturation windows; serve.max_rps is their median
};

// Full: LC rows, ~110 KB of JSON each; 2000 single-row requests give their
// p99 twenty samples beyond it. The reference rate is an assumption, like
// the batch share: high enough for that many samples in a few seconds, low
// enough (about a third of capacity) that requests seldom queue. Smoke
// (self-tests and the traced smoke pass of other workloads): the Tiny model, with rows
// padded to LC's 12533 values (the model reads the first 120), so requests
// cost what full-size ones do while set-up takes milliseconds.
constexpr ServeParams kFullParams = {300, 2000, 0.5, 0, 12};
constexpr ServeParams kSmokeParams = {300, 600, 0.1, 12533, 6};

/// Requests per saturation window (a whole number of kBatchEvery, so every
/// window carries the same batches).
constexpr uint32_t kSatWindow = 200;

struct Request {
  std::string wire;      // full HTTP request bytes
  std::string expected;  // response body offline ServableModel::Predict gives
};

struct Sample {
  double latency_ms = 0;  // completion minus scheduled send time
  double lag_ms = 0;      // actual minus scheduled send time
  bool ok = false;
  bool single = false;
};

struct PhaseResult {
  std::vector<Sample> samples;
  double seconds = 0;  // from the first due time to the last answer
  double p50_single_ms = 0, p99_single_ms = 0, lag_p99_ms = 0;
  uint64_t failed = 0;

  double Rps() const { return seconds > 0 ? samples.size() / seconds : 0; }
};

/// Single-row p99: the median, over consecutive windows of kP99Window
/// single-row samples (in send order; a short tail joins the last window),
/// of each window's p99. A host stall delays the few requests due during it;
/// in one p99 over all samples a handful of stalls decides the value, here
/// it moves one window.
constexpr size_t kP99Window = 200;

double WindowedP99(const std::vector<double>& samples) {
  const size_t windows = std::max<size_t>(1, samples.size() / kP99Window);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + w * kP99Window;
    const auto end = w + 1 == windows ? samples.end() : begin + kP99Window;
    p99s.push_back(Percentile(std::vector<double>(begin, end), 99));
  }
  return Median(p99s);
}

/// Sets a phase's statistics from its samples, in send order.
void Summarize(PhaseResult* res) {
  std::vector<double> singles, lags;
  res->failed = 0;
  for (const Sample& s : res->samples) {
    if (s.single) singles.push_back(s.latency_ms);
    lags.push_back(s.lag_ms);
    res->failed += !s.ok;
  }
  res->p50_single_ms = Median(singles);
  res->p99_single_ms = WindowedP99(singles);
  res->lag_p99_ms = Percentile(lags, 99);
}

std::string FormatRow(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%.6g" : ",%.6g", values[i]);
    out += buf;
  }
  out += "]";
  return out;
}

/// Builds a request whose rows are exactly the doubles its JSON text
/// denotes, and the response the offline model gives for them.
Request MakeRequest(const ServableModel& offline,
                    const std::vector<std::vector<double>>& raw_rows) {
  Request req;
  std::string body = "{\"rows\":[";
  std::string expected = "{\"predictions\":[";
  for (size_t i = 0; i < raw_rows.size(); ++i) {
    const std::string text = FormatRow(raw_rows[i]);
    std::vector<double> row;
    row.reserve(raw_rows[i].size());
    for (const char* p = text.c_str() + 1; *p != '\0' && *p != ']';) {
      char* end = nullptr;
      row.push_back(std::strtod(p, &end));
      p = *end == ',' ? end + 1 : end;
    }
    auto result_or = offline.Predict(row);
    if (i > 0) {
      body += ",";
      expected += ",";
    }
    body += text;
    expected += result_or.ok() ? RowResultToJson(result_or.value()) : "error";
  }
  body += "]}";
  expected += "]}";
  req.wire = "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
             "Content-Type: application/json\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
  req.expected = std::move(expected);
  return req;
}

/// One request over a fresh loopback connection (the server answers one
/// request per connection). Returns true iff the answer is a 200 whose body
/// equals the expected one.
bool SendRequest(uint16_t port, const Request& req) {
  auto fd_or = ConnectTcp(port);
  if (!fd_or.ok()) return false;
  const int fd = fd_or.value();
  std::string response;
  const bool io_ok = SendAll(fd, req.wire).ok() && RecvAll(fd, &response).ok();
  CloseSocket(fd);
  if (!io_ok || response.compare(0, 12, "HTTP/1.1 200") != 0) return false;
  const size_t header_end = response.find("\r\n\r\n");
  return header_end != std::string::npos &&
         response.compare(header_end + 4, std::string::npos, req.expected) == 0;
}

struct Traffic {
  uint16_t port = 0;
  const std::vector<Request>* singles = nullptr;
  const std::vector<Request>* batches = nullptr;
  uint32_t clients = 1;
  uint64_t seed = 1;
};

/// Runs `n` requests from t.clients client threads. Open loop at `rate` >
/// 0: request i is due at start + i / rate; a client thread takes the next
/// due request, sleeps until it is due, and sends it. Closed loop at rate 0:
/// a client sends the next request as soon as its previous one is answered,
/// so each request is due when it is taken. With `mix`, request i is a
/// batch when i % kBatchEvery == kBatchEvery - 1; without, every request is
/// a single row.
PhaseResult RunRequests(const Traffic& t, double rate, uint64_t n, uint64_t phase_salt,
                        bool mix) {
  PhaseResult res;
  n = std::max<uint64_t>(1, n);
  std::vector<uint32_t> pick(n);
  std::vector<uint8_t> is_batch(n);
  Rng rng(MixSeed(t.seed, phase_salt));
  for (uint64_t i = 0; i < n; ++i) {
    is_batch[i] = mix && i % kBatchEvery == kBatchEvery - 1;
    pick[i] = static_cast<uint32_t>(
        rng.NextBounded(is_batch[i] ? t.batches->size() : t.singles->size()));
  }
  res.samples.resize(n);
  std::atomic<uint64_t> next{0};
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto client = [&] {
    std::this_thread::sleep_until(start);
    for (uint64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const Clock::time_point due =
          rate > 0 ? start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(i / rate))
                   : Clock::now();
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      const bool batch = is_batch[i] != 0;
      const Request& req = batch ? (*t.batches)[pick[i]] : (*t.singles)[pick[i]];
      const bool ok = SendRequest(t.port, req);
      const Clock::time_point done = Clock::now();
      Sample& s = res.samples[i];
      s.latency_ms = std::chrono::duration<double, std::milli>(done - due).count();
      s.lag_ms = std::chrono::duration<double, std::milli>(sent - due).count();
      s.ok = ok;
      s.single = !batch;
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < t.clients; ++c) threads.emplace_back(client);
  for (std::thread& th : threads) th.join();
  res.seconds = std::chrono::duration<double>(Clock::now() - start).count();

  Summarize(&res);
  return res;
}

/// Open loop at `rate` for `seconds`, single rows only.
PhaseResult RunPhase(const Traffic& t, double rate, double seconds, uint64_t phase_salt) {
  return RunRequests(t, rate, static_cast<uint64_t>(rate * seconds), phase_salt, false);
}

/// One saturation window for serve.max_rps: kSatWindow requests of the mix,
/// closed loop. Its rate is the highest arrival rate the server answers
/// from t.clients connections without a growing backlog; open loop above
/// it, requests queue without bound. (Each client thread has one request
/// in flight at a time, so an open-loop generator with these clients could
/// not go faster either.)
PhaseResult RunSaturationWindow(const Traffic& t, uint64_t phase_salt) {
  return RunRequests(t, 0, kSatWindow, phase_salt, true);
}

struct ServeState {
  std::string model_path, disc_path;
  std::shared_ptr<const ServableModel> offline;
  RcbtClassifier clf;  // the trained classifier, for rcbt.predict_row_us
  std::vector<Request> singles, batches;
  std::unique_ptr<PredictionService> service;  // not yet listening
};

/// Set-up: train the model, save it, create the service and load the saved
/// files into its registry; and prepare the request pool: up to
/// `max_singles` single-row requests and `num_batches` 16-row batches. Rows
/// are padded to `row_values` values when the profile has fewer genes.
bool SetUp(const DatasetProfile& profile, uint32_t row_values, uint64_t seed,
           size_t max_singles, size_t num_batches, const std::string& dir,
           ServeState* st) {
  if (st->service) st->service->Stop();
  st->service.reset();
  st->model_path = dir + "/serve.rcbt";
  st->disc_path = dir + "/serve.disc";
  const GeneratedData data = PermutedProfile(profile, seed);
  Pipeline p = PreparePipeline(data.train, data.test);
  RcbtOptions opt;
  opt.item_scores = p.item_scores;
  st->clf = RcbtClassifier::Train(p.train, opt);
  const uint32_t num_items = p.discretization.num_items();
  auto offline_or = ServableModel::Create("default", "offline", p.discretization,
                                          st->clf, std::nullopt, num_items);
  if (!offline_or.ok()) return false;
  st->offline = offline_or.value();
  if (!SaveRcbtClassifier(st->clf, num_items, st->model_path).ok() ||
      !SaveDiscretization(p.discretization, st->disc_path).ok()) {
    return false;
  }
  PredictionService::Options options;
  options.workers = std::min<uint32_t>(options.workers, UsableCpus());
  st->service = std::make_unique<PredictionService>(options);
  if (!st->service->registry()
           .Load("default", "v0", ServableModel::Kind::kRcbt, st->model_path,
                 st->disc_path)
           .ok()) {
    return false;
  }
  std::vector<std::vector<double>> rows;
  for (RowId r = 0; r < data.test.num_rows() && rows.size() < max_singles; ++r) {
    std::vector<double> row(std::max(row_values, data.test.num_genes()));
    for (GeneId g = 0; g < row.size(); ++g) {
      row[g] = g < data.test.num_genes() ? data.test.value(r, g) : 0.5 + 0.001 * g;
    }
    rows.push_back(std::move(row));
  }
  st->singles.clear();
  st->batches.clear();
  for (const auto& row : rows) st->singles.push_back(MakeRequest(*st->offline, {row}));
  Rng rng(MixSeed(seed, 77));
  for (size_t b = 0; b < num_batches; ++b) {
    std::vector<std::vector<double>> batch;
    for (uint32_t i = 0; i < kBatchRows; ++i) {
      batch.push_back(rows[rng.NextBounded(rows.size())]);
    }
    st->batches.push_back(MakeRequest(*st->offline, batch));
  }
  return true;
}

void RecordPhase(const PhaseResult& ph, const std::string& name, Outcome* out) {
  for (const Sample& s : ph.samples) {
    out->Record(s.ok, "serve-http " + name + ": request failed or wrong answer");
  }
}

uint32_t Clients() { return std::max<uint32_t>(1, UsableCpus() / 2); }

/// Probe rounds per window between serve-http's own traffic phases.
constexpr size_t kProbeRoundsPerWindow = 3;

}  // namespace

void RunServeHttp(const Context& ctx) {
  Outcome* out = ctx.out;
  const bool full = ctx.size == Size::kFull;
  const ServeParams& params = full ? kFullParams : kSmokeParams;
  const DatasetProfile profile = full ? DatasetProfile::LC() : DatasetProfile::Tiny(31);
  const uint32_t clients = Clients();

  ServeState st;
  bool setup_ok = true;
  const double setup_s = MedianSetupSeconds(2, [&] {
    setup_ok = SetUp(profile, params.row_values, ctx.args.seed, full ? SIZE_MAX : 4,
                     full ? 8 : 1, ctx.dir, &st) &&
               st.service->Start(0).ok() && setup_ok;
  });
  PredictionService* service = st.service.get();
  out->Record(setup_ok, "serve-http: set-up");
  out->Set("setup_s", setup_s, "s");
  if (!setup_ok) return;
  out->Note("serve-http clients " + std::to_string(clients));

  // Hot-swap writer beside the readers: alternate two versions loaded from
  // the saved files once a second.
  std::atomic<bool> stop_swaps{false};
  std::atomic<uint64_t> swaps{0}, swap_failures{0};
  std::thread swapper([&] {
    auto next = std::chrono::steady_clock::now();
    for (uint64_t i = 1; !stop_swaps.load(); ++i) {
      next += std::chrono::seconds(1);
      while (!stop_swaps.load() && std::chrono::steady_clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (stop_swaps.load()) break;
      const Status s = service->registry().Load(
          "default", i % 2 ? "v1" : "v2", ServableModel::Kind::kRcbt,
          st.model_path, st.disc_path);
      swaps.fetch_add(1);
      if (!s.ok()) swap_failures.fetch_add(1);
    }
  });

  Traffic traffic;
  traffic.port = service->port();
  traffic.singles = &st.singles;
  traffic.batches = &st.batches;
  traffic.clients = clients;
  traffic.seed = ctx.args.seed;
  const double ref_rate = params.ref_rate;

  // The other workloads' probes run between the traffic phases, never
  // during one; the peak RSS of the timed phase is the larger of the two
  // traffic windows around them.
  ctx.Interleave(kProbeRoundsPerWindow);
  RunPhase(traffic, ref_rate, params.warmup_s, 1);  // warm-up
  std::atomic<bool> sampling{ctx.tracer != nullptr};
  std::atomic<int64_t> depth_max{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      const int64_t d = service->metrics().queue_depth.load(std::memory_order_relaxed);
      if (d > depth_max.load()) depth_max.store(d);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  ResetPeakRss();
  const double ref_s = std::max(params.ref_requests / ref_rate,
                                full ? 0.6 * ctx.args.seconds : 0.0);
  const PhaseResult ref = RunPhase(traffic, ref_rate, ref_s, 2);
  sampling.store(false);
  sampler.join();
  RecordPhase(ref, "reference rate", out);
  out->Set("serve.p50_ms", ref.p50_single_ms, "ms");
  double peak_mib = PeakRssMib();
  ctx.Interleave(kProbeRoundsPerWindow);
  ResetPeakRss();

  std::vector<double> window_rps;
  std::string note = "serve-http saturation windows (1/s):";
  for (uint64_t w = 0; w < params.sat_windows; ++w) {
    const PhaseResult window = RunSaturationWindow(traffic, 10 + w);
    RecordPhase(window, "saturation", out);
    window_rps.push_back(window.Rps());
    note += " " + FormatDouble(window.Rps());
  }
  out->Note(note);
  out->Set("serve.max_rps", Median(window_rps), "1/s");
  stop_swaps.store(true);
  swapper.join();
  out->Set("peak_rss_mib", std::max(peak_mib, PeakRssMib()), "MiB");
  out->Record(swap_failures.load() == 0, "serve-http: hot-swap Load failed");
  {
    std::vector<double> bl;
    for (const Sample& x : ref.samples) {
      if (!x.single) bl.push_back(x.latency_ms);
    }
    out->Note("serve-http reference phase: singles p50 " +
              FormatDouble(ref.p50_single_ms) + " ms p99 " +
              FormatDouble(ref.p99_single_ms) + " ms | batches n=" +
              std::to_string(bl.size()) + " p50 " + FormatDouble(Median(bl)) +
              " ms max " + FormatDouble(Percentile(bl, 100)) + " ms | lag_p99 " +
              FormatDouble(ref.lag_p99_ms) + " ms | swaps " +
              std::to_string(swaps.load()));
  }

  if (ctx.tracer == nullptr) {
    service->Stop();
    return;
  }

  // Traced pass: replay sample requests through the layers in the order the
  // server runs them — ParseHttpRequest, ParsePredictRequest, registry Get,
  // then PredictionService::Predict (registry + executor hand-off + execute)
  // — plus the inline ServableModel::Predict of each row and
  // RcbtClassifier::Predict of its discretized items, which split execute
  // into discretize and classify. The whole-call HandleHttp answer must
  // equal the decomposed one and the offline one.
  Tracer* tr = ctx.tracer;
  std::vector<double> http_us, json_us, get_us, exec_row_us, rcbt_row_us,
      handoff_us, service_us, plain_us;
  const size_t replay = full ? 300 : 60;
  Rng rng(MixSeed(ctx.args.seed, 99));
  for (size_t n = 0; n < replay; ++n) {
    const bool batch = n % kBatchEvery == kBatchEvery - 1;
    const Request& req = batch ? st.batches[rng.NextBounded(st.batches.size())]
                               : st.singles[rng.NextBounded(st.singles.size())];
    const uint64_t id = n + 1;
    size_t consumed = 0;
    uint32_t s0 = tr->Begin("serve.ParseHttpRequest", id);
    auto http_or = ParseHttpRequest(req.wire, &consumed);
    tr->End(s0);
    const double http_d = tr->spans().back().duration();
    if (!http_or.ok()) {
      out->Record(false, "serve-http: traced ParseHttpRequest failed");
      continue;
    }
    s0 = tr->Begin("serve.ParsePredictRequest", id);
    auto parsed_or = ParsePredictRequest(http_or.value().body);
    tr->End(s0);
    const double json_d = tr->spans().back().duration();
    if (!parsed_or.ok()) {
      out->Record(false, "serve-http: traced ParsePredictRequest failed");
      continue;
    }
    s0 = tr->Begin("serve.RegistryGet", id);
    auto model_or = service->registry().Get(parsed_or.value().model);
    tr->End(s0);
    const double get_d = tr->spans().back().duration();
    if (!model_or.ok()) {
      out->Record(false, "serve-http: traced registry Get failed");
      continue;
    }
    double exec_total = 0;
    for (const std::vector<double>& row : parsed_or.value().rows) {
      s0 = tr->Begin("serve.ServableModel.Predict", id);
      auto row_or = model_or.value()->Predict(row);
      tr->End(s0);
      const double d = tr->spans().back().duration();
      exec_total += d;
      Bitset items(st.offline->num_items());
      for (ItemId item : st.offline->discretization().DiscretizeRow(row)) items.Set(item);
      s0 = tr->Begin("rcbt.Predict", id);
      const auto pred = st.clf.Predict(items);
      tr->End(s0);
      if (!batch) {
        exec_row_us.push_back(d * 1e6);
        rcbt_row_us.push_back(tr->spans().back().duration() * 1e6);
      }
      (void)pred;
      out->Record(row_or.ok(), "serve-http: traced ServableModel::Predict failed");
    }
    s0 = tr->Begin("serve.PredictionService.Predict", id);
    auto resp_or = service->Predict(parsed_or.value());
    tr->End(s0);
    const double service_d = tr->spans().back().duration();
    std::string body = "{\"predictions\":[";
    if (resp_or.ok()) {
      for (size_t i = 0; i < resp_or.value().rows.size(); ++i) {
        if (i > 0) body += ",";
        body += RowResultToJson(resp_or.value().rows[i]);
      }
    }
    body += "]}";
    const double plain0 = NowSeconds();
    auto http_again = ParseHttpRequest(req.wire, &consumed);
    const HttpResponse whole = service->HandleHttp(http_again.value());
    const double plain_d = NowSeconds() - plain0;
    out->Record(resp_or.ok() && body == req.expected && whole.status_code == 200 &&
                    whole.body == body,
                "serve-http: decomposed answer differs from HandleHttp/offline");
    if (!batch) {
      http_us.push_back(http_d * 1e6);
      json_us.push_back(json_d * 1e6);
      get_us.push_back(get_d * 1e6);
      service_us.push_back(service_d * 1e6);
      handoff_us.push_back((service_d - exec_total) * 1e6);
      plain_us.push_back(plain_d * 1e6);
    }
  }

  std::vector<double> swap_s, load_s;
  for (int i = 0; i < 3; ++i) {
    uint32_t s0 = tr->Begin("model_io.Load");
    uint32_t num_items = 0;
    const bool ok = LoadRcbtClassifier(st.model_path, &num_items).ok() &&
                    LoadDiscretization(st.disc_path).ok();
    tr->End(s0);
    load_s.push_back(tr->spans().back().duration());
    s0 = tr->Begin("serve.RegistryLoad");
    const bool swapped = service->registry()
                             .Load("default", "v3", ServableModel::Kind::kRcbt,
                                   st.model_path, st.disc_path)
                             .ok();
    tr->End(s0);
    swap_s.push_back(tr->spans().back().duration());
    out->Record(ok && swapped, "serve-http: traced load/swap failed");
  }
  service->Stop();

  const double http = Median(http_us), json = Median(json_us), get = Median(get_us);
  const double exec = Median(exec_row_us), rcbt = Median(rcbt_row_us);
  const double handoff = Median(handoff_us);
  out->Set("serve.http_parse_us", http, "us");
  out->Set("serve.json_parse_us", json, "us");
  out->Set("serve.registry_get_us", get, "us");
  out->Set("serve.execute_row_us", exec, "us");
  out->Set("serve.handoff_us", handoff, "us");
  out->Set("discretize.apply_row_us", exec - rcbt, "us");
  out->Set("rcbt.predict_row_us", rcbt, "us");
  out->Set("model_io.load_s", Median(load_s), "s");
  out->Set("serve.swap_s", Median(swap_s), "s");
  out->Set("serve.queue_depth_max", static_cast<double>(depth_max.load()), "count");
  out->Set("serve.requests", static_cast<double>(ref.samples.size()), "count");
  out->Set("serve.failed", static_cast<double>(ref.failed), "count");
  out->Set("serve.gen_lag_ms", ref.lag_p99_ms, "ms");
  out->Set("serve.p99_ms", ref.p99_single_ms, "ms");

  // Reconciliation of the single-row request: parse + PredictionService
  // (registry, hand-off, execute) against the untraced p50; the remainder
  // is loopback TCP, the per-connection thread and response rendering.
  const double untraced_us = ref.p50_single_ms * 1e3;
  const double service_med = Median(service_us);
  const double layers_us = http + json + service_med;
  // Tracing overhead: the traced parse + PredictionService path against the
  // same request's untraced ParseHttpRequest + HandleHttp.
  const double plain = Median(plain_us);
  const double remainder = SetReconciliation(
      untraced_us / 1e6,
      {{"discretize", (exec - rcbt) / 1e6},
       {"rcbt", rcbt / 1e6},
       {"serve", (layers_us - exec) / 1e6}},
      plain > 0 ? layers_us / plain : 0, out);
  if (full) {
    out->Record(remainder >= -0.15 && remainder <= 0.75,
                "serve-http: transport remainder share " + FormatDouble(remainder) +
                    " outside [-0.15, 0.75]");
  }
  out->Note("serve-http single-row p50 " + FormatDouble(untraced_us) +
            " us: http " + FormatDouble(http) + " json " + FormatDouble(json) +
            " get " + FormatDouble(get) + " handoff " + FormatDouble(handoff) +
            " execute " + FormatDouble(exec) + " (rcbt " + FormatDouble(rcbt) +
            "), remainder (loopback TCP, connection thread, render) " +
            FormatDouble(untraced_us - layers_us));
}

}  // namespace perfbench

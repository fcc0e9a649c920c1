// perfbench_driver: one benchmark process over one workload.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--probe] [--spans PATH]
//
// Generates the workload's tables from the seed, builds its queries, and
// drives one engine::Session (nproc workers, default QueryOptions) from a
// single thread as a closed loop with the workload's number of queries in
// flight. Every result is checked against an oracle computed at set-up.
//
//  --trace 0  timed run: set-up, first query, warm-up, then S seconds of
//             steady state; prints the end-to-end metrics.
//  --trace 1  traced run: the same loop with spans around each call, an
//             untraced and a traced window (their difference is the tracing
//             overhead), then the per-layer ladder; prints per-layer metrics
//             and writes the spans to --spans.
//  --probe    set-up and first query only (fresh-process samples of
//             setup_s and first_query_ms).
//
// Progress goes to stderr; the last stdout line is one JSON object.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.h"
#include "driver/stats.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using avm::engine::Query;
using avm::engine::QueryHandle;
using avm::engine::QueryOptions;
using avm::engine::Session;
using avm::engine::SessionOptions;

// Taken during static initialization, before main: set-up time counts from
// process start, not from argument parsing.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

double SinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

// Successive clean queries (no compile, no tier-upgrade request, no compiler
// process running) that end the warm-up.
constexpr int kCleanStreak = 3;
// Steady-state samples a run completes at least: p90 then has >= 10 beyond.
const size_t kMinSteadySamples = MinSamplesFor(90);
// The traced run reports medians only.
constexpr size_t kTracedSamples = 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool probe = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--probe") {
      a->probe = true;
    } else if (k == "--workload" && next(&v)) {
      a->workload = v;
    } else if (k == "--seed" && next(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds" && next(&v)) {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace" && next(&v)) {
      a->trace = v == "1";
    } else if (k == "--spans" && next(&v)) {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

/// The closed-loop client: `spec.in_flight` slots, each owning one built
/// Query per shape, submitted to one Session from this thread only.
class Client {
 public:
  Client(Session& session, QueryOptions options, const WorkloadSpec& spec,
         const Inputs& inputs, SpanRecorder& spans, uint64_t seed)
      : session_(session),
        options_(options),
        spec_(spec),
        inputs_(inputs),
        spans_(spans),
        draw_(seed * 0x2545f4914f6cdd1dull + 0x44) {
    slots_.resize(spec.in_flight);
    for (Slot& s : slots_) {
      for (Shape shape : spec.shapes) {
        ScopedSpan span(spans_, std::string("build.") + ShapeName(shape));
        s.queries.push_back(BuildQuery(shape, inputs, true).ValueOrDie());
      }
    }
  }

  void set_oracle(const Oracle* o) { oracle_ = o; }
  int64_t Now() const { return spans_.Now(); }

  /// First round: one query per shape in flight at once (one query for
  /// single-shape workloads). Returns the round's wall time in ms.
  double FirstRound(std::vector<QueryRecord>* out) {
    const int64_t t0 = spans_.Now();
    for (size_t i = 0; i < spec_.shapes.size(); ++i) Submit(i % slots_.size(), i);
    DrainAll(out);
    return (spans_.Now() - t0) / 1e6;
  }

  /// Keep every slot busy until `stop(records so far)` returns true, then
  /// drain. Appends one record per finished query.
  template <typename Stop>
  void Loop(std::vector<QueryRecord>* out, Stop stop) {
    const size_t first = out->size();
    auto done = [&] {
      return stop(out->size() - first);
    };
    for (size_t s = 0; s < slots_.size() && !done(); ++s) Submit(s, Draw());
    while (Busy() > 0) {
      const size_t s = WaitAny(out);
      if (!done()) Submit(s, Draw());
    }
  }

 private:
  struct Slot {
    std::vector<Query> queries;  ///< one per spec.shapes entry
    bool busy = false;
    size_t shape_index = 0;
    QueryHandle handle;
    int64_t t0 = 0;
    double submit_us = 0;
    int64_t id = 0;
  };

  /// Seeded shuffle-bag draw: each successive block of spec.shapes.size()
  /// draws holds every shape once, in a seeded order, so any stretch of the
  /// loop runs the same mix and its throughput does not depend on how the
  /// draws fell.
  size_t Draw() {
    if (bag_.empty()) {
      for (size_t i = 0; i < spec_.shapes.size(); ++i) bag_.push_back(i);
      for (size_t i = bag_.size(); i > 1; --i) {
        std::swap(bag_[i - 1], bag_[draw_.NextBounded(i)]);
      }
    }
    const size_t shape = bag_.back();
    bag_.pop_back();
    return shape;
  }

  size_t Busy() const {
    size_t n = 0;
    for (const Slot& s : slots_) n += s.busy ? 1 : 0;
    return n;
  }

  void Submit(size_t slot, size_t shape_index) {
    Slot& s = slots_[slot];
    Query& q = s.queries[shape_index];
    q.ResetAggregates();
    s.shape_index = shape_index;
    s.id = next_id_++;
    s.t0 = spans_.Now();
    {
      ScopedSpan span(spans_, "submit", s.id);
      s.handle = session_.Submit(q.context(), options_);
    }
    s.submit_us = (spans_.Now() - s.t0) / 1e3;
    s.busy = true;
  }

  void Finish(size_t slot, std::vector<QueryRecord>* out) {
    Slot& s = slots_[slot];
    avm::Result<avm::engine::ExecReport> r = [&] {
      ScopedSpan span(spans_, "wait", s.id);
      return s.handle.Wait();
    }();
    const int64_t t1 = spans_.Now();
    spans_.Add("in_flight", s.t0, t1, s.id);
    s.busy = false;
    QueryRecord rec;
    rec.shape = spec_.shapes[s.shape_index];
    rec.id = s.id;
    rec.latency_ms = (t1 - s.t0) / 1e6;
    rec.end_ns = t1;
    rec.submit_us = s.submit_us;
    rec.rows = InputRows(rec.shape, inputs_);
    rec.ok = r.ok();
    if (r.ok()) {
      FillFromReport(r.value(), &rec);
      const Query& q = s.queries[s.shape_index];
      rec.result_rows = q.num_result_rows();
      ScopedSpan span(spans_, "check", s.id);
      rec.correct = oracle_ != nullptr && CheckResult(rec.shape, q, *oracle_);
    } else {
      std::fprintf(stderr, "query %lld failed: %s\n",
                   static_cast<long long>(s.id),
                   r.status().ToString().c_str());
    }
    out->push_back(std::move(rec));
  }

  /// Block until some busy slot finishes; returns its index. One slot in
  /// flight waits on its handle directly; several are polled.
  size_t WaitAny(std::vector<QueryRecord>* out) {
    if (slots_.size() == 1) {
      Finish(0, out);
      return 0;
    }
    for (;;) {
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].busy && slots_[i].handle.done()) {
          Finish(i, out);
          return i;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void DrainAll(std::vector<QueryRecord>* out) {
    while (Busy() > 0) WaitAny(out);
  }

  Session& session_;
  QueryOptions options_;
  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  SpanRecorder& spans_;
  const Oracle* oracle_ = nullptr;
  avm::Rng draw_;
  std::vector<size_t> bag_;  ///< shape indices left in the current draw
  std::vector<Slot> slots_;
  int64_t next_id_ = 0;
};

bool Clean(const QueryRecord& r) {
  return r.ok && r.traces_compiled == 0 && r.tier_upgrades_requested == 0;
}

/// Run until kCleanStreak successive clean queries with no compiler process
/// alive, or until `max_s` passes. Returns the warm-up length in queries:
/// queries in `out` (the first round included) ahead of the final streak.
size_t WarmUp(Client& client, std::vector<QueryRecord>* out, double max_s) {
  const double deadline = SinceStart() + max_s;
  int streak = 0;
  size_t warm = out->size();
  size_t seen = out->size();
  client.Loop(out, [&](size_t) {
    for (; seen < out->size(); ++seen) {
      if (Clean((*out)[seen]) && !HasChildProcesses()) {
        ++streak;
      } else {
        streak = 0;
        warm = seen + 1;
      }
    }
    return streak >= kCleanStreak || SinceStart() > deadline;
  });
  return warm;
}

/// Wait (bounded) until no compiler child process is left, so the run
/// leaves neither processes nor their scratch files behind.
bool WaitForQuiescence(double max_s) {
  const double deadline = SinceStart() + max_s;
  int quiet = 0;
  while (SinceStart() < deadline) {
    quiet = HasChildProcesses() ? 0 : quiet + 1;
    if (quiet >= 3) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

struct Window {
  std::vector<QueryRecord> records;
  int64_t start_ns = 0;
  double seconds = 0;
};

/// Steady-state window: at least `seconds` and at least `min_samples`
/// completed queries (bounded by 3 x seconds).
Window Steady(Client& client, double seconds, size_t min_samples) {
  Window w;
  w.start_ns = client.Now();
  const double start = SinceStart();
  client.Loop(&w.records, [&](size_t n) {
    const double el = SinceStart() - start;
    return (el >= seconds && n >= min_samples) || el >= 3 * seconds;
  });
  w.seconds = SinceStart() - start;
  return w;
}

// Throughput is the interquartile mean of the rates of this many groups of
// successive completions: a burst of host interference moves one group, which
// is dropped, while slower drifts are averaged over the window.
constexpr size_t kRateGroups = 10;

struct Summary {
  double p50 = 0, p90 = 0, rows_per_s = 0, queries_per_s = 0;
  size_t samples = 0, failed = 0;
  std::string group_rates;  ///< queries/s of each group, for the record
  uint64_t jit_events = 0;  ///< compiles + tier-upgrade requests
};

Summary Summarize(const Window& w) {
  Summary s;
  std::vector<double> lat;
  for (const QueryRecord& r : w.records) {
    if (!r.ok || !r.correct) {
      ++s.failed;
      continue;
    }
    lat.push_back(r.latency_ms);
  }
  s.samples = lat.size();
  s.p50 = Percentile(lat, 50);
  s.p90 = Percentile(lat, 90);

  // Each group spans from the previous group's last completion (the window
  // start for the first) to its own last completion; failed queries take
  // time but add no rate.
  std::vector<const QueryRecord*> order;
  for (const QueryRecord& r : w.records) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const QueryRecord* a, const QueryRecord* b) {
              return a->end_ns < b->end_ns;
            });
  const size_t groups = std::min(kRateGroups, order.size());
  std::vector<double> qps, rps;
  int64_t from = w.start_ns;
  for (size_t g = 0; g < groups; ++g) {
    const size_t lo = order.size() * g / groups;
    const size_t hi = order.size() * (g + 1) / groups;
    uint64_t queries = 0, rows = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (!order[i]->ok || !order[i]->correct) continue;
      ++queries;
      rows += order[i]->rows;
    }
    const int64_t to = order[hi - 1]->end_ns;
    const double secs = std::max<int64_t>(to - from, 1) / 1e9;
    qps.push_back(queries / secs);
    rps.push_back(rows / secs);
    from = to;
  }
  s.queries_per_s = InterquartileMean(qps);
  s.rows_per_s = InterquartileMean(rps);
  for (double q : qps) s.group_rates += std::to_string(std::lround(q)) + " ";
  for (const QueryRecord& r : w.records) {
    s.jit_events += r.traces_compiled + r.tier_upgrades_requested;
  }
  return s;
}

size_t CountFailed(const std::vector<QueryRecord>& recs) {
  size_t n = 0;
  for (const QueryRecord& r : recs) n += (r.ok && r.correct) ? 0 : 1;
  return n;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::map<std::string, double>& metrics,
               const std::map<std::string, std::string>& info) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [k, v] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}, \"info\": {");
  first = true;
  for (const auto& [k, v] : info) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(), v.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--probe] [--spans PATH]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const size_t nproc = OnlineCpus();
  SpanRecorder spans;
  spans.set_enabled(args.trace);

  // ---- set-up: data generation, Build(), Session construction.
  const int setup_span = spans.Begin("setup");
  Inputs inputs = [&] {
    ScopedSpan s(spans, "generate");
    return GenerateInputs(args.seed, spec->sizes);
  }();
  QueryOptions options;
  options.memory_budget = spec->memory_budget;
  SessionOptions so;
  so.num_workers = nproc;
  std::unique_ptr<Session> session;
  {
    ScopedSpan s(spans, "session");
    session = std::make_unique<Session>(so);
  }
  Client client(*session, options, *spec, inputs, spans, args.seed);
  spans.End(setup_span);
  const double setup_s = SinceStart();

  Oracle oracle;
  {
    ScopedSpan s(spans, "oracle");
    oracle = ComputeOracle(inputs, spec->shapes);
  }
  client.set_oracle(&oracle);

  // ---- first query (fresh process, empty trace cache).
  std::vector<QueryRecord> all;
  double first_query_ms = 0;
  {
    ScopedSpan s(spans, "first_round");
    first_query_ms = client.FirstRound(&all);
  }
  const std::vector<QueryRecord> first(all.begin(), all.end());
  std::map<std::string, std::string> info;
  info["workload"] = spec->name;
  info["seed"] = std::to_string(args.seed);
  info["nproc"] = std::to_string(nproc);
  info["workers"] = std::to_string(session->num_workers());
  info["in_flight"] = std::to_string(spec->in_flight);
  if (!first.empty()) {
    info["kernel_tier"] = first.front().kernel_tier;
    info["jit_tier"] = first.front().jit_tier;
  }

  if (args.probe) {
    const bool quiet = WaitForQuiescence(60);
    const size_t failed = CountFailed(all) + (quiet ? 0 : 1);
    PrintJson(failed == 0, all.size(), failed,
              {{"setup_s", setup_s}, {"first_query_ms", first_query_ms}},
              info);
    return 0;
  }

  // ---- warm-up until compiles and tier upgrades have stopped.
  size_t warmup = 0;
  {
    ScopedSpan s(spans, "warmup");
    warmup = WarmUp(client, &all, std::max(2.0, args.seconds));
  }
  info["warmup_queries"] = std::to_string(warmup);

  std::map<std::string, double> metrics;
  size_t attempted = all.size();
  size_t failed = CountFailed(all);

  if (!args.trace) {
    const Window w = Steady(client, args.seconds, kMinSteadySamples);
    const Summary sum = Summarize(w);
    attempted += w.records.size();
    failed += sum.failed;
    metrics["setup_s"] = setup_s;
    metrics["first_query_ms"] = first_query_ms;
    metrics["latency_p50_ms"] = sum.p50;
    metrics["latency_p90_ms"] = sum.p90;
    metrics["rows_per_s"] = sum.rows_per_s;
    metrics["queries_per_s"] = sum.queries_per_s;
    metrics["peak_rss_mb"] = PeakRssMb();
    info["latency_samples"] = std::to_string(sum.samples);
    info["steady_seconds"] = std::to_string(w.seconds);
    info["steady_group_queries_per_s"] = sum.group_rates;
    info["steady_jit_events"] = std::to_string(sum.jit_events);
    std::map<std::string, std::vector<double>> by_shape;
    uint64_t runs = 0, fallbacks = 0;
    for (const QueryRecord& r : w.records) {
      by_shape[ShapeName(r.shape)].push_back(r.latency_ms);
      runs += r.injection_runs;
      fallbacks += r.injection_fallbacks;
    }
    for (const auto& [name, lat] : by_shape) {
      info["steady_p50_ms." + name] = std::to_string(Median(lat));
    }
    info["steady_injection_runs"] = std::to_string(runs);
    info["steady_injection_fallbacks"] = std::to_string(fallbacks);
  } else {
    // Untraced and traced halves of the steady window, back to back: the
    // p50 difference is the tracing overhead.
    const double half = std::max(1.0, 0.2 * args.seconds);
    spans.set_enabled(false);
    const int64_t u0 = spans.Now();
    const Window untraced = Steady(client, half, kTracedSamples);
    spans.set_enabled(true);
    spans.Add("steady_untraced", u0, spans.Now());
    Window traced;
    {
      ScopedSpan s(spans, "steady_traced");
      traced = Steady(client, half, kTracedSamples);
    }
    const Summary su = Summarize(untraced);
    const Summary st = Summarize(traced);
    attempted += untraced.records.size() + traced.records.size();
    failed += su.failed + st.failed;
    info["latency_samples"] = std::to_string(st.samples);

    std::vector<double> submit, queue, exec, morsels, inj, chunks, spill_mb,
        spill_runs;
    uint64_t compiled = 0, reused = 0, runs = 0, fallbacks = 0, peak = 0;
    bool declined = false;
    for (const QueryRecord& r : traced.records) {
      if (!r.ok) continue;
      submit.push_back(r.submit_us);
      queue.push_back(r.latency_ms - r.submit_us / 1e3 - r.exec_ms);
      exec.push_back(r.exec_ms);
      morsels.push_back(static_cast<double>(r.morsels));
      inj.push_back(static_cast<double>(r.injection_runs));
      chunks.push_back(static_cast<double>(r.chunks_streamed));
      spill_mb.push_back(r.bytes_spilled / 1048576.0);
      spill_runs.push_back(static_cast<double>(r.spill_runs));
      compiled += r.traces_compiled;
      reused += r.traces_reused;
      runs += r.injection_runs;
      fallbacks += r.injection_fallbacks;
      peak = std::max(peak, r.peak_tracked_bytes);
    }
    for (const QueryRecord& r : all) declined = declined || r.jit_declined;
    double first_compile_ms = 0;
    uint64_t first_traces = 0, first_checked = 0;
    for (const QueryRecord& r : first) {
      first_compile_ms += r.compile_ms;
      first_traces += r.traces_compiled;
      first_checked += r.verifier_checked;
    }
    metrics["engine.session.submit_us"] = Median(submit);
    metrics["engine.session.queue_ms"] = Median(queue);
    metrics["engine.session.exec_ms"] = Median(exec);
    metrics["engine.session.morsels"] = Median(morsels);
    metrics["jit.injection_runs"] = Median(inj);
    metrics["jit.fallback_ratio"] =
        runs > 0 ? static_cast<double>(fallbacks) / runs : 0;
    metrics["jit.cache_hit_ratio"] =
        reused + compiled > 0 ? static_cast<double>(reused) / (reused + compiled)
                              : 0;
    metrics["jit.declined"] = declined ? 1 : 0;
    metrics["jit.warmup_queries"] = static_cast<double>(warmup);
    metrics["jit.compile_ms"] = first_compile_ms;
    metrics["jit.traces_compiled"] = static_cast<double>(first_traces);
    metrics["analysis.verifier_checked"] = static_cast<double>(first_checked);
    metrics["engine.memory_tracker.peak_mb"] = peak / 1048576.0;
    metrics["storage.spill_mb"] = Median(spill_mb);
    metrics["storage.spill_runs"] = Median(spill_runs);
    metrics["storage.chunks_streamed"] = Median(chunks);
    metrics["trace.overhead_pct"] =
        su.p50 > 0 ? (st.p50 - su.p50) / su.p50 * 100 : 0;

    LadderInput li;
    li.spec = spec;
    li.seed = args.seed;
    li.inputs = &inputs;
    li.oracle = &oracle;
    li.steady = &traced.records;
    li.budget_s = std::max(2.0, 0.5 * args.seconds);
    li.spans = &spans;
    for (const auto& [k, v] : RunLadder(li)) metrics[k] = v;
    if (metrics.count("ladder.failed") > 0) {
      failed += static_cast<size_t>(metrics["ladder.failed"]);
      metrics.erase("ladder.failed");
    }
  }

  // Leave no compiler process (and so no compiler scratch file) behind.
  if (!WaitForQuiescence(60)) {
    std::fprintf(stderr, "compiler processes still running at exit\n");
    ++failed;
  }
  if (args.trace && !args.spans_path.empty() &&
      !spans.WriteJson(args.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
  }
  PrintJson(failed == 0, attempted, failed, metrics, info);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

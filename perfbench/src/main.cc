// perfbench: the repository's end-to-end benchmark of the MT(k) stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--break WHAT]
//
// One process runs one workload: it sets the stack up several times (the
// median is setup_s), warms up, then measures a closed loop of at most 4
// workers. --trace 0 reports the end-to-end metrics from an untraced run;
// --trace 1 runs an untraced and a traced half and reports the per-layer
// metrics of the traced half. Every run then checks the engine's outputs
// against the load generator's own record (and, with a WAL, crashes and
// recovers the log) and runs a Theorem 2 audit pass. A violation prints
// the reason to stderr and exits 1. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// --break corrupts one oracle input (see checks.h) to show that the
// checks catch it; such a run must exit 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/mtk_scheduler.h"
#include "loadgen.h"
#include "workload.h"

namespace perfbench {
namespace {

using mdts::TxnId;

constexpr int kSetupRepeats = 15;
constexpr double kWarmupSeconds = 1.0;
constexpr uint64_t kTailTxns = 64;        // Per worker, after the barrier.
constexpr double kReferenceSeconds = 0.5;  // Each single-thread reference.
constexpr uint8_t kMainLane = 255;  // Span lane of the run-end calls.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/out";
  Break brk = Break::kNone;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--break WHAT]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stoi(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else if (flag == "--break") {
        if (!ParseBreak(v, &a.brk)) Usage("unknown --break " + v);
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (a.seconds < 1 || a.seconds > 3600) Usage("--seconds must be 1..3600");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Us(double ns) { return ns * 1e-3; }
double Div(double a, double b) { return b == 0 ? 0 : a / b; }

void SleepUntil(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

/// Medians over the windows of one timed phase.
struct WindowStats {
  double goodput = 0;  ///< txn/s
  double mean = 0;     ///< Commit latency mean and quantiles, us.
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;
};

/// Runs a timed phase: `warmup` seconds at window -1, then `windows`
/// windows of `window_s` seconds each, and takes each statistic's median
/// over the windows, so a burst of host noise moves at most a window.
WindowStats RunTimed(LoadGen& d, Phase ph, double warmup, double window_s) {
  d.Start(ph);
  SleepUntil(NowNs() + static_cast<int64_t>(warmup * 1e9));
  std::vector<double> secs;
  const int64_t t0 = NowNs();
  int64_t start = t0;
  for (int w = 0; w < ph.windows; ++w) {
    d.window().store(w, std::memory_order_relaxed);
    SleepUntil(t0 + static_cast<int64_t>((w + 1) * window_s * 1e9));
    const int64_t end = NowNs();
    secs.push_back(static_cast<double>(end - start) * 1e-9);
    start = end;
  }
  d.window().store(ph.windows, std::memory_order_relaxed);
  d.Wait();
  const std::vector<uint64_t> commits = d.WindowCommits();
  std::vector<double> goodput, mean, p50, p90, p99, p999;
  for (int w = 0; w < ph.windows; ++w) {
    goodput.push_back(static_cast<double>(commits[w]) / secs[w]);
    const LatencyHistogram lat = d.WindowLatencies(w);
    mean.push_back(Us(lat.Mean()));
    p50.push_back(Us(lat.Quantile(0.50)));
    p90.push_back(Us(lat.Quantile(0.90)));
    p99.push_back(Us(lat.Quantile(0.99)));
    p999.push_back(Us(lat.Quantile(0.999)));
  }
  return {Median(goodput), Median(mean), Median(p50), Median(p90),
          Median(p99),     Median(p999)};
}

/// Single-thread serial history over one worker's programs (each program
/// replayed until it commits): transactions per second and aborts per
/// commit. Runs the scheduler or a one-shard engine alike.
template <typename Scheduler>
std::pair<double, double> SerialReference(Scheduler& s,
                                          const std::vector<Program>& pool,
                                          double secs) {
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(secs * 1e9);
  uint64_t commits = 0;
  uint64_t aborts = 0;
  int64_t now = t0;
  for (; now < deadline || commits == 0; ++commits) {
    const Program& p = pool[commits % pool.size()];
    const TxnId txn = static_cast<TxnId>(commits + 1);
    for (size_t q = 0; q < kOpsPerTxn;) {
      mdts::Op op;
      op.txn = txn;
      op.item = p.item[q];
      op.type = p.IsWrite(q) ? mdts::OpType::kWrite : mdts::OpType::kRead;
      if (s.Process(op) == mdts::OpDecision::kReject) {
        s.RestartTxn(txn);
        ++aborts;
        q = 0;
      } else {
        ++q;
      }
    }
    s.CommitTxn(txn);
    if ((commits & 63) == 0) now = NowNs();
  }
  const double elapsed = static_cast<double>(NowNs() - t0) * 1e-9;
  return {static_cast<double>(commits) / elapsed,
          static_cast<double>(aborts) / static_cast<double>(commits)};
}

struct Snap {
  mdts::EngineStats st;
  mdts::WalStats wal;
  Counts lg;
  int64_t t = 0;
};

Snap TakeSnap(const Stack& s, const LoadGen& d) {
  Snap out;
  out.st = s.engine->stats();
  if (s.wal != nullptr) out.wal = s.wal->stats();
  out.lg = d.Totals();
  out.t = NowNs();
  return out;
}

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

void WriteSpans(const std::string& path, const TraceAgg& agg,
                const std::vector<SpanRecord>& extra, int64_t base) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto put = [&](const SpanRecord& r) {
    out << (first ? "\n" : ",\n") << "{\"name\":\""
        << SpanName(static_cast<SpanKind>(r.kind))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << int{r.worker}
        << ",\"ts\":" << static_cast<double>(r.start_ns - base) * 1e-3
        << ",\"dur\":" << static_cast<double>(r.dur_ns) * 1e-3
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent << "}}";
    first = false;
  };
  for (const SpanRecord& r : agg.spans) put(r);
  for (const SpanRecord& r : extra) put(r);
  out << "\n]}\n";
}

/// The per-layer metrics of a --trace 1 run: span self times and call
/// latencies of the traced half, counter deltas across it,
/// one CompactAll timed from outside, the single-thread references over
/// `pool`, and the WAL recovery `rec`. Appends the run-end spans to
/// `spans` and a message to `errors` if the span shares do not add up.
void PerLayerMetrics(const Workload& wl, Stack& stack, const TraceAgg& tr,
                     const Snap& before_b, const Snap& after_b,
                     const WindowStats& e2e, double traced_goodput,
                     const RecoverySummary& rec,
                     const std::vector<Program>& pool,
                     std::vector<Metric>* metrics,
                     std::vector<SpanRecord>* spans,
                     std::vector<std::string>* errors) {
  auto put = [&](const std::string& name, double v, const char* unit) {
    metrics->push_back({name, v, unit});
  };
  const Counts lg = after_b.lg.Minus(before_b.lg);
  const mdts::EngineStats& s1 = after_b.st;
  const mdts::EngineStats& s0 = before_b.st;
  const double secs = static_cast<double>(after_b.t - before_b.t) * 1e-9;
  const double ops = static_cast<double>(lg.ops);
  const double commits = static_cast<double>(lg.commits);
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  auto pct_us = [&](SpanKind k, double q) {
    return Us(tr.call_ns[k].Quantile(q));
  };
  const double total = static_cast<double>(tr.txn_ns);
  const double decide =
      tr.self_ns[kSpanProcess] + tr.self_ns[kSpanBatch];
  const double harness =
      tr.self_ns[kSpanAttempt] + tr.self_ns[kSpanTxn];
  const double shares_sum =
      Div(decide + tr.self_ns[kSpanCommit] + tr.self_ns[kSpanRestart] +
              harness,
          total);
  if (tr.txns == 0 || std::abs(shares_sum - 1.0) > 1e-9) {
    errors->push_back("span self-time shares add up to " +
                     std::to_string(shares_sum) + ", not 1");
  }
  // The shares add up by construction; these two checks tie them to clock
  // reads the span bookkeeping does not use. The txn spans (with those of
  // given-up transactions) must cover the workers' wall time, and the
  // engine-call self times must equal the calls' own recorded durations.
  const double spanned = static_cast<double>(tr.txn_ns + tr.failed_ns);
  const double wall = static_cast<double>(tr.wall_ns);
  if (std::abs(spanned - wall) > 1e-3 * wall) {
    errors->push_back("txn spans cover " + std::to_string(spanned * 1e-9) +
                      " s of " + std::to_string(wall * 1e-9) +
                      " s worker wall time");
  }
  uint64_t calls = 0;
  for (SpanKind k : {kSpanProcess, kSpanBatch, kSpanCommit, kSpanRestart}) {
    calls += tr.call_ns[k].sum();
  }
  const int64_t charged = static_cast<int64_t>(
      decide + tr.self_ns[kSpanCommit] + tr.self_ns[kSpanRestart]);
  if (charged + tr.failed_calls_ns != static_cast<int64_t>(calls)) {
    errors->push_back("engine-call spans charge " +
                      std::to_string(charged + tr.failed_calls_ns) +
                      " ns, the calls took " + std::to_string(calls) + " ns");
  }
  put("engine.process_us.p50", pct_us(kSpanProcess, 0.50), "us");
  put("engine.process_us.p99", pct_us(kSpanProcess, 0.99), "us");
  put("engine.commit_us.p50", pct_us(kSpanCommit, 0.50), "us");
  put("engine.commit_us.p99", pct_us(kSpanCommit, 0.99), "us");
  put("engine.restart_us.p50", pct_us(kSpanRestart, 0.50), "us");
  put("engine.decide_share", Div(decide, total), "ratio");
  put("engine.commit_share", Div(tr.self_ns[kSpanCommit], total), "ratio");
  put("engine.restart_share", Div(tr.self_ns[kSpanRestart], total),
      "ratio");
  put("harness.self_share", Div(harness, total), "ratio");
  put("engine.cross_shard_frac",
      Div(d(s1.cross_shard_ops, s0.cross_shard_ops),
          d(s1.cross_shard_ops, s0.cross_shard_ops) +
              d(s1.single_shard_ops, s0.single_shard_ops)),
      "ratio");
  put("engine.lock_retries_per_op",
      Div(d(s1.lock_retries, s0.lock_retries), ops), "ratio");
  put("engine.lock_contention_per_op",
      Div(d(s1.lock_contention, s0.lock_contention), ops), "ratio");
  put("engine.full_lock_fallbacks",
      d(s1.full_lock_fallbacks, s0.full_lock_fallbacks), "count");
  put("engine.batch_us.p50", pct_us(kSpanBatch, 0.50), "us");
  put("engine.batch_us.p99", pct_us(kSpanBatch, 0.99), "us");
  put("engine.mean_batch",
      Div(d(s1.batch_ops, s0.batch_ops), d(s1.batches, s0.batches)),
      "ops");
  put("engine.batch_fallbacks", d(s1.batch_fallbacks, s0.batch_fallbacks),
      "count");
  put("engine.compactions_per_s",
      Div(d(s1.compactions, s0.compactions), secs), "1/s");
  put("engine.txn_states",
      static_cast<double>(stack.engine->allocated_txn_states()), "count");
  const int64_t c0 = NowNs();
  stack.engine->CompactAll();
  const int64_t c1 = NowNs();
  spans->push_back({1, 0, c0, c1 - c0, kSpanCompactSweep, kMainLane});
  put("engine.compact_sweep_ms", static_cast<double>(c1 - c0) * 1e-6, "ms");
  put("engine.commit_yield",
      Div(commits, commits + static_cast<double>(lg.restarts + lg.failed)),
      "ratio");
  put("engine.ops_per_commit", Div(ops, commits), "ops");
  for (mdts::AbortReason r :
       {mdts::AbortReason::kLexOrder, mdts::AbortReason::kEncodingExhausted,
        mdts::AbortReason::kVersionConflict,
        mdts::AbortReason::kBatchThrottled}) {
    put(std::string("engine.rejects_per_commit.") + AbortReasonName(r),
        Div(static_cast<double>(lg.rejects[static_cast<size_t>(r)]),
            commits),
        "ratio");
  }
  put("core.comparisons_per_op",
      Div(d(s1.element_comparisons, s0.element_comparisons), ops), "ratio");
  put("core.elements_assigned_per_op",
      Div(d(s1.elements_assigned, s0.elements_assigned), ops), "ratio");
  put("core.set_calls_per_op", Div(d(s1.set_calls, s0.set_calls), ops),
      "ratio");
  {
    mdts::MtkOptions mo;
    mo.k = kVectorK;
    mo.starvation_fix = true;
    mo.compact_every = wl.compact_every;
    mdts::MtkScheduler sched(mo);
    const auto [sched_txn_s, sched_aborts] =
        SerialReference(sched, pool, kReferenceSeconds);
    mdts::EngineOptions eo;
    eo.k = kVectorK;
    eo.num_shards = 1;
    eo.starvation_fix = true;
    eo.compact_every = wl.compact_every;
    mdts::ShardedMtkEngine one(eo);
    const double one_txn_s =
        SerialReference(one, pool, kReferenceSeconds).first;
    put("core.mtk_scheduler_txn_s", sched_txn_s, "txn/s");
    put("core.mtk_scheduler_aborts_per_commit", sched_aborts, "ratio");
    put("engine.one_shard_txn_s", one_txn_s, "txn/s");
    put("engine.one_shard_vs_scheduler", Div(one_txn_s, sched_txn_s),
        "ratio");
  }
  put("mvcc.versions_per_commit",
      Div(d(s1.versions_installed, s0.versions_installed), commits),
      "ratio");
  put("mvcc.gc_per_commit", Div(d(s1.versions_gc, s0.versions_gc), commits),
      "ratio");
  put("mvcc.live_versions", static_cast<double>(s1.live_versions), "count");
  put("mvcc.old_version_read_frac",
      Div(d(s1.old_version_reads, s0.old_version_reads),
          static_cast<double>(lg.accepted_reads)),
      "ratio");
  const mdts::WalStats& w1 = after_b.wal;
  const mdts::WalStats& w0 = before_b.wal;
  put("wal.bytes_per_commit", Div(d(w1.bytes, w0.bytes), commits), "B");
  put("wal.records_per_fsync",
      Div(d(w1.appends, w0.appends), d(w1.fsyncs, w0.fsyncs)), "ratio");
  put("wal.fsyncs_per_s", Div(d(w1.fsyncs, w0.fsyncs), secs), "1/s");
  if (stack.wal != nullptr) {
    // Recovery ran after the traced half.
    const int64_t recover_ns = static_cast<int64_t>(rec.recover_s * 1e9);
    spans->push_back(
        {2, 0, rec.start_ns, recover_ns, kSpanRecover, kMainLane});
    spans->push_back({3, 0, rec.start_ns + recover_ns,
                      static_cast<int64_t>(rec.recover_from_s * 1e9),
                      kSpanRecoverFrom, kMainLane});
  }
  put("wal.recover_s", rec.recover_s, "s");
  put("engine.recover_from_s", rec.recover_from_s, "s");
  put("wal.recovery_rec_s",
      Div(static_cast<double>(rec.records),
          rec.recover_s + rec.recover_from_s),
      "rec/s");
  put("trace.goodput_ratio", Div(traced_goodput, e2e.goodput), "ratio");
  // Unsteady on a shared host (README.md), so reported without a bound.
  put("commit_p50_us", e2e.p50, "us");
  put("commit_p90_us", e2e.p90, "us");
  put("commit_p99_us", e2e.p99, "us");
  put("commit_p999_us", e2e.p999, "us");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* wp = FindWorkload(args.workload);
  if (wp == nullptr) Usage("unknown workload " + args.workload);
  const Workload& wl = *wp;
  if ((args.brk == Break::kDropRecord && !wl.wal) ||
      (args.brk == Break::kFlipOrder && wl.multiversion)) {
    Usage("that --break does not apply to " + wl.name);
  }
  // Half the hardware threads, at most 4. On a shared 4-thread VM, 4
  // closed-loop workers leave no thread for the host, and the commit
  // latency percentiles then flip between a fair and an unfair shard-lock
  // regime every few seconds (README.md, "Host caveats").
  const size_t workers = std::clamp<size_t>(
      std::thread::hardware_concurrency() / 2, 1, 4);
  const std::string run_dir =
      args.out_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(run_dir);

  // Set-up: programs, registry, flight recorder, WAL, engine.
  std::vector<double> setup_times;
  std::vector<std::vector<Program>> pools;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    pools.clear();
    const int64_t t0 = NowNs();
    pools = GeneratePrograms(wl, args.seed, workers);
    stack = BuildStack(wl, workers, run_dir + "/wal", wl.compact_every);
    setup_times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  WorkerPool pool(workers);
  LoadGen gen(wl, *stack, pools, pool);
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  auto put = [&](const std::string& name, double v, const char* unit) {
    metrics.push_back({name, v, unit});
  };

  // --trace 0 measures all of --seconds untraced; --trace 1 measures the
  // first half untraced and the second half traced.
  const bool traced = args.trace == 1;
  const double measured = traced ? args.seconds / 2.0 : args.seconds;
  const int windows = std::max(static_cast<int>(measured), 4);
  Phase ph;
  ph.windows = windows;
  const WindowStats e2e =
      RunTimed(gen, ph, kWarmupSeconds, measured / windows);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  if (!traced) {
    put("goodput_txn_s", e2e.goodput, "txn/s");
    put("commit_mean_us", e2e.mean, "us");
    put("rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    put("setup_s", Median(setup_times), "s");
    std::printf("commit_p50_us %.6g us, commit_p90_us %.6g us, "
                "commit_p99_us %.6g us, commit_p999_us %.6g us (no bound: "
                "unsteady on a shared host)\n",
                e2e.p50, e2e.p90, e2e.p99, e2e.p999);
  }
  Snap before_b;
  Snap after_b;
  double traced_goodput = 0;
  if (traced) {
    ph.traced = true;
    before_b = TakeSnap(*stack, gen);
    traced_goodput = RunTimed(gen, ph, 0.0, measured / windows).goodput;
    after_b = TakeSnap(*stack, gen);
  }

  // WAL ending: barrier, unsynced tail, crash, recovery. Counters are
  // reconciled first, while the WAL still counts every append.
  RecoverySummary rec;
  if (wl.wal) {
    stack->wal->SyncAll();
    const CommitLog barrier = gen.Commits();
    Phase tail;
    tail.max_txns = kTailTxns;
    gen.Start(tail);
    gen.Wait();
    CheckCounters(wl, *stack, gen.Totals(), args.brk, &errors);
    rec = CrashAndRecover(gen, *stack, barrier, gen.Commits(), args.brk,
                          &errors);
  } else {
    CheckCounters(wl, *stack, gen.Totals(), args.brk, &errors);
  }
  Counts all = gen.Totals();

  std::vector<SpanRecord> run_end_spans;
  const TraceAgg trace = traced ? gen.Trace() : TraceAgg();
  if (traced) {
    PerLayerMetrics(wl, *stack, trace, before_b, after_b, e2e, traced_goodput,
                    rec, pools[0], &metrics, &run_end_spans, &errors);
  }

  // Theorem 2 audit pass on a fresh stack with compaction deferred.
  AuditSummary audit;
  {
    auto astack = BuildStack(wl, workers, run_dir + "/audit-wal", 0);
    LoadGen audit_gen(wl, *astack, pools, pool);
    Phase ph;
    ph.max_txns = wl.audit_txns / workers;
    ph.audit = true;
    audit_gen.Start(ph);
    audit_gen.Wait();
    CheckCounters(wl, *astack, audit_gen.Totals(), Break::kNone, &errors);
    audit = AuditTheorem2(wl, audit_gen, *astack->engine, args.brk, &errors);
    all.Add(audit_gen.Totals());
  }

  if (traced) {
    const std::string path = args.out_dir + "/spans-" + wl.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    WriteSpans(path, trace, run_end_spans, before_b.t);
    std::printf("spans: %s\n", path.c_str());
  }
  std::filesystem::remove_all(run_dir);

  std::printf("workload %s seed %llu: %zu workers, %llu txns attempted, "
              "%llu failed, max %u attempts\n",
              wl.name.c_str(), static_cast<unsigned long long>(args.seed),
              workers, static_cast<unsigned long long>(all.started),
              static_cast<unsigned long long>(all.failed), all.max_attempts);
  std::printf("theorem 2 audit: %llu txns, %llu conflicting pairs, %llu "
              "wall-ordered\n",
              static_cast<unsigned long long>(audit.txns),
              static_cast<unsigned long long>(audit.pairs),
              static_cast<unsigned long long>(audit.wall_pairs));
  if (wl.wal) {
    std::printf("recovery: %llu records, recover %.4f s, recover_from %.4f s\n",
                static_cast<unsigned long long>(rec.records), rec.recover_s,
                rec.recover_from_s);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-42s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(all.started),
              static_cast<unsigned long long>(all.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

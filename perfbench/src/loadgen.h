// Closed-loop load generator: persistent worker threads, each a client
// that keeps `slots` transactions in flight, replays a rejected program
// from its first operation until it commits (or hits kRetryCap), and
// keeps its own record of what it submitted and what the engine answered.
// Traced phases also time every call into the engine and build the span
// tree txn > attempt > {process | batch, restart, commit}.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/abort_reason.h"
#include "workload.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Attempts after which a transaction is given up and counted as failed.
inline constexpr uint32_t kRetryCap = 10000;

/// Runs one job on every thread of a fixed set. The threads live as long
/// as the pool, so the library's per-thread slots (counter shards, WAL
/// stream choice) stay those of the first phase for the whole process.
class WorkerPool {
 public:
  explicit WorkerPool(size_t n);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Starts job(t) on thread t for every t; returns at once.
  void Start(std::function<void(size_t)> job);
  /// Blocks until every thread has finished the started job.
  void Wait();
  size_t size() const { return threads_.size(); }

 private:
  void Loop(size_t t);

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void(size_t)> job_;
  uint64_t generation_ = 0;
  size_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Latency histogram with 256 linear sub-buckets per power of two, so a
/// quantile is within 0.4% of the samples' own and memory stays fixed
/// however long a run is.
class LatencyHistogram {
 public:
  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
    sum_ += ns;
  }
  void Merge(const LatencyHistogram& o);
  uint64_t count() const { return total_; }
  /// Exact sum of the recorded values, in nanoseconds.
  uint64_t sum() const { return sum_; }
  /// Exact mean in nanoseconds; 0 when empty.
  double Mean() const {
    return total_ == 0 ? 0
                       : static_cast<double>(sum_) / static_cast<double>(total_);
  }
  /// Ceiling-rank quantile in nanoseconds, interpolated inside its bucket;
  /// 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr size_t kSub = 256;
  static constexpr unsigned kMaxBits = 40;  // Larger values clamp.
  static constexpr size_t kBuckets = 2 * kSub + (kMaxBits - 9) * kSub;
  static size_t Index(uint64_t v);

  std::vector<uint32_t> counts_ = std::vector<uint32_t>(kBuckets, 0);
  uint64_t total_ = 0;
  uint64_t sum_ = 0;
};

/// What the load generator counted, summed over workers.
struct Counts {
  uint64_t started = 0;
  uint64_t commits = 0;
  uint64_t failed = 0;
  uint64_t restarts = 0;
  uint64_t ops = 0;  ///< Operations submitted.
  uint64_t accepted = 0;
  uint64_t accepted_reads = 0;
  uint64_t ignored = 0;
  uint64_t writing_commits = 0;  ///< Commits with a non-empty write set.
  uint64_t rejects[mdts::kNumAbortReasons] = {};
  uint32_t max_attempts = 0;

  uint64_t rejected() const;
  void Add(const Counts& o);
  Counts Minus(const Counts& o) const;
};

/// An accepted operation of a committed incarnation, with the wall-clock
/// interval of the engine call that accepted it.
struct AuditOp {
  mdts::TxnId txn = 0;
  mdts::ItemId item = 0;
  bool write = false;
  int64_t t0 = 0;
  int64_t t1 = 0;
};

enum SpanKind : uint8_t {
  kSpanTxn,
  kSpanAttempt,
  kSpanProcess,
  kSpanBatch,
  kSpanCommit,
  kSpanRestart,
  kSpanCompactSweep,
  kSpanRecover,
  kSpanRecoverFrom,
  kNumSpanKinds,
};
const char* SpanName(SpanKind kind);

/// One span. `dur_ns` is the worker time charged to it: the call's wall
/// time, except that a ProcessBatch call shared by n transactions charges
/// each of their `batch` spans 1/n of it, and the harness time of a round
/// is charged to the attempts in it the same way. Charges therefore
/// partition worker time, and self times add up to the txn total.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint8_t kind = 0;
  uint8_t worker = 0;
};

/// Per-worker trace aggregates over committed transactions.
struct TraceAgg {
  int64_t self_ns[kNumSpanKinds] = {};
  int64_t txn_ns = 0;
  uint64_t txns = 0;
  /// Of given-up transactions: their txn time, and the part of it charged
  /// to engine calls.
  int64_t failed_ns = 0;
  int64_t failed_calls_ns = 0;
  /// Worker wall time of the traced phase, read at the worker's entry and
  /// exit apart from the span bookkeeping. The spans must account for it.
  int64_t wall_ns = 0;
  /// Wall time of each engine call, per kind (process, batch, commit,
  /// restart).
  LatencyHistogram call_ns[kNumSpanKinds];
  std::vector<SpanRecord> spans;  ///< The first kMaxSpansPerWorker.
  void Add(const TraceAgg& o);
};
inline constexpr size_t kMaxSpansPerWorker = 20000;

/// One phase of load. A timed phase runs until the control window reaches
/// `windows`; a counted phase starts `max_txns` transactions per worker.
/// Either way every started transaction is driven to its end.
struct Phase {
  int windows = 0;
  uint64_t max_txns = 0;
  bool traced = false;
  bool audit = false;  ///< Record AuditOps of committed incarnations.
};

/// Which transactions a load generator committed: worker t started the ids
/// TxnIdOf(t, n) for n < started[t], and every one of them but the failed
/// ones committed (phases drive each started transaction to its end).
struct CommitLog {
  std::vector<uint64_t> started;
  std::vector<mdts::TxnId> failed;  ///< Sorted.

  bool Committed(mdts::TxnId txn) const;
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t t = 0; t < started.size(); ++t) {
      for (uint64_t n = 0; n < started[t]; ++n) {
        const mdts::TxnId txn = TxnIdOf(t, n, started.size());
        if (Committed(txn)) fn(txn);
      }
    }
  }
};

class LoadGen {
 public:
  LoadGen(const Workload& w, Stack& stack,
         const std::vector<std::vector<Program>>& pools, WorkerPool& pool);

  /// Starts `phase` on the pool; returns at once. For a timed phase the
  /// caller advances window() from -1 (warm-up) through phase.windows.
  void Start(const Phase& phase);
  void Wait() { pool_.Wait(); }
  std::atomic<int>& window() { return window_; }

  /// Cumulative counts over every phase run on this generator's engine.
  Counts Totals() const;
  /// Commits and commit latencies per window, of the last timed phase.
  std::vector<uint64_t> WindowCommits() const;
  LatencyHistogram WindowLatencies(int window) const;
  /// Trace aggregates of the last traced phase.
  TraceAgg Trace() const;
  /// Audit records of every audited phase.
  std::vector<AuditOp> AuditOps() const;
  CommitLog Commits() const;

  const Program& ProgramOf(mdts::TxnId txn) const;
  size_t workers() const { return pool_.size(); }

 private:
  struct SlotTrace {
    uint64_t txn_id = 0;
    uint64_t attempt_id = 0;
    int64_t txn_start = 0;
    int64_t attempt_start = 0;
    int64_t txn_dur = 0;
    int64_t attempt_dur = 0;
    int64_t attempt_children = 0;
    int64_t self[kNumSpanKinds] = {};
  };
  enum class Close : uint8_t { kNone, kCommit, kRestart, kFail };
  struct Slot {
    bool active = false;
    mdts::TxnId txn = 0;
    const Program* prog = nullptr;
    uint32_t next_op = 0;
    uint32_t attempts = 0;
    int64_t start_ns = 0;
    Close close = Close::kNone;
    std::vector<AuditOp> audit_pending;
    SlotTrace tr;
  };
  struct alignas(64) WorkerState {
    uint64_t next_seq = 0;
    uint64_t next_span = 1;
    Counts counts;
    std::vector<Slot> slots;
    std::vector<uint64_t> win_commits;
    std::vector<LatencyHistogram> win_lat;
    TraceAgg trace;
    std::vector<AuditOp> audit;
    std::vector<mdts::TxnId> failed;
  };

  void RunWorker(size_t t, const Phase& phase);
  void Emit(WorkerState& ws, size_t t, SpanKind kind, uint64_t id,
            uint64_t parent, int64_t start, int64_t dur);

  Stack& stack_;
  const std::vector<std::vector<Program>>& pools_;
  WorkerPool& pool_;
  std::atomic<int> window_{-1};
  std::vector<WorkerState> ws_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

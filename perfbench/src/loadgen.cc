#include "loadgen.h"

#include <algorithm>
#include <bit>
#include <span>

namespace perfbench {

using mdts::AbortReason;
using mdts::Op;
using mdts::OpDecision;
using mdts::OpType;

WorkerPool::WorkerPool(size_t n) {
  for (size_t t = 0; t < n; ++t) threads_.emplace_back([this, t] { Loop(t); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& th : threads_) th.join();
}

void WorkerPool::Start(std::function<void(size_t)> job) {
  std::lock_guard<std::mutex> g(mu_);
  job_ = std::move(job);
  running_ = threads_.size();
  ++generation_;
  cv_.notify_all();
}

void WorkerPool::Wait() {
  std::unique_lock<std::mutex> g(mu_);
  cv_.wait(g, [this] { return running_ == 0; });
}

void WorkerPool::Loop(size_t t) {
  uint64_t seen = 0;
  for (;;) {
    std::function<void(size_t)> job;
    {
      std::unique_lock<std::mutex> g(mu_);
      cv_.wait(g, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    job(t);
    {
      std::lock_guard<std::mutex> g(mu_);
      --running_;
    }
    cv_.notify_all();
  }
}

size_t LatencyHistogram::Index(uint64_t v) {
  if (v < 2 * kSub) return static_cast<size_t>(v);
  unsigned bits = static_cast<unsigned>(std::bit_width(v));
  if (bits > kMaxBits) {
    bits = kMaxBits;
    v = (uint64_t{1} << kMaxBits) - 1;
  }
  const unsigned shift = bits - 9;
  return 2 * kSub + (bits - 10) * kSub + ((v >> shift) - kSub);
}

void LatencyHistogram::Merge(const LatencyHistogram& o) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
  sum_ += o.sum_;
}

double LatencyHistogram::Quantile(double q) const {
  if (total_ == 0) return 0;
  const double exact = q * static_cast<double>(total_);
  uint64_t rank = static_cast<uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  rank = std::clamp<uint64_t>(rank, 1, total_);
  uint64_t cum = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (cum + counts_[i] < rank) {
      cum += counts_[i];
      continue;
    }
    double lower = static_cast<double>(i);
    double width = 1;
    if (i >= 2 * kSub) {
      const size_t shift = (i - 2 * kSub) / kSub + 1;
      const size_t sub = (i - 2 * kSub) % kSub + kSub;
      lower = static_cast<double>(uint64_t{sub} << shift);
      width = static_cast<double>(uint64_t{1} << shift);
    }
    return lower + width * (static_cast<double>(rank - cum) - 0.5) /
                       static_cast<double>(counts_[i]);
  }
  return 0;
}

bool CommitLog::Committed(mdts::TxnId txn) const {
  const size_t t = WorkerOf(txn, started.size());
  return SeqOf(txn, started.size()) < started[t] &&
         !std::binary_search(failed.begin(), failed.end(), txn);
}

uint64_t Counts::rejected() const {
  uint64_t n = 0;
  for (uint64_t r : rejects) n += r;
  return n;
}

void Counts::Add(const Counts& o) {
  started += o.started;
  commits += o.commits;
  failed += o.failed;
  restarts += o.restarts;
  ops += o.ops;
  accepted += o.accepted;
  accepted_reads += o.accepted_reads;
  ignored += o.ignored;
  writing_commits += o.writing_commits;
  for (size_t r = 0; r < mdts::kNumAbortReasons; ++r) rejects[r] += o.rejects[r];
  max_attempts = std::max(max_attempts, o.max_attempts);
}

Counts Counts::Minus(const Counts& o) const {
  Counts d = *this;
  d.started -= o.started;
  d.commits -= o.commits;
  d.failed -= o.failed;
  d.restarts -= o.restarts;
  d.ops -= o.ops;
  d.accepted -= o.accepted;
  d.accepted_reads -= o.accepted_reads;
  d.ignored -= o.ignored;
  d.writing_commits -= o.writing_commits;
  for (size_t r = 0; r < mdts::kNumAbortReasons; ++r) {
    d.rejects[r] -= o.rejects[r];
  }
  return d;
}

const char* SpanName(SpanKind kind) {
  static constexpr const char* kNames[kNumSpanKinds] = {
      "txn",     "attempt",       "process", "batch",       "commit",
      "restart", "compact_sweep", "recover", "recover_from"};
  return kNames[kind];
}

void TraceAgg::Add(const TraceAgg& o) {
  for (size_t k = 0; k < kNumSpanKinds; ++k) {
    self_ns[k] += o.self_ns[k];
    call_ns[k].Merge(o.call_ns[k]);
  }
  txn_ns += o.txn_ns;
  txns += o.txns;
  failed_ns += o.failed_ns;
  failed_calls_ns += o.failed_calls_ns;
  wall_ns += o.wall_ns;
  spans.insert(spans.end(), o.spans.begin(), o.spans.end());
}

LoadGen::LoadGen(const Workload& w, Stack& stack,
               const std::vector<std::vector<Program>>& pools,
               WorkerPool& pool)
    : stack_(stack), pools_(pools), pool_(pool), ws_(pool.size()) {
  for (WorkerState& ws : ws_) ws.slots.resize(w.slots);
}

void LoadGen::Start(const Phase& phase) {
  window_.store(-1, std::memory_order_relaxed);
  for (WorkerState& ws : ws_) {
    ws.win_commits.assign(static_cast<size_t>(phase.windows), 0);
    ws.win_lat.assign(static_cast<size_t>(phase.windows), {});
    if (phase.traced) ws.trace = TraceAgg();
  }
  pool_.Start([this, phase](size_t t) { RunWorker(t, phase); });
}

Counts LoadGen::Totals() const {
  Counts c;
  for (const WorkerState& ws : ws_) c.Add(ws.counts);
  return c;
}

std::vector<uint64_t> LoadGen::WindowCommits() const {
  std::vector<uint64_t> out(ws_[0].win_commits.size(), 0);
  for (const WorkerState& ws : ws_) {
    for (size_t i = 0; i < out.size(); ++i) out[i] += ws.win_commits[i];
  }
  return out;
}

LatencyHistogram LoadGen::WindowLatencies(int window) const {
  LatencyHistogram out;
  for (const WorkerState& ws : ws_) {
    out.Merge(ws.win_lat[static_cast<size_t>(window)]);
  }
  return out;
}

TraceAgg LoadGen::Trace() const {
  TraceAgg agg;
  for (const WorkerState& ws : ws_) agg.Add(ws.trace);
  return agg;
}

std::vector<AuditOp> LoadGen::AuditOps() const {
  std::vector<AuditOp> out;
  for (const WorkerState& ws : ws_) {
    out.insert(out.end(), ws.audit.begin(), ws.audit.end());
  }
  return out;
}

CommitLog LoadGen::Commits() const {
  CommitLog log;
  for (const WorkerState& ws : ws_) {
    log.started.push_back(ws.next_seq);
    log.failed.insert(log.failed.end(), ws.failed.begin(), ws.failed.end());
  }
  std::sort(log.failed.begin(), log.failed.end());
  return log;
}

const Program& LoadGen::ProgramOf(mdts::TxnId txn) const {
  const size_t t = WorkerOf(txn, workers());
  return pools_[t][SeqOf(txn, workers()) % pools_[t].size()];
}

void LoadGen::Emit(WorkerState& ws, size_t t, SpanKind kind, uint64_t id,
                  uint64_t parent, int64_t start, int64_t dur) {
  if (ws.trace.spans.size() >= kMaxSpansPerWorker) return;
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.start_ns = start;
  r.dur_ns = dur;
  r.kind = kind;
  r.worker = static_cast<uint8_t>(t);
  ws.trace.spans.push_back(r);
}

void LoadGen::RunWorker(size_t t, const Phase& phase) {
  const int64_t entry_ns = NowNs();
  WorkerState& ws = ws_[t];
  mdts::ShardedMtkEngine& engine = *stack_.engine;
  const std::vector<Program>& programs = pools_[t];
  const size_t nworkers = workers();
  const size_t nslots = ws.slots.size();
  const bool traced = phase.traced;
  const bool timed_calls = traced || phase.audit;
  const SpanKind call_kind = nslots == 1 ? kSpanProcess : kSpanBatch;
  std::vector<Op> ops(nslots);
  std::vector<OpDecision> dec(nslots);
  std::vector<AbortReason> why(nslots);
  std::vector<size_t> slot_of(nslots);
  uint64_t started = 0;
  int64_t it_end = NowNs();
  auto new_span = [&] { return (uint64_t{t} << 48) | ws.next_span++; };

  for (;;) {
    const bool stopping =
        phase.max_txns > 0
            ? started >= phase.max_txns
            : window_.load(std::memory_order_relaxed) >= phase.windows;
    // A round starts where the previous one ended when traced, so the
    // charged time partitions the worker's time exactly.
    int64_t it0 = traced ? it_end : 0;
    size_t n = 0;
    for (size_t si = 0; si < nslots; ++si) {
      Slot& s = ws.slots[si];
      if (!s.active && !stopping) {
        const uint64_t seq = ws.next_seq++;
        if (it0 == 0) it0 = NowNs();
        s.active = true;
        s.txn = TxnIdOf(t, seq, nworkers);
        s.prog = &programs[seq % programs.size()];
        s.next_op = 0;
        s.attempts = 0;
        s.start_ns = it0;
        s.close = Close::kNone;
        ++started;
        ++ws.counts.started;
        if (traced) {
          s.tr = SlotTrace();
          s.tr.txn_id = new_span();
          s.tr.attempt_id = new_span();
          s.tr.txn_start = it0;
          s.tr.attempt_start = it0;
        }
      }
      if (!s.active) continue;
      Op& op = ops[n];
      op.txn = s.txn;
      op.item = s.prog->item[s.next_op];
      op.type = s.prog->IsWrite(s.next_op) ? OpType::kWrite : OpType::kRead;
      slot_of[n] = si;
      ++n;
    }
    if (n == 0) break;  // Stopping and drained.

    const int64_t b0 = timed_calls ? NowNs() : 0;
    if (nslots == 1) {
      dec[0] = engine.Process(ops[0], &why[0]);
    } else {
      engine.ProcessBatch(std::span<const Op>(ops.data(), n), dec.data(),
                          why.data());
    }
    const int64_t b1 = timed_calls ? NowNs() : 0;
    ws.counts.ops += n;
    int64_t call_total = b1 - b0;
    if (traced) {
      const int64_t d = b1 - b0;
      ws.trace.call_ns[call_kind].Record(static_cast<uint64_t>(d));
      for (size_t q = 0; q < n; ++q) {
        SlotTrace& tr = ws.slots[slot_of[q]].tr;
        const int64_t share =
            d / static_cast<int64_t>(n) +
            (static_cast<int64_t>(q) < d % static_cast<int64_t>(n) ? 1 : 0);
        Emit(ws, t, call_kind, new_span(), tr.attempt_id, b0, share);
        tr.attempt_dur += share;
        tr.attempt_children += share;
        tr.self[call_kind] += share;
      }
    }

    for (size_t q = 0; q < n; ++q) {
      Slot& s = ws.slots[slot_of[q]];
      if (dec[q] != OpDecision::kReject) {
        if (dec[q] == OpDecision::kIgnore) ++ws.counts.ignored;
        ++ws.counts.accepted;
        if (ops[q].type == OpType::kRead) ++ws.counts.accepted_reads;
        if (phase.audit) {
          s.audit_pending.push_back({s.txn, ops[q].item,
                                     ops[q].type == OpType::kWrite, b0, b1});
        }
        if (++s.next_op < kOpsPerTxn) continue;
        const int64_t c0 = traced ? NowNs() : 0;
        engine.CommitTxn(s.txn);
        const int64_t c1 = NowNs();
        const int win = window_.load(std::memory_order_relaxed);
        if (win >= 0 && win < phase.windows) {
          ws.win_lat[static_cast<size_t>(win)].Record(
              static_cast<uint64_t>(c1 - s.start_ns));
          ++ws.win_commits[static_cast<size_t>(win)];
        }
        ++ws.counts.commits;
        ws.counts.max_attempts =
            std::max(ws.counts.max_attempts, s.attempts + 1);
        if (s.prog->write_mask != 0) ++ws.counts.writing_commits;
        if (phase.audit) {
          ws.audit.insert(ws.audit.end(), s.audit_pending.begin(),
                          s.audit_pending.end());
          s.audit_pending.clear();
        }
        if (traced) {
          ws.trace.call_ns[kSpanCommit].Record(
              static_cast<uint64_t>(c1 - c0));
          Emit(ws, t, kSpanCommit, new_span(), s.tr.attempt_id, c0, c1 - c0);
          s.tr.attempt_dur += c1 - c0;
          s.tr.attempt_children += c1 - c0;
          s.tr.self[kSpanCommit] += c1 - c0;
          call_total += c1 - c0;
        }
        s.close = Close::kCommit;
        s.active = false;
        continue;
      }
      ++ws.counts.rejects[static_cast<size_t>(why[q])];
      s.audit_pending.clear();
      if (++s.attempts >= kRetryCap) {
        ++ws.counts.failed;
        ws.failed.push_back(s.txn);
        s.close = Close::kFail;
        s.active = false;
        continue;
      }
      const int64_t r0 = traced ? NowNs() : 0;
      engine.RestartTxn(s.txn);
      ++ws.counts.restarts;
      s.next_op = 0;
      if (traced) {
        const int64_t r1 = NowNs();
        ws.trace.call_ns[kSpanRestart].Record(
            static_cast<uint64_t>(r1 - r0));
        Emit(ws, t, kSpanRestart, new_span(), s.tr.attempt_id, r0, r1 - r0);
        s.tr.attempt_dur += r1 - r0;
        s.tr.attempt_children += r1 - r0;
        s.tr.self[kSpanRestart] += r1 - r0;
        call_total += r1 - r0;
      }
      s.close = Close::kRestart;
    }

    if (!traced) continue;
    // Harness time of the round: what the round took beyond its engine
    // calls, charged to the round's attempts in equal shares.
    it_end = NowNs();
    const int64_t gap = (it_end - it0) - call_total;
    for (size_t q = 0; q < n; ++q) {
      Slot& s = ws.slots[slot_of[q]];
      SlotTrace& tr = s.tr;
      const int64_t share =
          gap / static_cast<int64_t>(n) +
          (static_cast<int64_t>(q) < gap % static_cast<int64_t>(n) ? 1 : 0);
      tr.attempt_dur += share;
      if (s.close == Close::kNone) continue;
      tr.self[kSpanAttempt] += tr.attempt_dur - tr.attempt_children;
      Emit(ws, t, kSpanAttempt, tr.attempt_id, tr.txn_id, tr.attempt_start,
           tr.attempt_dur);
      tr.txn_dur += tr.attempt_dur;
      if (s.close == Close::kCommit) {
        Emit(ws, t, kSpanTxn, tr.txn_id, 0, tr.txn_start, tr.txn_dur);
        for (size_t k = 0; k < kNumSpanKinds; ++k) {
          ws.trace.self_ns[k] += tr.self[k];
        }
        ws.trace.txn_ns += tr.txn_dur;
        ++ws.trace.txns;
      } else if (s.close == Close::kRestart) {
        tr.attempt_id = new_span();
        tr.attempt_start = it_end;
        tr.attempt_dur = 0;
        tr.attempt_children = 0;
      } else {
        ws.trace.failed_ns += tr.txn_dur;
        ws.trace.failed_calls_ns += tr.self[kSpanProcess] +
                                    tr.self[kSpanBatch] +
                                    tr.self[kSpanCommit] +
                                    tr.self[kSpanRestart];
      }
      s.close = Close::kNone;
    }
  }
  if (traced) ws.trace.wall_ns = NowNs() - entry_ns;
}

}  // namespace perfbench

#include "checks.h"

#include <algorithm>
#include <unordered_map>

#include "fault/fault.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

using mdts::AbortReason;
using mdts::TimestampVector;
using mdts::TxnId;

void Expect(bool ok, const std::string& what,
            std::vector<std::string>* err) {
  if (!ok) err->push_back(what);
}

std::string Eq(const char* what, uint64_t a, uint64_t b) {
  return std::string(what) + ": " + std::to_string(a) +
         " != " + std::to_string(b);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

bool ParseBreak(const std::string& s, Break* out) {
  static const std::pair<const char*, Break> kNames[] = {
      {"none", Break::kNone},
      {"miscount", Break::kMiscount},
      {"drop_record", Break::kDropRecord},
      {"flip_order", Break::kFlipOrder},
      {"tie_order", Break::kTieOrder}};
  for (const auto& [name, b] : kNames) {
    if (s == name) {
      *out = b;
      return true;
    }
  }
  return false;
}

void CheckCounters(const Workload& w, const Stack& stack, Counts lg,
                   Break brk, std::vector<std::string>* err) {
  if (brk == Break::kMiscount) ++lg.commits;
  const mdts::EngineStats st = stack.engine->stats();  // Flushes mirrors.
  const mdts::MetricsSnapshot snap = stack.registry->Snapshot();

  Expect(lg.commits == snap.CounterValue("engine.commits"),
         Eq("commits (load generator vs engine.commits)", lg.commits,
            snap.CounterValue("engine.commits")),
         err);
  const uint64_t lg_accepted = lg.accepted - lg.ignored;
  Expect(lg_accepted == st.accepted,
         Eq("accepted ops (load generator vs stats)", lg_accepted,
            st.accepted),
         err);
  Expect(st.accepted == snap.CounterValue("engine.accepted"),
         Eq("accepted ops (stats vs engine.accepted)", st.accepted,
            snap.CounterValue("engine.accepted")),
         err);
  Expect(lg.ignored == st.ignored_writes,
         Eq("ignored writes (load generator vs stats)", lg.ignored,
            st.ignored_writes),
         err);
  Expect(lg.rejected() == st.rejected,
         Eq("rejects (load generator vs stats)", lg.rejected(), st.rejected),
         err);
  Expect(st.rejected == snap.CounterSum("engine.rejected."),
         Eq("rejects (stats vs engine.rejected.*)", st.rejected,
            snap.CounterSum("engine.rejected.")),
         err);
  Expect(lg.rejects[0] == 0 && st.reject_reasons.counts[0] == 0,
         "rejects without a reason: " + std::to_string(lg.rejects[0]), err);
  for (size_t r = 1; r < mdts::kNumAbortReasons; ++r) {
    const std::string name =
        mdts::AbortReasonName(static_cast<AbortReason>(r));
    const uint64_t reg = snap.CounterValue("engine.rejected." + name);
    Expect(lg.rejects[r] == st.reject_reasons.counts[r] &&
               st.reject_reasons.counts[r] == reg,
           "rejects." + name + ": load generator " +
               std::to_string(lg.rejects[r]) + ", stats " +
               std::to_string(st.reject_reasons.counts[r]) + ", registry " +
               std::to_string(reg),
           err);
  }
  if (w.multiversion) {
    Expect(st.read_rejects == 0,
           "multiversion read rejects: " + std::to_string(st.read_rejects),
           err);
    Expect(stack.engine->MvAuditChains(), "MvAuditChains failed", err);
    Expect(st.live_versions == st.versions_installed - st.versions_gc,
           Eq("live versions vs installed - gc", st.live_versions,
              st.versions_installed - st.versions_gc),
           err);
  }
  if (stack.wal != nullptr) {
    const mdts::WalStats ws = stack.wal->stats();
    Expect(ws.appends == lg.writing_commits,
           Eq("WAL appends vs writing commits", ws.appends,
              lg.writing_commits),
           err);
    Expect(ws.append_failures == 0,
           "WAL append failures: " + std::to_string(ws.append_failures), err);
  }
}

Def6Order Def6Compare(const TimestampVector& a, const TimestampVector& b) {
  for (size_t m = 0; m < a.size(); ++m) {
    const bool da = a.Get(m) != mdts::kUndefinedElement;
    const bool db = b.Get(m) != mdts::kUndefinedElement;
    if (da && db) {
      if (a.Get(m) < b.Get(m)) return Def6Order::kLess;
      if (a.Get(m) > b.Get(m)) return Def6Order::kGreater;
      continue;
    }
    return da == db ? Def6Order::kEqual : Def6Order::kUndetermined;
  }
  return Def6Order::kIdentical;
}

AuditSummary AuditTheorem2(const Workload& w, const LoadGen& gen,
                           const mdts::ShardedMtkEngine& engine, Break brk,
                           std::vector<std::string>* err) {
  std::vector<AuditOp> ops = gen.AuditOps();
  if (w.multiversion) {  // Only write-write pairs conflict under MV.
    std::erase_if(ops, [](const AuditOp& o) { return !o.write; });
  }
  std::sort(ops.begin(), ops.end(), [](const AuditOp& a, const AuditOp& b) {
    return a.item != b.item ? a.item < b.item : a.t0 < b.t0;
  });
  std::unordered_map<TxnId, TimestampVector> vec;
  gen.Commits().ForEach([&](TxnId txn) {
    Expect(engine.IsCommitted(txn),
           "audited txn " + std::to_string(txn) + " is not committed", err);
    vec.emplace(txn, engine.TsSnapshot(txn));
  });
  auto conflict = [](const AuditOp& a, const AuditOp& b) {
    return a.txn != b.txn && (a.write || b.write);
  };

  // Broken inputs: rewrite the vectors of the first eligible pair.
  for (size_t i = 0; brk != Break::kNone && i + 1 < ops.size(); ++i) {
    for (size_t j = i + 1; j < ops.size() && ops[j].item == ops[i].item;
         ++j) {
      if (!conflict(ops[i], ops[j])) continue;
      if (brk == Break::kTieOrder) {
        vec.at(ops[j].txn) = vec.at(ops[i].txn);
        brk = Break::kNone;
        break;
      }
      if (brk == Break::kFlipOrder && ops[i].t1 < ops[j].t0) {
        std::swap(vec.at(ops[i].txn), vec.at(ops[j].txn));
        brk = Break::kNone;
        break;
      }
    }
  }

  AuditSummary sum;
  sum.txns = vec.size();
  size_t reported = 0;
  auto fail = [&](const AuditOp& a, const AuditOp& b, const char* what) {
    if (reported++ < 5) {
      err->push_back(std::string("Theorem 2: ") + what + " T" +
                     std::to_string(a.txn) + " " +
                     vec.at(a.txn).ToString() + " vs T" +
                     std::to_string(b.txn) + " " + vec.at(b.txn).ToString() +
                     " on item " + std::to_string(a.item));
    }
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = i + 1; j < ops.size() && ops[j].item == ops[i].item;
         ++j) {
      const AuditOp& a = ops[i];
      const AuditOp& b = ops[j];
      if (!conflict(a, b)) continue;
      ++sum.pairs;
      const Def6Order o = Def6Compare(vec.at(a.txn), vec.at(b.txn));
      if (o != Def6Order::kLess && o != Def6Order::kGreater) {
        fail(a, b, "conflicting pair not strictly ordered:");
        continue;
      }
      if (w.multiversion) continue;
      if (a.t1 < b.t0) {
        ++sum.wall_pairs;
        if (o != Def6Order::kLess) fail(a, b, "later caller ordered first:");
      } else if (b.t1 < a.t0) {
        ++sum.wall_pairs;
        if (o != Def6Order::kGreater) {
          fail(a, b, "later caller ordered first:");
        }
      }
    }
  }
  if (reported > 5) {
    err->push_back("Theorem 2: " + std::to_string(reported - 5) +
                   " more violations");
  }
  Expect(sum.pairs > 0, "Theorem 2 audit found no conflicting pair", err);
  return sum;
}

RecoverySummary CrashAndRecover(const LoadGen& gen, Stack& stack,
                                const CommitLog& before,
                                const CommitLog& after, Break brk,
                                std::vector<std::string>* err) {
  RecoverySummary out;
  stack.wal->CrashNow(mdts::WalCrashPoint::kBeforeFsync);
  stack.wal->Close();  // Truncates every stream to its synced prefix.

  const int64_t t0 = NowNs();
  const mdts::WalRecovery rec = mdts::ParallelWal::Recover(stack.wal_dir);
  const int64_t t1 = NowNs();
  mdts::EngineOptions eo;
  eo.k = kVectorK;
  eo.starvation_fix = true;
  mdts::ShardedMtkEngine fresh(eo);
  const size_t applied = rec.ok ? fresh.RecoverFrom(rec) : 0;
  const int64_t t2 = NowNs();
  out.records = rec.records.size();
  out.start_ns = t0;
  out.recover_s = Seconds(t1 - t0);
  out.recover_from_s = Seconds(t2 - t1);
  Expect(rec.ok, "Recover failed: " + rec.error, err);
  Expect(rec.torn_streams == 0,
         "torn streams after a before-fsync crash: " +
             std::to_string(rec.torn_streams),
         err);
  Expect(applied == rec.records.size(),
         Eq("RecoverFrom applied vs records", applied, rec.records.size()),
         err);

  size_t skip = rec.records.size();  // Index of a record to drop.
  if (brk == Break::kDropRecord) {
    for (size_t i = 0; i < rec.records.size() && skip == rec.records.size();
         ++i) {
      if (before.Committed(rec.records[i].txn)) skip = i;
    }
  }

  const size_t workers = gen.workers();
  std::vector<std::vector<bool>> seen(workers);
  for (size_t t = 0; t < workers; ++t) seen[t].resize(after.started[t]);
  size_t reported = 0;
  auto fail = [&](const std::string& what) {
    if (reported++ < 5) err->push_back("recovery: " + what);
  };
  for (size_t i = 0; i < rec.records.size(); ++i) {
    const mdts::WalCommitRecord& r = rec.records[i];
    if (i == skip) continue;
    if (r.txn == 0 || !after.Committed(r.txn)) {
      fail("T" + std::to_string(r.txn) + " came back but never committed");
      continue;
    }
    std::vector<bool>& seen_by = seen[WorkerOf(r.txn, workers)];
    const uint64_t n = SeqOf(r.txn, workers);
    if (seen_by[n]) fail("T" + std::to_string(r.txn) + " recovered twice");
    seen_by[n] = true;
    if (r.writes != gen.ProgramOf(r.txn).Writes()) {
      fail("T" + std::to_string(r.txn) + " came back with another write set");
    }
  }
  before.ForEach([&](TxnId txn) {
    if (gen.ProgramOf(txn).write_mask != 0 &&
        !seen[WorkerOf(txn, workers)][SeqOf(txn, workers)]) {
      fail("T" + std::to_string(txn) + " committed before the barrier, lost");
    }
  });
  for (const auto& [item, idx] : rec.item_writer) {
    const TxnId owner = rec.records[idx].txn;
    const std::vector<mdts::ItemId> ws = gen.ProgramOf(owner).Writes();
    if (!after.Committed(owner) ||
        std::find(ws.begin(), ws.end(), item) == ws.end()) {
      fail("item " + std::to_string(item) + " owned by T" +
           std::to_string(owner) + ", not one of its committed writers");
    }
  }
  if (reported > 5) {
    err->push_back("recovery: " + std::to_string(reported - 5) +
                   " more violations");
  }
  return out;
}

}  // namespace perfbench

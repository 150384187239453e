#include "obs/metrics.h"

#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/mtk_scheduler.h"
#include "dist/dmt_system.h"
#include "engine/sharded_engine.h"
#include "engine_tally.h"
#include "gtest/gtest.h"
#include "obs/abort_reason.h"
#include "obs/trace.h"
#include "sched/interval_scheduler.h"
#include "sched/mtk_online.h"
#include "sched/occ_scheduler.h"
#include "sched/to1_scheduler.h"
#include "sched/two_pl_scheduler.h"

namespace mdts {
namespace {

// ===========================================================================
// Counter / Histogram under concurrent writers (exactness; run under tsan
// via the asan-obs / tsan-obs presets).
// ===========================================================================

TEST(CounterTest, ConcurrentWritersLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(CounterTest, MoreThreadsThanSlotsStillExact) {
  // Threads beyond the exclusive slots share the overflow slot via
  // fetch_add; totals must stay exact either way.
  Counter c;
  constexpr int kThreads = 24;  // > Counter::kSlots.
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(3);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread * 3);
}

TEST(HistogramTest, ConcurrentWritersExactMoments) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kMax = 1000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h] {
      for (uint64_t v = 1; v <= kMax; ++v) h.Record(v);
    });
  }
  for (auto& th : pool) th.join();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kMax);
  EXPECT_EQ(s.sum, kThreads * (kMax * (kMax + 1) / 2));
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, kMax);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(HistogramTest, LogBucketPlacementAndPercentiles) {
  Histogram h;
  h.Record(0);    // bucket 0
  h.Record(1);    // bucket 1
  h.Record(2);    // bucket 2
  h.Record(3);    // bucket 2
  h.Record(100);  // bucket 7 (64 <= 100 < 128)
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[7], 1u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 100u);
  // p50 falls in bucket 2 (upper bound 3); p99's bucket upper bound is
  // clamped to the observed max.
  EXPECT_EQ(s.Percentile(50), 3u);
  EXPECT_EQ(s.Percentile(99), 100u);
}

// ===========================================================================
// Registry snapshots: determinism and lookups.
// ===========================================================================

TEST(MetricsRegistryTest, SnapshotIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry a, b;
  a.GetCounter("zeta")->Add(7);
  a.GetCounter("alpha")->Add(3);
  a.GetHistogram("lat")->Record(5);
  b.GetHistogram("lat")->Record(5);
  b.GetCounter("alpha")->Add(3);
  b.GetCounter("zeta")->Add(7);
  EXPECT_EQ(a.Snapshot().ToText(), b.Snapshot().ToText());
  EXPECT_EQ(a.Snapshot().ToJson(), b.Snapshot().ToJson());
}

TEST(MetricsRegistryTest, StablePointersAndLookups) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x.accepted");
  EXPECT_EQ(reg.GetCounter("x.accepted"), c);  // Register-once.
  c->Add(4);
  reg.GetCounter("x.rejected.lex_order")->Add(2);
  reg.GetCounter("x.rejected.stale_txn")->Add(1);
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.CounterValue("x.accepted"), 4u);
  EXPECT_EQ(s.CounterValue("absent"), 0u);
  EXPECT_EQ(s.CounterSum("x.rejected."), 3u);
}

// ===========================================================================
// Abort-reason taxonomy.
// ===========================================================================

TEST(AbortReasonTest, NamesAndDescriptionsCoverEveryValue) {
  std::vector<std::string> seen;
  for (size_t r = 0; r < kNumAbortReasons; ++r) {
    const AbortReason reason = static_cast<AbortReason>(r);
    const std::string name = AbortReasonName(reason);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
    EXPECT_FALSE(std::string(AbortReasonDescription(reason)).empty());
    for (const std::string& prev : seen) EXPECT_NE(prev, name);
    seen.push_back(name);
  }
}

TEST(AbortReasonTest, CountsTotalExcludesUnclassified) {
  AbortReasonCounts c;
  c.Add(AbortReason::kNone);
  c.Add(AbortReason::kLexOrder, 2);
  c.Add(AbortReason::kLeaseExpired);
  EXPECT_EQ(c.total(), 3u);
  EXPECT_EQ(c.unclassified(), 1u);
  EXPECT_EQ(c[AbortReason::kLexOrder], 2u);
  AbortReasonCounts d;
  d.Add(AbortReason::kLexOrder);
  d += c;
  EXPECT_EQ(d[AbortReason::kLexOrder], 3u);
  // ToJson lists nonzero reasons only.
  const std::string json = c.ToJson();
  EXPECT_NE(json.find("\"lex_order\": 2"), std::string::npos) << json;
  EXPECT_EQ(json.find("down_site"), std::string::npos) << json;
}

TEST(AbortReasonTest, FormatRejectMentionsOpReasonAndBlocker) {
  const std::string s =
      FormatReject("W3[x]", AbortReason::kLexOrder, 2);
  EXPECT_NE(s.find("W3[x]"), std::string::npos) << s;
  EXPECT_NE(s.find("lex_order"), std::string::npos) << s;
  EXPECT_NE(s.find("2"), std::string::npos) << s;
}

// ===========================================================================
// Reconciliation: every rejected operation carries a classified reason and
// the per-reason tallies sum to the layer's reject/abort count.
// ===========================================================================

TEST(ReconciliationTest, MtkSchedulerRejectsAreClassified) {
  MtkOptions options;
  options.k = 1;
  MtkScheduler s(options);
  EXPECT_EQ(s.ExplainLastReject(), "no rejection yet");
  // MT(1): R2[x] after W1[x] fixes 1 < 2; R1[y] after W2[y] then needs
  // 2 < 1 - the opposite scalar order is already fixed.
  EXPECT_EQ(s.Process(Op{1, OpType::kWrite, 0}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{2, OpType::kRead, 0}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{2, OpType::kWrite, 1}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{1, OpType::kRead, 1}), OpDecision::kReject);
  EXPECT_EQ(s.last_reject().reason, AbortReason::kLexOrder);
  EXPECT_EQ(s.LastBlocker(), 2u);
  EXPECT_NE(s.ExplainLastReject().find("lex_order"), std::string::npos)
      << s.ExplainLastReject();
  // A stale resubmission is classified too.
  EXPECT_EQ(s.Process(Op{1, OpType::kRead, 1}), OpDecision::kReject);
  EXPECT_EQ(s.last_reject().reason, AbortReason::kStaleTxn);
  const MtkStats& st = s.stats();
  EXPECT_EQ(st.rejected, st.reject_reasons.total());
  EXPECT_EQ(st.reject_reasons.unclassified(), 0u);
}

TEST(ReconciliationTest, FiveProtocolsShareTheTaxonomy) {
  // One minimal conflict per protocol; each must classify its abort and
  // keep abort_reasons().total() equal to its abort count.
  To1Scheduler to1;
  to1.OnBegin(1);
  to1.OnBegin(2);
  EXPECT_EQ(to1.OnOperation(Op{2, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(to1.OnOperation(Op{1, OpType::kRead, 0}),
            SchedOutcome::kAborted);
  EXPECT_EQ(to1.last_abort_reason(), AbortReason::kLexOrder);

  TwoPlScheduler tpl;
  EXPECT_EQ(tpl.OnOperation(Op{1, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(tpl.OnOperation(Op{2, OpType::kWrite, 1}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(tpl.OnOperation(Op{1, OpType::kWrite, 1}),
            SchedOutcome::kBlocked);
  EXPECT_EQ(tpl.OnOperation(Op{2, OpType::kWrite, 0}),
            SchedOutcome::kAborted);
  EXPECT_EQ(tpl.last_abort_reason(), AbortReason::kDeadlockAvoidance);

  OccScheduler occ;
  occ.OnBegin(1);
  occ.OnBegin(2);
  EXPECT_EQ(occ.OnOperation(Op{1, OpType::kRead, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(occ.OnOperation(Op{2, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(occ.OnCommit(2), SchedOutcome::kAccepted);
  EXPECT_EQ(occ.OnCommit(1), SchedOutcome::kAborted);
  EXPECT_EQ(occ.last_abort_reason(), AbortReason::kValidationFailure);

  IntervalScheduler iv;
  EXPECT_EQ(iv.OnOperation(Op{1, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(iv.OnOperation(Op{2, OpType::kRead, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(iv.OnOperation(Op{1, OpType::kWrite, 0}),
            SchedOutcome::kAborted);
  EXPECT_EQ(iv.last_abort_reason(), AbortReason::kLexOrder);

  MtkOptions mo;
  mo.k = 1;
  MtkOnline mtk(mo);
  EXPECT_EQ(mtk.OnOperation(Op{1, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(mtk.OnOperation(Op{2, OpType::kRead, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(mtk.OnOperation(Op{2, OpType::kWrite, 1}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(mtk.OnOperation(Op{1, OpType::kRead, 1}),
            SchedOutcome::kAborted);
  EXPECT_EQ(mtk.last_abort_reason(), AbortReason::kLexOrder);

  for (const Scheduler* s :
       {static_cast<const Scheduler*>(&to1),
        static_cast<const Scheduler*>(&tpl),
        static_cast<const Scheduler*>(&occ),
        static_cast<const Scheduler*>(&iv),
        static_cast<const Scheduler*>(&mtk)}) {
    EXPECT_EQ(s->abort_reasons().total(), 1u) << s->name();
    EXPECT_EQ(s->abort_reasons().unclassified(), 0u) << s->name();
  }
}

TEST(ReconciliationTest, EngineCountsMatchCallerTally) {
  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 2;
  eo.num_shards = 4;
  eo.metrics = &reg;
  ShardedMtkEngine engine(eo);
  constexpr int kThreads = 4;
  constexpr uint64_t kTxnsPerThread = 2000;
  std::vector<EngineTally> tallies(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&engine, &tallies, t] {
      EngineTally& tally = tallies[t];
      uint64_t x = 88172645463325252ull + t;
      for (uint64_t n = 0; n < kTxnsPerThread; ++n) {
        const TxnId txn = 1 + t + n * kThreads;
        bool ok = true;
        for (int o = 0; o < 4 && ok; ++o) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          Op op;
          op.txn = txn;
          op.type = (x & 1) ? OpType::kRead : OpType::kWrite;
          op.item = static_cast<ItemId>((x >> 8) % 8);  // Hot: conflicts.
          AbortReason reason = AbortReason::kNone;
          const OpDecision d = engine.Process(op, &reason);
          tally.NoteBatch(std::span<const OpDecision>(&d, 1), &reason);
          ok = d != OpDecision::kReject;
          if (!ok) {
            // Every rejection must carry a classified reason.
            EXPECT_NE(reason, AbortReason::kNone);
          }
        }
        if (ok) {
          engine.CommitTxn(txn);
        } else {
          engine.RestartTxn(txn);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EngineTally total;
  for (const EngineTally& t : tallies) total += t;
  EXPECT_GT(total.rejects.total(), 0u);  // The hot item set guarantees
                                         // conflicts.
  ExpectCountsMatchTally(total, engine, reg);
}

// Counts reach the registry when the engine call that made them returns:
// no stats() call (or any other observation point) is needed first.
TEST(ReconciliationTest, RegistryCountsWithoutStatsCall) {
  MetricsRegistry reg;
  EngineOptions eo;
  eo.metrics = &reg;
  ShardedMtkEngine engine(eo);
  ASSERT_EQ(engine.Process(Op{1, OpType::kWrite, 7}), OpDecision::kAccept);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("engine.accepted"), 1u);
  EXPECT_EQ(snap.CounterValue("engine.batches"), 1u);
  EXPECT_EQ(snap.CounterValue("engine.batch_ops"), 1u);
  EXPECT_EQ(snap.CounterValue("engine.set_calls"), 1u);
  EXPECT_EQ(snap.CounterValue("engine.single_shard_ops") +
                snap.CounterValue("engine.cross_shard_ops"),
            1u);
}

// Engines built one after another on one registry: each stats() reports
// only its own events, and the registry holds the sum.
TEST(ReconciliationTest, SequentialEnginesShareRegistry) {
  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 2;
  eo.num_shards = 2;
  eo.metrics = &reg;
  EngineStats first;
  {
    ShardedMtkEngine engine(eo);
    for (TxnId t = 1; t <= 5; ++t) {
      engine.Process(Op{t, OpType::kWrite, t % 3});
      engine.CommitTxn(t);
    }
    first = engine.stats();
    EXPECT_EQ(first.accepted, 5u);
    EXPECT_EQ(first.batches, 5u);
  }
  ShardedMtkEngine engine(eo);
  EXPECT_EQ(engine.stats().accepted, 0u);
  EXPECT_EQ(engine.stats().set_calls, 0u);
  // T0 issues no operations: an invalid-op reject.
  engine.Process(Op{kVirtualTxn, OpType::kRead, 1});
  for (TxnId t = 1; t <= 3; ++t) engine.Process(Op{t, OpType::kRead, 0});
  const EngineStats second = engine.stats();
  EXPECT_EQ(second.accepted, 3u);
  EXPECT_EQ(second.rejected, 1u);
  EXPECT_EQ(second.reject_reasons[AbortReason::kInvalidOp], 1u);
  EXPECT_EQ(second.batches, 4u);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("engine.accepted"),
            first.accepted + second.accepted);
  EXPECT_EQ(snap.CounterValue("engine.batches"),
            first.batches + second.batches);
  EXPECT_EQ(snap.CounterValue("engine.set_calls"),
            first.set_calls + second.set_calls);
  EXPECT_EQ(snap.CounterValue("engine.element_comparisons"),
            first.element_comparisons + second.element_comparisons);
  EXPECT_EQ(snap.CounterValue("engine.rejected.invalid_op"), 1u);
}

// A detached engine (private registry) counts exactly like an attached
// one on the same seeded single-threaded log.
TEST(ReconciliationTest, DetachedEngineCountsLikeAttached) {
  auto run = [](MetricsRegistry* reg, bool multiversion) {
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = 4;
    eo.starvation_fix = true;
    eo.thomas_write_rule = !multiversion;
    eo.optimized_encoding = true;
    eo.hot_item_threshold = 4;
    eo.multiversion = multiversion;
    eo.compact_every = 32;
    eo.metrics = reg;
    ShardedMtkEngine engine(eo);
    uint64_t x = 0x2545F4914F6CDD1Dull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    TxnId txn = 1;
    for (int n = 0; n < 600; ++n) {
      std::vector<Op> batch(1 + next() % 3);
      for (Op& op : batch) {
        op = Op{txn, next() % 2 ? OpType::kRead : OpType::kWrite,
                static_cast<ItemId>(next() % 12)};
      }
      std::vector<OpDecision> dec(batch.size());
      engine.ProcessBatch(batch, dec.data());
      if (engine.IsAborted(txn)) {
        engine.RestartTxn(txn);
      } else {
        engine.CommitTxn(txn++);
      }
    }
    engine.CompactAll();
    return engine.stats();
  };
  for (const bool mv : {false, true}) {
    MetricsRegistry reg;
    const EngineStats a = run(&reg, mv);
    const EngineStats d = run(nullptr, mv);
    EXPECT_GT(a.accepted, 0u);
    EXPECT_GT(a.rejected, 0u);
    EXPECT_EQ(a.accepted, d.accepted) << mv;
    EXPECT_EQ(a.rejected, d.rejected) << mv;
    EXPECT_EQ(a.ignored_writes, d.ignored_writes) << mv;
    EXPECT_EQ(a.set_calls, d.set_calls) << mv;
    EXPECT_EQ(a.elements_assigned, d.elements_assigned) << mv;
    EXPECT_EQ(a.element_comparisons, d.element_comparisons) << mv;
    EXPECT_EQ(a.txns_released, d.txns_released) << mv;
    EXPECT_EQ(a.single_shard_ops, d.single_shard_ops) << mv;
    EXPECT_EQ(a.cross_shard_ops, d.cross_shard_ops) << mv;
    EXPECT_EQ(a.lock_retries, d.lock_retries) << mv;
    EXPECT_EQ(a.full_lock_fallbacks, d.full_lock_fallbacks) << mv;
    EXPECT_EQ(a.lock_contention, d.lock_contention) << mv;
    EXPECT_EQ(a.compactions, d.compactions) << mv;
    EXPECT_EQ(a.batches, d.batches) << mv;
    EXPECT_EQ(a.batch_ops, d.batch_ops) << mv;
    EXPECT_EQ(a.hot_encodings, d.hot_encodings) << mv;
    EXPECT_EQ(a.batch_fallbacks, d.batch_fallbacks) << mv;
    EXPECT_EQ(a.versions_installed, d.versions_installed) << mv;
    EXPECT_EQ(a.versions_gc, d.versions_gc) << mv;
    EXPECT_EQ(a.live_versions, d.live_versions) << mv;
    EXPECT_EQ(a.old_version_reads, d.old_version_reads) << mv;
    EXPECT_EQ(a.read_rejects, d.read_rejects) << mv;
    for (size_t r = 0; r < kNumAbortReasons; ++r) {
      EXPECT_EQ(a.reject_reasons.counts[r], d.reject_reasons.counts[r])
          << mv << " " << r;
    }
    // Each count sits under its own registry name.
    const MetricsSnapshot snap = reg.Snapshot();
    const std::pair<const char*, uint64_t> named[] = {
        {"engine.accepted", a.accepted},
        {"engine.ignored_writes", a.ignored_writes},
        {"engine.set_calls", a.set_calls},
        {"engine.elements_assigned", a.elements_assigned},
        {"engine.element_comparisons", a.element_comparisons},
        {"engine.txns_released", a.txns_released},
        {"engine.single_shard_ops", a.single_shard_ops},
        {"engine.cross_shard_ops", a.cross_shard_ops},
        {"engine.lock_retries", a.lock_retries},
        {"engine.full_lock_fallbacks", a.full_lock_fallbacks},
        {"engine.lock_contention", a.lock_contention},
        {"engine.compactions", a.compactions},
        {"engine.batches", a.batches},
        {"engine.batch_ops", a.batch_ops},
        {"engine.hot_encodings", a.hot_encodings},
        {"engine.batch_fallbacks", a.batch_fallbacks},
        {"engine.versions_installed", a.versions_installed},
        {"engine.versions_gc", a.versions_gc},
        {"engine.old_version_reads", a.old_version_reads},
        {"engine.read_rejects", a.read_rejects},
    };
    for (const auto& [name, value] : named) {
      EXPECT_EQ(snap.CounterValue(name), value) << mv << " " << name;
    }
    EXPECT_EQ(snap.GaugeValue("engine.live_versions"),
              static_cast<int64_t>(a.live_versions))
        << mv;
  }
}

TEST(ReconciliationTest, DmtAbortsMatchReasonsAndRegistry) {
  MetricsRegistry reg;
  DmtOptions options;
  options.k = 2;
  options.num_sites = 4;
  options.num_txns = 60;
  options.concurrency = 8;
  options.message_latency = 0.5;
  options.seed = 11;
  options.workload.num_items = 12;
  options.workload.min_ops = 2;
  options.workload.max_ops = 4;
  options.workload.read_fraction = 0.5;
  options.fault.drop_rate = 0.2;
  options.fault.jitter = 0.2;
  options.fault.crashes.push_back({1, 40.0, 90.0});
  options.metrics = &reg;
  const DmtResult r = RunDmtSimulation(options);
  EXPECT_GT(r.aborts, 0u);  // Faults guarantee aborts at this loss rate.
  EXPECT_EQ(r.aborts, r.abort_reasons.total());
  EXPECT_EQ(r.abort_reasons.unclassified(), 0u);
  // End-of-run publication: registry deltas equal the result fields.
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("dmt.committed"), r.committed);
  EXPECT_EQ(snap.CounterSum("dmt.aborts."), r.aborts);
  EXPECT_EQ(snap.CounterValue("dmt.aborts.lease_expired"),
            r.abort_reasons[AbortReason::kLeaseExpired]);
  EXPECT_EQ(snap.CounterValue("dmt.lease_reclaims"), r.lease_reclaims);
}

// ===========================================================================
// Tracer: disabled-by-default, ring wrap, Chrome trace JSON schema.
// ===========================================================================

#if MDTS_TRACE_COMPILED

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Reset();
  }
};

TEST_F(TracerTest, DisabledMacrosEmitNothing) {
  ASSERT_FALSE(Tracer::Enabled());
  MDTS_TRACE_INSTANT("noop");
  MDTS_TRACE_AT("noop", 'i', 2, 0, 17);
  { MDTS_TRACE_SPAN("noop"); }
  EXPECT_EQ(Tracer::Get().event_count(), 0u);
}

TEST_F(TracerTest, RingKeepsNewestEventsAfterWrap) {
  Tracer::Get().Enable(/*events_per_thread=*/16);  // 16 = the minimum ring.
  for (uint64_t i = 0; i < 100; ++i) {
    MDTS_TRACE_AT_ARG("tick", 'i', 2, 0, i, "n", i);
  }
  Tracer::Get().Disable();
  EXPECT_EQ(Tracer::Get().event_count(), 16u);
  const std::string json = Tracer::Get().ToJson();
  EXPECT_NE(json.find("\"ts\":99"), std::string::npos);   // Newest kept.
  EXPECT_EQ(json.find("\"ts\":50,"), std::string::npos);  // Oldest dropped.
}

TEST_F(TracerTest, JsonSchemaAndLaneOrdering) {
  Tracer::Get().Enable();
  // Same (pid, tid) lane, timestamps emitted out of order: export must
  // sort the lane.
  MDTS_TRACE_AT("later", 'i', 2, 3, 500);
  MDTS_TRACE_AT("earlier", 'i', 2, 3, 100);
  MDTS_TRACE_AT_ARG("argued", 'i', 2, 4, 250, "txn", 42);
  { MDTS_TRACE_SPAN("span"); }  // Real-time lane: 'X' with dur.
  Tracer::Get().Disable();
  const std::string json = Tracer::Get().ToJson();

  // Chrome trace_event envelope, loadable by Perfetto.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  const std::string tail = "],\"displayTimeUnit\":\"ms\"}\n";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);
  // Metadata names both timeline groups.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("mdts-sim"), std::string::npos);
  // Every emitted event carries the required keys.
  for (const char* key : {"\"name\"", "\"ph\"", "\"pid\"", "\"tid\"",
                          "\"ts\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Lane (2, 3) is sorted by ts regardless of emission order.
  EXPECT_LT(json.find("\"earlier\""), json.find("\"later\""));
  // The argument rides along under "args".
  EXPECT_NE(json.find("\"args\":{\"txn\":42}"), std::string::npos);
  // The span exported as a complete event with a duration.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST_F(TracerTest, ConcurrentEmittersGetPrivateLanes) {
  Tracer::Get().Enable();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        MDTS_TRACE_INSTANT("evt");
      }
    });
  }
  for (auto& th : pool) th.join();
  Tracer::Get().Disable();
  EXPECT_EQ(Tracer::Get().event_count(), kThreads * kPerThread);
}

#endif  // MDTS_TRACE_COMPILED

}  // namespace
}  // namespace mdts

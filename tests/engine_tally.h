// Caller-side tally of the decisions and reject reasons a ShardedMtkEngine
// hands back. The reconciliation tests compare the engine's own counts
// (stats() and the registry counters, which are one store) against this
// independent source instead of against each other.

#ifndef MDTS_TESTS_ENGINE_TALLY_H_
#define MDTS_TESTS_ENGINE_TALLY_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/abort_reason.h"
#include "obs/metrics.h"

namespace mdts {

struct EngineTally {
  uint64_t accepted = 0;
  uint64_t ignored = 0;
  AbortReasonCounts rejects;
  uint64_t batches = 0;  ///< Process calls count as batches of one.
  uint64_t batch_ops = 0;

  void Note(OpDecision d, AbortReason why) {
    if (d == OpDecision::kAccept) {
      ++accepted;
    } else if (d == OpDecision::kIgnore) {
      ++ignored;
    } else {
      rejects.Add(why);
    }
  }

  /// One ProcessBatch call: its decisions and the reasons it wrote.
  void NoteBatch(std::span<const OpDecision> dec, const AbortReason* why) {
    ++batches;
    batch_ops += dec.size();
    for (size_t q = 0; q < dec.size(); ++q) Note(dec[q], why[q]);
  }

  EngineTally& operator+=(const EngineTally& o) {
    accepted += o.accepted;
    ignored += o.ignored;
    rejects += o.rejects;
    batches += o.batches;
    batch_ops += o.batch_ops;
    return *this;
  }
};

/// Expects the engine's counts - stats() and the registry counters of
/// `reg` - to equal the caller's tally, and every decided operation to
/// have taken exactly one covered lock round (T0 submissions, rejected as
/// kInvalidOp, are not admission decisions and take none).
inline void ExpectCountsMatchTally(const EngineTally& tally,
                                   const ShardedMtkEngine& engine,
                                   const MetricsRegistry& reg) {
  const EngineStats st = engine.stats();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(st.accepted, tally.accepted);
  EXPECT_EQ(st.ignored_writes, tally.ignored);
  EXPECT_EQ(st.rejected, tally.rejects.total());
  EXPECT_EQ(st.reject_reasons.unclassified(), 0u);
  EXPECT_EQ(tally.rejects.unclassified(), 0u);
  EXPECT_EQ(st.batches, tally.batches);
  EXPECT_EQ(st.batch_ops, tally.batch_ops);
  EXPECT_EQ(snap.CounterValue("engine.accepted"), tally.accepted);
  EXPECT_EQ(snap.CounterValue("engine.ignored_writes"), tally.ignored);
  EXPECT_EQ(snap.CounterValue("engine.batches"), tally.batches);
  EXPECT_EQ(snap.CounterValue("engine.batch_ops"), tally.batch_ops);
  EXPECT_EQ(snap.CounterSum("engine.rejected."), tally.rejects.total());
  for (size_t r = 1; r < kNumAbortReasons; ++r) {
    const AbortReason reason = static_cast<AbortReason>(r);
    EXPECT_EQ(st.reject_reasons[reason], tally.rejects[reason])
        << AbortReasonName(reason);
    EXPECT_EQ(snap.CounterValue(std::string("engine.rejected.") +
                                AbortReasonName(reason)),
              tally.rejects[reason])
        << AbortReasonName(reason);
  }
  EXPECT_EQ(st.accepted + st.ignored_writes + st.rejected -
                st.reject_reasons[AbortReason::kInvalidOp],
            st.single_shard_ops + st.cross_shard_ops);
}

}  // namespace mdts

#endif  // MDTS_TESTS_ENGINE_TALLY_H_

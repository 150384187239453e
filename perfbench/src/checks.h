// Output checks: the load generator's own record against the engine's
// counters, the recovered log against the commits made, and a Theorem 2
// audit of the committed transactions' final vectors.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/timestamp_vector.h"
#include "loadgen.h"
#include "workload.h"

namespace perfbench {

/// Deliberate corruption of one oracle input, to show the checks fail.
enum class Break {
  kNone,
  kMiscount,     ///< One extra commit in the load generator's count.
  kDropRecord,   ///< A pre-barrier record removed from the recovery.
  kFlipOrder,    ///< Two wall-ordered conflicting vectors swapped.
  kTieOrder,     ///< A conflicting pair given the same vector.
};
/// Parses "none", "miscount", "drop_record", "flip_order", "tie_order".
bool ParseBreak(const std::string& s, Break* out);

/// Commits, accepted operations and rejects counted by the load generator
/// equal the engine's stats() and its registry's engine.* counters; every
/// reject has a reason; multiversion and WAL invariants hold. Appends a
/// message to *err per violation.
void CheckCounters(const Workload& w, const Stack& stack, Counts lg,
                   Break brk, std::vector<std::string>* err);

/// Definition 6 of the paper, written out here on purpose rather than
/// calling the library's comparator.
enum class Def6Order { kLess, kGreater, kEqual, kUndetermined, kIdentical };
Def6Order Def6Compare(const mdts::TimestampVector& a,
                      const mdts::TimestampVector& b);

struct AuditSummary {
  uint64_t txns = 0;
  uint64_t pairs = 0;       ///< Conflicting pairs checked for strict order.
  uint64_t wall_pairs = 0;  ///< Of those, pairs whose calls did not overlap.
};

/// Theorem 2 audit: every pair of committed transactions with conflicting
/// accepted operations (same item, one a write; under multiversion both
/// writes) is strictly ordered by its final vectors, and where the two
/// calls did not overlap in wall time (single-version only) the earlier
/// caller's vector is the smaller. Vectors are read with TsSnapshot, so
/// the engine must not have compacted.
AuditSummary AuditTheorem2(const Workload& w, const LoadGen& gen,
                           const mdts::ShardedMtkEngine& engine, Break brk,
                           std::vector<std::string>* err);

struct RecoverySummary {
  uint64_t records = 0;
  int64_t start_ns = 0;  ///< When Recover began.
  double recover_s = 0;
  double recover_from_s = 0;
};

/// The durable run's ending, after the workers quiesced, SyncAll() made
/// every commit in `before` durable, and a short unsynced tail brought the
/// commits to `after`: crash the WAL before fsync, recover the log, rebuild
/// a fresh engine with RecoverFrom, and check that every pre-barrier
/// writing commit came back with exactly its write set, that nothing the
/// load generator never committed came back, and that each item's
/// recovered owner is one of its committed writers.
RecoverySummary CrashAndRecover(const LoadGen& gen, Stack& stack,
                                const CommitLog& before,
                                const CommitLog& after, Break brk,
                                std::vector<std::string>* err);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

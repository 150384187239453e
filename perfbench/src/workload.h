// Workload definitions, seeded transaction programs, and the production
// stack (registry + flight recorder + optional WAL + sharded engine) the
// load generator drives.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "wal/wal.h"

namespace perfbench {

/// Timestamp vector size and transaction length shared by every workload.
inline constexpr size_t kVectorK = 3;
inline constexpr size_t kOpsPerTxn = 4;

struct Workload {
  std::string name;
  uint32_t items = 0;
  double read_fraction = 0.5;
  bool multiversion = false;
  /// Committed versions each chain keeps through GC (multiversion only).
  uint32_t mv_gc_keep_tail = 1;
  /// ParallelWal attached, one stream per worker; crash + recovery at run
  /// end.
  bool wal = false;
  mdts::WalSyncPolicy wal_sync = mdts::WalSyncPolicy::kGroupCommit;
  /// Transactions each worker keeps in flight: 1 drives the engine with
  /// per-op Process, more with one ProcessBatch per round.
  uint32_t slots = 1;
  uint64_t compact_every = 0;
  /// Transactions in the Theorem 2 audit pass, split across the workers.
  uint32_t audit_txns = 0;
};

/// The named workload, or null.
const Workload* FindWorkload(const std::string& name);

/// One pre-generated transaction: kOpsPerTxn distinct items, bit q of
/// write_mask set when operation q writes.
struct Program {
  mdts::ItemId item[kOpsPerTxn];
  uint8_t write_mask = 0;

  bool IsWrite(size_t q) const { return (write_mask >> q) & 1u; }
  /// Items written, in program order.
  std::vector<mdts::ItemId> Writes() const;
};

/// Programs per worker; each worker cycles through its own pool.
inline constexpr size_t kProgramsPerWorker = size_t{1} << 17;

/// pools[w] = worker w's programs, a pure function of (workload items and
/// read fraction, seed, w).
std::vector<std::vector<Program>> GeneratePrograms(const Workload& w,
                                                   uint64_t seed,
                                                   size_t workers);

/// Transaction ids: worker t's n-th transaction on one engine is
/// 1 + t + n * workers, so the id alone names the submitted program.
inline mdts::TxnId TxnIdOf(size_t worker, uint64_t seq, size_t workers) {
  return static_cast<mdts::TxnId>(1 + worker + seq * workers);
}
inline size_t WorkerOf(mdts::TxnId txn, size_t workers) {
  return (txn - 1) % workers;
}
inline uint64_t SeqOf(mdts::TxnId txn, size_t workers) {
  return (txn - 1) / workers;
}

/// The production stack. Members are declared in dependency order, so the
/// engine is destroyed before the WAL, recorder, and registry it uses.
struct Stack {
  std::unique_ptr<mdts::MetricsRegistry> registry;
  std::unique_ptr<mdts::FlightRecorder> flight;
  std::unique_ptr<mdts::ParallelWal> wal;  // Durable workloads only.
  std::unique_ptr<mdts::ShardedMtkEngine> engine;
  std::string wal_dir;
};

/// Builds the stack for `w` with `workers` WAL streams under `wal_dir`
/// (WAL workloads only; the directory is emptied first). `compact_every`
/// overrides the workload's period (0 defers compaction). Throws
/// std::runtime_error when the WAL cannot be opened.
std::unique_ptr<Stack> BuildStack(const Workload& w, size_t workers,
                                  const std::string& wal_dir,
                                  uint64_t compact_every);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

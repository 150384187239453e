#include "workload.h"

#include <filesystem>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace perfbench {
namespace {

// All use 4-op transactions, k = 3 and the starvation fix (without it
// a rejected transaction can retry forever). Why each exists is in
// perfbench/README.md; the sizes are the ones it records.
const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> v;
    Workload uniform;
    uniform.name = "uniform";
    uniform.items = 65536;
    uniform.read_fraction = 0.5;
    uniform.compact_every = 32768;
    uniform.audit_txns = 32768;
    v.push_back(uniform);

    Workload batched = uniform;
    batched.name = "uniform-batched";
    batched.slots = 16;
    v.push_back(batched);

    Workload hot;
    hot.name = "hot-mv";
    hot.items = 64;
    hot.read_fraction = 0.7;
    hot.multiversion = true;
    // 16 committed versions per chain through GC: the depth at which
    // bench/mt_throughput's 64-item MV cell stops rejecting reads.
    hot.mv_gc_keep_tail = 16;
    hot.compact_every = 256;
    hot.audit_txns = 8192;
    v.push_back(hot);

    Workload mv = hot;
    mv.name = "uniform-mv";
    mv.items = 65536;
    mv.compact_every = 32768;
    // No chain is cut back to a tail, so every read can fall back to the
    // T0 base. With a tail of 16, retried reads are rejected until the
    // transaction is given up (README.md, "Workloads considered and
    // dropped"); compaction still reclaims dead versions and txn states.
    mv.mv_gc_keep_tail = std::numeric_limits<uint32_t>::max();
    v.push_back(mv);

    Workload durable;
    durable.name = "durable";
    durable.items = 4096;
    durable.read_fraction = 0.5;
    durable.wal = true;
    durable.compact_every = 4096;
    durable.audit_txns = 8192;
    v.push_back(durable);

    // The durable programs, logged without fsync until the run-end barrier:
    // the WAL's append and recovery paths, apart from the disk's latency.
    Workload logged = durable;
    logged.name = "logged";
    logged.wal_sync = mdts::WalSyncPolicy::kNone;
    v.push_back(logged);
    return v;
  }();
  return kAll;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<mdts::ItemId> Program::Writes() const {
  std::vector<mdts::ItemId> out;
  for (size_t q = 0; q < kOpsPerTxn; ++q) {
    if (IsWrite(q)) out.push_back(item[q]);
  }
  return out;
}

std::vector<std::vector<Program>> GeneratePrograms(const Workload& w,
                                                   uint64_t seed,
                                                   size_t workers) {
  std::vector<std::vector<Program>> pools(workers);
  for (size_t t = 0; t < workers; ++t) {
    mdts::Rng rng(SplitMix64(seed * 0x100000001B3ULL + t));
    std::vector<Program>& pool = pools[t];
    pool.resize(kProgramsPerWorker);
    for (Program& p : pool) {
      for (size_t q = 0; q < kOpsPerTxn; ++q) {
        bool fresh = false;
        while (!fresh) {  // Distinct items within a transaction.
          p.item[q] = static_cast<mdts::ItemId>(rng.Uniform(0, w.items - 1));
          fresh = true;
          for (size_t e = 0; e < q; ++e) fresh &= p.item[e] != p.item[q];
        }
        if (!rng.Chance(w.read_fraction)) {
          p.write_mask = static_cast<uint8_t>(p.write_mask | (1u << q));
        }
      }
    }
  }
  return pools;
}

std::unique_ptr<Stack> BuildStack(const Workload& w, size_t workers,
                                  const std::string& wal_dir,
                                  uint64_t compact_every) {
  auto s = std::make_unique<Stack>();
  s->registry = std::make_unique<mdts::MetricsRegistry>();
  mdts::FlightRecorderOptions fo;
  fo.k = kVectorK;
  s->flight = std::make_unique<mdts::FlightRecorder>(fo);

  mdts::EngineOptions eo;
  eo.k = kVectorK;
  eo.starvation_fix = true;
  eo.multiversion = w.multiversion;
  if (w.multiversion) eo.mv_gc_keep_tail = w.mv_gc_keep_tail;
  eo.compact_every = compact_every;
  eo.metrics = s->registry.get();
  eo.flight = s->flight.get();
  if (w.wal) {
    std::filesystem::remove_all(wal_dir);
    mdts::WalOptions wo;
    wo.dir = wal_dir;
    wo.num_streams = workers;
    wo.k = kVectorK;
    wo.sync_policy = w.wal_sync;
    wo.metrics = s->registry.get();
    s->wal = std::make_unique<mdts::ParallelWal>(wo);
    if (!s->wal->ok()) {
      throw std::runtime_error("cannot open the WAL under " + wal_dir);
    }
    s->wal_dir = wal_dir;
    eo.wal = s->wal.get();
  }
  s->engine = std::make_unique<mdts::ShardedMtkEngine>(eo);
  return s;
}

}  // namespace perfbench

#ifndef FM_SERVE_INCREMENTAL_OBJECTIVE_H_
#define FM_SERVE_INCREMENTAL_OBJECTIVE_H_

#include <cstdint>
#include <vector>

#include "common/io_util.h"
#include "common/result.h"
#include "common/status.h"
#include "core/sharded_objective_sum.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "opt/quadratic_model.h"

namespace fm::exec {
class ThreadPool;
}  // namespace fm::exec

namespace fm::serve {

/// Stable external handle to an inserted tuple. Ids are assigned
/// monotonically in insert order, are never reused, and stay valid for the
/// store's lifetime — across any number of deletes and compactions. Clients
/// (and serve::Service responses) hold TupleIds, never physical slots.
using TupleId = uint64_t;

/// Online counterpart of core::ObjectiveAccumulator: a live, mutable tuple
/// store whose §4.2 / §5.3 quadratic objective is maintained incrementally
/// under INSERT / DELETE / UPDATE — the serving layer's answer to the
/// paper's central structural fact that both FM objectives are plain sums of
/// per-tuple contributions. An insert is an O(d²) compensated delta; a
/// delete or an update marks its 1024-row shard stale, and the next read of
/// the objective re-sums each stale shard once; deriving the current
/// objective is O(live shards · d²) — so a continuously-updated private
/// model never pays the O(n · d²) full re-summation that an offline rebuild
/// would.
///
/// State model. Every inserted tuple occupies a physical slot; deletion
/// marks the slot dead and leaves a hole until the next compaction. Clients
/// address tuples by TupleId, which maps to the current slot through a
/// sorted id table (`slot_to_id_`): ids are assigned in insert order and
/// compaction preserves the relative order of survivors, so the table stays
/// strictly increasing and the id→slot lookup is a binary search — O(log n),
/// O(live) memory, no hashing. Slots are the rows of a
/// core::ShardedObjectiveSum — the type the offline accumulator sums with —
/// so they are grouped into fixed core::kObjectiveShardRows-sized shards,
/// each holding a Neumaier-compensated partial coefficient sum over its
/// live tuples in slot order. The class invariant — what makes incremental
/// maintenance trustworthy — is:
///
///   every shard's (sum, comp) state is bit-identical to a from-scratch
///   compensated accumulation of its live tuples in slot order.
///
/// Inserts preserve it because appending a tuple's compensated contribution
/// IS the next step of that from-scratch accumulation. Deletes and updates
/// preserve it by per-shard recompute: the affected shard's partials are
/// rebuilt from its remaining live tuples (≤ 1024 of them — bounded and
/// exact in the sense above). The recompute is deferred: a delete or an
/// update only marks the shard stale (its tuple count drops at once), and
/// Flush() re-sums every stale shard in one pooled pass. Every reader of
/// the partials — Objective(), SerializeTo(), StoreStateBitwiseEquals() —
/// flushes first, and Compact() rebuilds every shard, so the invariant
/// holds wherever the partials are read. Many deletes to one shard between
/// two trains cost one recompute, not one each, and because the recompute
/// is a pure function of the live slots no read can tell when it ran.
/// Compensated *subtraction* of the deleted contribution was considered and
/// rejected: it leaves the shard state dependent on the full insert/delete
/// history, so errors could accumulate over an unbounded request log and
/// the ≤1-ulp-of-fresh-build guarantee would degrade to ≤k-ulp after k
/// deletes (see docs/DETERMINISM.md, "The serving layer").
///
/// Consequences of the invariant:
///  - Objective() — the serial in-shard-order compensated reduction — is a
///    pure function of the live slot→tuple map: bit-identical for every
///    FM_THREADS, every FM_BLOCKED_LINALG, every insert grouping, and every
///    delete path that arrives at the same live map.
///  - An insert-then-delete round trip restores the previous state exactly
///    (bitwise), not just approximately.
///  - Against the canonical offline build on the same live tuples
///    (ObjectiveAccumulator::Build over Materialize()), holes shift the
///    shard packing, so bits may differ — but both are compensated faithful
///    summations of the identical tuple multiset, so every coefficient
///    agrees within 1 ulp (asserted in tests/serve_test.cc).
///
/// Compaction. Under insert+delete churn the slot space — and the dead
/// shard skeletons Objective() must walk — would otherwise grow with total
/// insert history. Compact() densely rewrites the store in live-slot order,
/// rebuilds every shard partial from scratch (per-shard parallel, each
/// shard serial in slot order), and releases the freed capacity, restoring
/// O(live) memory and O(live shards · d²) objective derivation. The
/// compaction contract is bitwise: the post-compaction store state —
/// tuples, liveness, and every shard's (sum, comp) pair — is bit-identical
/// to a fresh store fed the surviving tuples in order, for every pool size
/// (docs/DETERMINISM.md, "Compaction"). TupleIds are untouched: survivors
/// keep their ids, dead ids stay dead (kNotFound) forever.
///
/// Thread-compatibility: mutations require external serialization
/// (serve::Service provides it). So, while any shard is stale, do the
/// readers that flush — Flush(), Objective(), SerializeTo() and
/// StoreStateBitwiseEquals() (which flushes both stores): they write the
/// partials. Once flushed they are plain reads, and const methods may run
/// concurrently.
class IncrementalObjective {
 public:
  /// An empty store for `dim`-dimensional tuples contributing to `kind`.
  IncrementalObjective(size_t dim, core::ObjectiveKind kind);

  size_t dim() const { return dim_; }
  core::ObjectiveKind kind() const { return kind_; }
  /// Number of live tuples.
  size_t live_size() const { return live_count_; }
  /// Physical slot count: live + holes. Equals live_size() right after a
  /// compaction; grows with inserts and is trimmed back by Compact().
  size_t slot_count() const { return ys_.size(); }
  /// Dead slots awaiting compaction.
  size_t dead_count() const { return ys_.size() - live_count_; }
  size_t num_shards() const { return sums_.num_shards(); }
  /// Shards holding at least one live tuple — what Objective() pays for.
  size_t live_shards() const { return sums_.nonempty_shards(); }

  /// Validates the §3 normalization contract for `kind` (finite values,
  /// ‖x‖₂ ≤ 1; y ∈ [−1, 1] for kLinear, y ∈ {0, 1} for kTruncatedLogistic)
  /// and appends the tuple. O(d²). Returns the assigned TupleId.
  Result<TupleId> Insert(const double* x, size_t dim, double y);
  Result<TupleId> Insert(const linalg::Vector& x, double y);

  /// Bulk insert of every tuple of `tuples` (validated up front; rejected
  /// atomically — either all rows pass and are inserted or none are).
  /// Returns the first assigned id; the batch occupies consecutive ids.
  /// Accumulates affected shards concurrently on `pool` (nullptr → the
  /// global FM_THREADS pool); bit-identical to the equivalent sequence of
  /// single Inserts for every pool size.
  Result<TupleId> InsertBatch(const data::RegressionDataset& tuples,
                              exec::ThreadPool* pool = nullptr);

  /// True when `id` refers to a live tuple.
  bool Contains(TupleId id) const;

  /// Marks `id`'s tuple dead, scrubs its raw values, and marks its shard
  /// stale; the next Flush() recomputes the shard from its remaining live
  /// tuples. O(log n + d) here, plus a share of one
  /// O(kObjectiveShardRows · d²) shard recompute at the next read. Fails
  /// with kNotFound when the id was never assigned or its tuple is already
  /// dead.
  Status Delete(TupleId id);

  /// Replaces `id`'s tuple in place (validating the new tuple) and marks
  /// its shard stale, like Delete. Equivalent to Delete + re-Insert, except
  /// the id — and the slot layout — are preserved.
  Status Update(TupleId id, const double* x, size_t dim, double y);

  /// Recomputes every shard a delete or an update left stale, on `pool`
  /// (nullptr → the global FM_THREADS pool; see
  /// core::ShardedObjectiveSum::Flush). The readers of the partials call it
  /// with nullptr; serve::Service calls it on its own pool before it trains
  /// or snapshots. Changes no observable bit: it only brings the partials
  /// up to the live slots, which is what every reader would compute.
  void Flush(exec::ThreadPool* pool = nullptr) const;

  /// Densely rewrites the store in live-slot order, rebuilds every shard
  /// partial from scratch on `pool` (per-shard parallel; nullptr → the
  /// global FM_THREADS pool), drops the dead tail, and releases freed
  /// capacity. Returns the number of slots reclaimed (0 for an
  /// already-dense store, which is left untouched). Afterwards the store
  /// state is bit-identical to a fresh store fed Materialize()'s tuples in
  /// order, and every surviving TupleId still resolves.
  size_t Compact(exec::ThreadPool* pool = nullptr);

  /// The current objective over all live tuples: live shards' partials
  /// reduced serially in shard order, compensation carried, then rounded.
  /// Fully-dead shards are skipped — their partials are exact (+0, +0)
  /// pairs whose folding cannot change a bit (see
  /// core::ShardedObjectiveSum::Reduce), so a half-churned store pays
  /// O(live shards · d²), not O(all shards · d²).
  /// Deterministic per the class invariant.
  opt::QuadraticModel Objective() const;

  /// The live tuples, densely packed in slot (= id) order. O(n · d).
  data::RegressionDataset Materialize() const;

  /// Visits every live tuple in slot (= id) order as
  /// `fn(const double* x, double y)` — the exact sequence Materialize()
  /// packs, with zero allocation. Service::DoEvaluate scores through this
  /// view so an evaluate request never pays the O(n · d) copy.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (size_t slot = 0; slot < ys_.size(); ++slot) {
      if (!live_[slot]) continue;
      fn(xs_.data() + slot * dim_, ys_[slot]);
    }
  }

  /// Number of Materialize() calls on this store — the churn soak asserts
  /// the serving path stays at zero (evaluate must use ForEachLive).
  uint64_t materialize_count() const { return materialize_count_; }

  /// Shards Flush() has recomputed over this store's life — the work
  /// deletes and updates cost. Compaction and bulk inserts accumulate and
  /// do not count.
  uint64_t shard_recompute_count() const { return shard_recompute_count_; }

  /// Appends the full store state — tuples, liveness, id table, shard
  /// partials, raw double bytes — to `out` (snapshot payload). RestoreFrom
  /// reproduces the state bit-for-bit: the restored store
  /// StoreStateBitwiseEquals the original and assigns the same future ids.
  void SerializeTo(std::string* out) const;

  /// Replaces this store's state with a SerializeTo payload read from
  /// `reader`. kIoError when the payload's counters contradict its slots: a
  /// liveness byte other than 0 or 1, a live count or a shard tuple count
  /// that differs from the liveness bytes, or a next id the id table
  /// already holds. On failure the store is left in an unspecified state —
  /// the caller (snapshot recovery) discards it.
  Status RestoreFrom(io::ByteReader& reader);

  /// From-scratch reference rebuild: a fresh IncrementalObjective holding
  /// the same slots (including holes) and ids re-accumulated from the raw
  /// tuples on `pool`. By the class invariant its state — and therefore
  /// Objective() — is bit-identical to this one; tests and examples use it
  /// to verify incremental maintenance against a full recompute.
  IncrementalObjective RebuildFromScratch(exec::ThreadPool* pool = nullptr)
      const;

  /// Bitwise comparison of the tuple store and accumulator state: raw
  /// tuples, liveness, and every shard's (sum, comp) doubles compared by
  /// their bytes (so −0.0 ≠ +0.0 and NaNs compare by payload). TupleId
  /// assignment is deliberately excluded — ids encode insert history, which
  /// a fresh store fed the same tuples does not share. This is the
  /// observable form of the compaction contract: after Compact(),
  /// StoreStateBitwiseEquals(fresh store fed Materialize()) holds.
  bool StoreStateBitwiseEquals(const IncrementalObjective& other) const;

 private:
  // Validates one tuple against the §3 contract for kind_.
  Status ValidateTuple(const double* x, size_t dim, double y) const;

  // Binary-searches slot_to_id_ (strictly increasing) for `id`; fails with
  // kNotFound when the id was never assigned, was compacted away, or its
  // slot is dead.
  Result<size_t> FindLiveSlot(TupleId id) const;

  // The slots as the rows of sums_, read in place.
  core::ObjectiveRows rows() const;

  // Appends storage for one tuple (no accumulation) and assigns the next
  // TupleId. Returns the new physical slot.
  size_t AppendTuple(const double* x, double y);

  size_t dim_;
  core::ObjectiveKind kind_;
  std::vector<double> xs_;     // slot-major features, dim_ per slot
  std::vector<double> ys_;     // slot labels
  std::vector<uint8_t> live_;  // slot liveness
  size_t live_count_ = 0;
  // slot → TupleId. Strictly increasing (ids are assigned monotonically and
  // compaction preserves survivor order), so id → slot is a binary search.
  std::vector<TupleId> slot_to_id_;
  TupleId next_id_ = 0;  // never decremented — ids outlive compactions
  // Per-shard compensated partial coefficient sums over the live slots; a
  // shard's tuple count is its live-slot count. `mutable` because the
  // const readers flush stale shards first (see Flush()).
  mutable core::ShardedObjectiveSum sums_;
  mutable uint64_t shard_recompute_count_ = 0;
  // Materialize() call counter (diagnostic; see materialize_count()).
  // `mutable` because Materialize is const; reads/writes are serialized by
  // the same external synchronization the mutation API requires.
  mutable uint64_t materialize_count_ = 0;
};

}  // namespace fm::serve

#endif  // FM_SERVE_INCREMENTAL_OBJECTIVE_H_

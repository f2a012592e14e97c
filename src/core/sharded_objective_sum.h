#ifndef FM_CORE_SHARDED_OBJECTIVE_SUM_H_
#define FM_CORE_SHARDED_OBJECTIVE_SUM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "common/status.h"
#include "opt/quadratic_model.h"

namespace fm::exec {
class ThreadPool;
}  // namespace fm::exec

namespace fm::core {

/// Which per-tuple quadratic contribution an objective sum holds.
enum class ObjectiveKind {
  /// §4.2's exact linear-regression objective: tuple i contributes
  /// M_i = x_i x_iᵀ, α_i = −2 y_i x_i, β_i = y_i².
  kLinear,
  /// §5.3's degree-2 Taylor surrogate of the logistic objective: tuple i
  /// contributes M_i = ⅛ x_i x_iᵀ, α_i = (½ − y_i) x_i, β_i = log 2.
  kTruncatedLogistic,
};

/// Rows per shard. Fixed (never derived from the thread count), so shard
/// partial sums — and the serially-reduced totals built from them — are
/// bit-identical for every pool size.
inline constexpr size_t kObjectiveShardRows = 1024;

/// A tuple table read in place: row r has features xs[r·dim, (r+1)·dim) and
/// label ys[r]. With `live` set, rows whose live[r] is 0 are skipped.
struct ObjectiveRows {
  const double* xs = nullptr;
  const double* ys = nullptr;
  size_t count = 0;
  const uint8_t* live = nullptr;
};

/// The one implementation of the paper's central structural fact: both FM
/// objectives are plain sums of per-tuple quadratic contributions (§4.2,
/// §5.3). Holds one Neumaier-compensated (sum, comp) partial per shard —
/// the M upper triangle in row-major order, then α, then β — plus the
/// number of tuples summed into it. The offline fold cache
/// (ObjectiveAccumulator) and the online store (serve::IncrementalObjective)
/// both keep their sums here, so the determinism rule — which tuples land
/// in which shard, in what order, how batches are formed, and how shards
/// are reduced — lives in this one place:
///
///  - A shard's partial is the compensated in-order sum of its tuples,
///    batched through linalg::kernels::CompensatedTupleUpdate(Batch);
///    batching, and blocked vs scalar-reference mode (FM_BLOCKED_LINALG),
///    never change a bit (tests/kernels_test.cc).
///  - Row r's home shard is r / kObjectiveShardRows, so shard contents
///    depend only on the row index, never on the pool.
///  - Reduce() folds the non-empty shards serially in shard order.
///
/// A shard can be stale: MarkStale() defers its re-sum (a delete or an
/// update in the serving store) until Flush(), which re-sums every stale
/// shard at once. Its tuple count stays current throughout. The readers of
/// the partials — Reduce(), BitwiseEquals() and SerializeTo() — require
/// that no shard is stale; the caller flushes first.
///
/// Thread-compatibility: const methods may run concurrently; mutations,
/// Flush() among them, require external serialization.
class ShardedObjectiveSum {
 public:
  /// An empty sum (no shards) of `dim`-dimensional `kind` contributions.
  ShardedObjectiveSum(size_t dim, ObjectiveKind kind);

  size_t dim() const { return dim_; }
  ObjectiveKind kind() const { return kind_; }
  size_t num_shards() const { return shard_tuples_.size(); }
  /// Tuples `shard` sums — current even while the shard is stale.
  size_t shard_tuples(size_t shard) const { return shard_tuples_[shard]; }
  /// Shards holding at least one tuple — what Reduce() pays for.
  size_t nonempty_shards() const;

  /// Adds the rows [begin, end) of `rows` (live ones only) to `shard`, in
  /// row order, growing the shard list to reach `shard`.
  void Accumulate(size_t shard, const ObjectiveRows& rows, size_t begin,
                  size_t end);
  /// Adds the rows that `order` names, in list order, to `shard`.
  void Accumulate(size_t shard, const ObjectiveRows& rows,
                  const std::vector<size_t>& order);

  /// Marks `shard` stale and drops `removed` tuples from its count now: a
  /// delete (removed = 1) or an update (removed = 0) of one of its rows.
  /// Its partial is re-summed by the next Flush(), not here. Rows added to
  /// a stale shard still count at once; the flush overwrites the partial.
  void MarkStale(size_t shard, size_t removed);

  /// Resets every stale shard and re-sums the live rows of its home range,
  /// so each partial is again the in-order sum of its live rows. One
  /// exec::ParallelFor index per stale shard, in shard order, on `pool`
  /// (nullptr → the global FM_THREADS pool), with AccumulateShards' grain:
  /// each index is costed as a full shard of rows × coefficients, so a few
  /// stale shards re-sum inline and many fan out. Shards are independent,
  /// so the result is bit-identical for every pool size. Returns how many
  /// shards it re-summed.
  size_t Flush(const ObjectiveRows& rows, exec::ThreadPool* pool);

  /// Adds rows [begin, rows.count) to their home shards, growing the shard
  /// list to cover rows.count: one exec::ParallelFor index per touched shard
  /// on `pool` (nullptr → the global FM_THREADS pool), each shard summed in
  /// row order. The region's cost estimate is rows touched × coefficients,
  /// so a few-row append runs inline and a bootstrap or compaction of many
  /// full shards fans out. Shards are independent, so the result is
  /// bit-identical for every pool size.
  void AccumulateShards(const ObjectiveRows& rows, size_t begin,
                        exec::ThreadPool* pool);

  /// Folds the non-empty shards serially in shard order, compensation
  /// carried, into a one-shard sum of the totals. Empty shards hold exact
  /// (+0, +0) pairs, and folding +0.0 through the compensated add is the
  /// identity on every (sum, comp) this fold can reach — a running sum or
  /// compensation is only ever ±nonzero or +0.0 (x + y == −0.0 in
  /// round-to-nearest needs both operands −0.0, and every term starts from
  /// +0.0) — so skipping them cannot change a bit.
  ShardedObjectiveSum Reduce() const;

  /// Rounds a one-shard sum (such as Reduce()'s) into a QuadraticModel, M
  /// mirrored from its upper triangle.
  opt::QuadraticModel Round() const;

  /// Rounds this one-shard sum minus the one-shard `slice`, with both
  /// compensations carried through the subtraction: when `slice` sums a
  /// subset of this sum's tuples, every coefficient is within 1 ulp of the
  /// exact sum of the rest.
  opt::QuadraticModel RoundMinus(const ShardedObjectiveSum& slice) const;

  /// Bytewise comparison of every shard's (sum, comp) doubles and tuple
  /// count (so −0.0 ≠ +0.0 and NaNs compare by payload).
  bool BitwiseEquals(const ShardedObjectiveSum& other) const;

  /// Appends the shard count, then per shard its sums, its compensations
  /// and its tuple count as a u32.
  void SerializeTo(std::string* out) const;

  /// Replaces the shards with a SerializeTo payload; kIoError unless it
  /// holds exactly `expected_shards` shards.
  Status RestoreFrom(io::ByteReader& reader, size_t expected_shards);

 private:
  // The one in-order accumulate: adds rows row_at(0), ..., row_at(n − 1)
  // (skipping dead ones) to `shard`, full batches through the batch kernel.
  template <typename RowAt>
  void AccumulateInOrder(size_t shard, const ObjectiveRows& rows, size_t n,
                         RowAt row_at);

  // Grows the shard list to `shards` zeroed shards (never shrinks).
  void Grow(size_t shards);

  // Resets `shard` and re-sums the live rows of its home range.
  void RecomputeShard(size_t shard, const ObjectiveRows& rows);

  size_t dim_;
  ObjectiveKind kind_;
  size_t coefficients_;  // d(d+1)/2 + d + 1 per shard
  // Per shard: compensated partial sums, their Neumaier compensation terms,
  // and the number of tuples summed.
  std::vector<std::vector<double>> sums_;
  std::vector<std::vector<double>> comps_;
  std::vector<size_t> shard_tuples_;
  // Shards whose partials await the next Flush(), ascending, no repeats.
  std::vector<size_t> stale_;
};

}  // namespace fm::core

#endif  // FM_CORE_SHARDED_OBJECTIVE_SUM_H_

#include "serve/incremental_objective.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace fm::serve {

namespace {

// Matches data::RegressionDataset::SatisfiesNormalizationContract.
constexpr double kContractTolerance = 1e-9;

// Releases a vector's excess capacity after it has been trimmed: the
// shrink-to-fit swap idiom, spelled out so compaction provably returns
// memory to O(live) instead of relying on the non-binding
// std::vector::shrink_to_fit.
template <typename T>
void ReleaseExcessCapacity(std::vector<T>& v) {
  if (v.capacity() > v.size()) std::vector<T>(v).swap(v);
}

}  // namespace

IncrementalObjective::IncrementalObjective(size_t dim,
                                           core::ObjectiveKind kind)
    : dim_(dim), kind_(kind), sums_(dim, kind) {}

core::ObjectiveRows IncrementalObjective::rows() const {
  return {xs_.data(), ys_.data(), ys_.size(), live_.data()};
}

Status IncrementalObjective::ValidateTuple(const double* x, size_t dim,
                                           double y) const {
  if (dim != dim_) {
    return Status::InvalidArgument(
        "tuple dimensionality " + std::to_string(dim) +
        " does not match the store's " + std::to_string(dim_));
  }
  double norm_sq = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    if (!std::isfinite(x[j])) {
      return Status::InvalidArgument("feature values must be finite");
    }
    norm_sq += x[j] * x[j];
  }
  if (norm_sq > (1.0 + kContractTolerance) * (1.0 + kContractTolerance)) {
    return Status::InvalidArgument(
        "‖x‖₂ > 1 violates the §3 normalization contract; run tuples "
        "through data::Normalizer first");
  }
  if (!std::isfinite(y)) {
    return Status::InvalidArgument("label must be finite");
  }
  switch (kind_) {
    case core::ObjectiveKind::kLinear:
      if (y < -1.0 - kContractTolerance || y > 1.0 + kContractTolerance) {
        return Status::InvalidArgument(
            "linear-task label outside [−1, 1] violates the §3 contract");
      }
      break;
    case core::ObjectiveKind::kTruncatedLogistic:
      if (y != 0.0 && y != 1.0) {
        return Status::InvalidArgument(
            "logistic-task label must be 0 or 1");
      }
      break;
  }
  return Status::OK();
}

Result<size_t> IncrementalObjective::FindLiveSlot(TupleId id) const {
  const auto it =
      std::lower_bound(slot_to_id_.begin(), slot_to_id_.end(), id);
  if (it == slot_to_id_.end() || *it != id) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  const size_t slot = static_cast<size_t>(it - slot_to_id_.begin());
  if (!live_[slot]) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  return slot;
}

bool IncrementalObjective::Contains(TupleId id) const {
  return FindLiveSlot(id).ok();
}

size_t IncrementalObjective::AppendTuple(const double* x, double y) {
  const size_t slot = ys_.size();
  xs_.insert(xs_.end(), x, x + dim_);
  ys_.push_back(y);
  live_.push_back(1);
  slot_to_id_.push_back(next_id_++);
  ++live_count_;
  return slot;
}

Result<TupleId> IncrementalObjective::Insert(const double* x, size_t dim,
                                             double y) {
  FM_RETURN_NOT_OK(ValidateTuple(x, dim, y));
  const size_t slot = AppendTuple(x, y);
  // Appending this tuple's compensated contribution is exactly the next
  // step of a from-scratch in-order accumulation of the shard's live slots,
  // so the class invariant is preserved bitwise.
  sums_.Accumulate(slot / core::kObjectiveShardRows, rows(), slot, slot + 1);
  return slot_to_id_[slot];
}

Result<TupleId> IncrementalObjective::Insert(const linalg::Vector& x,
                                             double y) {
  return Insert(x.raw(), x.size(), y);
}

Result<TupleId> IncrementalObjective::InsertBatch(
    const data::RegressionDataset& tuples, exec::ThreadPool* pool) {
  if (tuples.size() == 0) {
    return Status::InvalidArgument("empty insert batch");
  }
  // Validate everything before mutating anything, so a rejected batch
  // leaves the store untouched.
  for (size_t i = 0; i < tuples.size(); ++i) {
    Status status = ValidateTuple(tuples.x.Row(i), tuples.dim(), tuples.y[i]);
    if (!status.ok()) {
      return Status(status.code(), "batch row " + std::to_string(i) + ": " +
                                       status.message());
    }
  }

  const size_t first = ys_.size();
  for (size_t i = 0; i < tuples.size(); ++i) {
    AppendTuple(tuples.x.Row(i), tuples.y[i]);
  }
  // Each affected shard's partials gain its new slots' contributions in slot
  // order — the same per-shard sequence the serial Insert loop performs.
  sums_.AccumulateShards(rows(), first, pool);
  return slot_to_id_[first];
}

Status IncrementalObjective::Delete(TupleId id) {
  FM_ASSIGN_OR_RETURN(const size_t slot, FindLiveSlot(id));
  live_[slot] = 0;
  --live_count_;
  // Scrub the dead tuple's raw values — a deleted private record must not
  // stay resident. The slot itself is retained (ids stay stable) until the
  // next compaction physically frees it.
  std::fill(xs_.begin() + static_cast<ptrdiff_t>(slot * dim_),
            xs_.begin() + static_cast<ptrdiff_t>((slot + 1) * dim_), 0.0);
  ys_[slot] = 0.0;
  // Per-shard recompute (not compensated subtraction), deferred to the next
  // Flush(): the shard's state returns to exactly the compensated in-order
  // sum of its remaining live tuples before anything reads it, keeping the
  // invariant bitwise — see the class comment and docs/DETERMINISM.md.
  sums_.MarkStale(slot / core::kObjectiveShardRows, 1);
  return Status::OK();
}

Status IncrementalObjective::Update(TupleId id, const double* x, size_t dim,
                                    double y) {
  FM_ASSIGN_OR_RETURN(const size_t slot, FindLiveSlot(id));
  FM_RETURN_NOT_OK(ValidateTuple(x, dim, y));
  std::memcpy(xs_.data() + slot * dim_, x, dim_ * sizeof(double));
  ys_[slot] = y;
  sums_.MarkStale(slot / core::kObjectiveShardRows, 0);
  return Status::OK();
}

void IncrementalObjective::Flush(exec::ThreadPool* pool) const {
  shard_recompute_count_ += sums_.Flush(rows(), pool);
}

size_t IncrementalObjective::Compact(exec::ThreadPool* pool) {
  const size_t old_slots = ys_.size();
  if (old_slots == live_count_) {
    // Dense already. A never-holed (or freshly compacted) store is by
    // construction in the fresh-store layout; leaving it untouched keeps
    // Compact() idempotent and bitwise a no-op.
    return 0;
  }
  // Slide the survivors down in slot order. Relative order is preserved, so
  // slot_to_id_ stays strictly increasing and every surviving id resolves.
  size_t write = 0;
  for (size_t slot = 0; slot < old_slots; ++slot) {
    if (!live_[slot]) continue;
    if (write != slot) {
      std::memmove(xs_.data() + write * dim_, xs_.data() + slot * dim_,
                   dim_ * sizeof(double));
      ys_[write] = ys_[slot];
      slot_to_id_[write] = slot_to_id_[slot];
    }
    ++write;
  }
  xs_.resize(write * dim_);
  ys_.resize(write);
  slot_to_id_.resize(write);
  live_.assign(write, 1);
  ReleaseExcessCapacity(xs_);
  ReleaseExcessCapacity(ys_);
  ReleaseExcessCapacity(slot_to_id_);
  ReleaseExcessCapacity(live_);

  // Rebuild every shard partial from scratch over the dense layout — the
  // same per-shard accumulation a fresh store fed these tuples in order
  // would have performed (shard boundaries depend only on the slot index),
  // so the post-compaction state is bit-identical to that fresh store for
  // every pool size. Stale shards are rebuilt like the rest.
  sums_ = core::ShardedObjectiveSum(dim_, kind_);
  sums_.AccumulateShards(rows(), 0, pool);
  return old_slots - write;
}

opt::QuadraticModel IncrementalObjective::Objective() const {
  Flush();
  return sums_.Reduce().Round();
}

data::RegressionDataset IncrementalObjective::Materialize() const {
  ++materialize_count_;
  data::RegressionDataset out;
  out.x = linalg::Matrix(live_count_, dim_);
  out.y = linalg::Vector(live_count_);
  size_t row = 0;
  for (size_t slot = 0; slot < ys_.size(); ++slot) {
    if (!live_[slot]) continue;
    std::memcpy(out.x.Row(row), xs_.data() + slot * dim_,
                dim_ * sizeof(double));
    out.y[row] = ys_[slot];
    ++row;
  }
  return out;
}

IncrementalObjective IncrementalObjective::RebuildFromScratch(
    exec::ThreadPool* pool) const {
  IncrementalObjective fresh(dim_, kind_);
  fresh.xs_ = xs_;
  fresh.ys_ = ys_;
  fresh.live_ = live_;
  fresh.live_count_ = live_count_;
  fresh.slot_to_id_ = slot_to_id_;
  fresh.next_id_ = next_id_;
  fresh.sums_.AccumulateShards(fresh.rows(), 0, pool);
  return fresh;
}

bool IncrementalObjective::StoreStateBitwiseEquals(
    const IncrementalObjective& other) const {
  Flush();
  other.Flush();
  const auto doubles_equal = [](const std::vector<double>& a,
                                const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  return dim_ == other.dim_ && kind_ == other.kind_ &&
         live_count_ == other.live_count_ && live_ == other.live_ &&
         doubles_equal(xs_, other.xs_) && doubles_equal(ys_, other.ys_) &&
         sums_.BitwiseEquals(other.sums_);
}

void IncrementalObjective::SerializeTo(std::string* out) const {
  Flush();
  io::AppendU64(out, dim_);
  io::AppendU8(out, static_cast<uint8_t>(kind_));
  io::AppendU64(out, next_id_);
  io::AppendU64(out, live_count_);
  io::AppendU64(out, ys_.size());
  io::AppendDoubleArray(out, xs_.data(), xs_.size());
  io::AppendDoubleArray(out, ys_.data(), ys_.size());
  io::AppendBytes(out, live_.data(), live_.size());
  for (const TupleId id : slot_to_id_) io::AppendU64(out, id);
  sums_.SerializeTo(out);
}

Status IncrementalObjective::RestoreFrom(io::ByteReader& reader) {
  uint64_t dim = 0;
  uint8_t kind = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&dim));
  FM_RETURN_NOT_OK(reader.ReadU8(&kind));
  if (dim != dim_ || static_cast<core::ObjectiveKind>(kind) != kind_) {
    return Status::IoError(
        "snapshot store dimensionality/kind does not match this service");
  }
  uint64_t next_id = 0;
  uint64_t live_count = 0;
  uint64_t slots = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&next_id));
  FM_RETURN_NOT_OK(reader.ReadU64(&live_count));
  FM_RETURN_NOT_OK(reader.ReadU64(&slots));
  next_id_ = next_id;
  live_count_ = static_cast<size_t>(live_count);
  const size_t slot_count = static_cast<size_t>(slots);
  FM_RETURN_NOT_OK(reader.ReadDoubleArray(&xs_, slot_count * dim_));
  FM_RETURN_NOT_OK(reader.ReadDoubleArray(&ys_, slot_count));
  live_.resize(slot_count);
  FM_RETURN_NOT_OK(reader.ReadBytes(live_.data(), slot_count));
  slot_to_id_.resize(slot_count);
  for (size_t i = 0; i < slot_count; ++i) {
    FM_RETURN_NOT_OK(reader.ReadU64(&slot_to_id_[i]));
    if (i > 0 && slot_to_id_[i] <= slot_to_id_[i - 1]) {
      return Status::IoError("snapshot id table is not strictly increasing");
    }
  }
  size_t live_slots = 0;
  for (size_t slot = 0; slot < slot_count; ++slot) {
    if (live_[slot] > 1) {
      return Status::IoError("snapshot liveness byte is neither 0 nor 1");
    }
    live_slots += live_[slot];
  }
  if (live_slots != live_count_) {
    return Status::IoError(
        "snapshot live count does not match its liveness bytes");
  }
  if (slot_count > 0 && next_id_ <= slot_to_id_.back()) {
    return Status::IoError("snapshot next id does not exceed its id table");
  }
  const size_t shards =
      (slot_count + core::kObjectiveShardRows - 1) / core::kObjectiveShardRows;
  FM_RETURN_NOT_OK(sums_.RestoreFrom(reader, shards));
  // Objective() skips shards by their tuple counts, so each must equal the
  // live slots its partial claims to sum.
  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = s * core::kObjectiveShardRows;
    const size_t end = std::min(slot_count, begin + core::kObjectiveShardRows);
    const size_t live_in_shard = static_cast<size_t>(
        std::count(live_.begin() + static_cast<ptrdiff_t>(begin),
                   live_.begin() + static_cast<ptrdiff_t>(end), uint8_t{1}));
    if (sums_.shard_tuples(s) != live_in_shard) {
      return Status::IoError(
          "snapshot shard live count does not match its liveness bytes");
    }
  }
  return Status::OK();
}

}  // namespace fm::serve

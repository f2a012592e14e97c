#include "core/sharded_objective_sum.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "core/taylor.h"
#include "exec/parallel.h"
#include "linalg/kernels.h"

namespace fm::core {

namespace {

// What one tuple costs per coefficient in the compensated accumulate kernel
// (0.6–1.3 ns/coefficient measured at d = 14, with and without
// -march=native), for the dispatch grain in AccumulateShards and Flush.
constexpr double kNanosPerCoefficient = 1.0;

// Neumaier's variant of Kahan summation: sum += v with the rounding error
// banked in comp. Unlike plain Kahan it stays exact when |v| > |sum|.
inline void CompensatedAdd(double& sum, double& comp, double v) {
  const double t = sum + v;
  if (std::fabs(sum) >= std::fabs(v)) {
    comp += (sum - t) + v;
  } else {
    comp += (v - t) + sum;
  }
  sum = t;
}

// The per-tuple coefficient weights of `kind` for label `y`: tuple x
// contributes m_scale · x xᵀ to M, alpha_bias · x to α, and beta to β.
void ObjectiveTupleParams(ObjectiveKind kind, double y, double* m_scale,
                          double* alpha_bias, double* beta) {
  switch (kind) {
    case ObjectiveKind::kLinear:
      // (y − xᵀω)² = ωᵀ(x xᵀ)ω − 2y xᵀω + y².
      *m_scale = 1.0;
      *alpha_bias = -2.0 * y;
      *beta = y * y;
      break;
    case ObjectiveKind::kTruncatedLogistic:
    default:
      // log2 + ½xᵀω + ⅛(xᵀω)² − y·xᵀω  (Equation 10 summed per tuple).
      *m_scale = LogisticF1SecondDerivative0() / 2.0;  // 1/8
      *alpha_bias = LogisticF1Derivative0() - y;       // ½ − y
      *beta = LogisticF1Value0();                      // log 2
      break;
  }
}

// Adds one tuple's contribution — M's upper triangle at m_scale, then α at
// alpha_bias, then β — through one fused kernel call, compensation applied
// per tuple. Both kernel modes are bit-identical to each other.
void AccumulateTuple(ObjectiveKind kind, const double* x, size_t dim,
                     double y, double* sum, double* comp) {
  double m_scale, alpha_bias, beta;
  ObjectiveTupleParams(kind, y, &m_scale, &alpha_bias, &beta);
  if (linalg::kernels::BlockedEnabled()) {
    linalg::kernels::CompensatedTupleUpdate(sum, comp, x, dim, m_scale,
                                            alpha_bias, beta);
  } else {
    linalg::kernels::RefCompensatedTupleUpdate(sum, comp, x, dim, m_scale,
                                               alpha_bias, beta);
  }
}

// Adds kCompensatedBatch tuples in one fused sweep (amortizing the
// coefficient-stream loads). Bit-identical to the same sequence of
// AccumulateTuple calls.
void AccumulateTupleBatch(ObjectiveKind kind, const double* const* xs,
                          size_t dim, const double* ys, double* sum,
                          double* comp) {
  constexpr size_t kB = linalg::kernels::kCompensatedBatch;
  double alpha_bias[kB], beta[kB];
  double m_scale = 0.0;
  for (size_t r = 0; r < kB; ++r) {
    ObjectiveTupleParams(kind, ys[r], &m_scale, &alpha_bias[r], &beta[r]);
  }
  if (linalg::kernels::BlockedEnabled()) {
    linalg::kernels::CompensatedTupleUpdateBatch(sum, comp, xs, dim, m_scale,
                                                 alpha_bias, beta);
  } else {
    linalg::kernels::RefCompensatedTupleUpdateBatch(sum, comp, xs, dim,
                                                    m_scale, alpha_bias, beta);
  }
}

opt::QuadraticModel RoundCoefficients(size_t dim, const double* sum,
                                      const double* comp) {
  opt::QuadraticModel model;
  model.m = linalg::Matrix(dim, dim);
  model.alpha = linalg::Vector(dim);
  size_t idx = 0;
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = i; j < dim; ++j, ++idx) {
      const double value = sum[idx] + comp[idx];
      model.m(i, j) = value;
      model.m(j, i) = value;
    }
  }
  for (size_t j = 0; j < dim; ++j, ++idx) {
    model.alpha[j] = sum[idx] + comp[idx];
  }
  model.beta = sum[idx] + comp[idx];
  return model;
}

}  // namespace

ShardedObjectiveSum::ShardedObjectiveSum(size_t dim, ObjectiveKind kind)
    : dim_(dim), kind_(kind), coefficients_(dim * (dim + 1) / 2 + dim + 1) {}

size_t ShardedObjectiveSum::nonempty_shards() const {
  return static_cast<size_t>(std::count_if(
      shard_tuples_.begin(), shard_tuples_.end(),
      [](size_t tuples) { return tuples > 0; }));
}

void ShardedObjectiveSum::Grow(size_t shards) {
  while (num_shards() < shards) {
    sums_.emplace_back(coefficients_, 0.0);
    comps_.emplace_back(coefficients_, 0.0);
    shard_tuples_.push_back(0);
  }
}

template <typename RowAt>
void ShardedObjectiveSum::AccumulateInOrder(size_t shard,
                                            const ObjectiveRows& rows,
                                            size_t n, RowAt row_at) {
  Grow(shard + 1);
  double* sum = sums_[shard].data();
  double* comp = comps_[shard].data();
  constexpr size_t kB = linalg::kernels::kCompensatedBatch;
  const double* batch_xs[kB];
  double batch_ys[kB];
  size_t filled = 0;
  size_t added = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = row_at(i);
    FM_CHECK(row < rows.count);
    if (rows.live != nullptr && rows.live[row] == 0) continue;
    batch_xs[filled] = rows.xs + row * dim_;
    batch_ys[filled] = rows.ys[row];
    ++added;
    if (++filled == kB) {
      AccumulateTupleBatch(kind_, batch_xs, dim_, batch_ys, sum, comp);
      filled = 0;
    }
  }
  for (size_t r = 0; r < filled; ++r) {
    AccumulateTuple(kind_, batch_xs[r], dim_, batch_ys[r], sum, comp);
  }
  shard_tuples_[shard] += added;
}

void ShardedObjectiveSum::Accumulate(size_t shard, const ObjectiveRows& rows,
                                     size_t begin, size_t end) {
  FM_CHECK(begin <= end);
  AccumulateInOrder(shard, rows, end - begin,
                    [begin](size_t i) { return begin + i; });
}

void ShardedObjectiveSum::Accumulate(size_t shard, const ObjectiveRows& rows,
                                     const std::vector<size_t>& order) {
  AccumulateInOrder(shard, rows, order.size(),
                    [&order](size_t i) { return order[i]; });
}

void ShardedObjectiveSum::RecomputeShard(size_t shard,
                                         const ObjectiveRows& rows) {
  const size_t tuples = shard_tuples_[shard];
  std::fill(sums_[shard].begin(), sums_[shard].end(), 0.0);
  std::fill(comps_[shard].begin(), comps_[shard].end(), 0.0);
  shard_tuples_[shard] = 0;
  const size_t begin = shard * kObjectiveShardRows;
  Accumulate(shard, rows, begin,
             std::min(rows.count, begin + kObjectiveShardRows));
  // The count was kept current while the shard was stale.
  FM_DCHECK(shard_tuples_[shard] == tuples);
}

void ShardedObjectiveSum::MarkStale(size_t shard, size_t removed) {
  FM_CHECK(shard < num_shards() && removed <= shard_tuples_[shard]);
  shard_tuples_[shard] -= removed;
  const auto it = std::lower_bound(stale_.begin(), stale_.end(), shard);
  if (it == stale_.end() || *it != shard) stale_.insert(it, shard);
}

size_t ShardedObjectiveSum::Flush(const ObjectiveRows& rows,
                                  exec::ThreadPool* pool) {
  const size_t stale = stale_.size();
  if (stale == 0) return 0;
  // Cost estimate for the dispatch grain: a stale shard re-sums its whole
  // home range, every row sweeping each coefficient once.
  const double index_nanos = static_cast<double>(kObjectiveShardRows) *
                             static_cast<double>(coefficients_) *
                             kNanosPerCoefficient;
  exec::ParallelFor(
      stale, [&](size_t i) { RecomputeShard(stale_[i], rows); },
      pool != nullptr ? *pool : exec::ThreadPool::Global(), index_nanos);
  stale_.clear();
  return stale;
}

void ShardedObjectiveSum::AccumulateShards(const ObjectiveRows& rows,
                                           size_t begin,
                                           exec::ThreadPool* pool) {
  if (begin >= rows.count) return;
  const size_t first = begin / kObjectiveShardRows;
  const size_t last = (rows.count - 1) / kObjectiveShardRows;
  // Allocate every shard up front so the parallel tasks never grow the list.
  Grow(last + 1);
  // Cost estimate for the dispatch grain: every touched row (dead ones are
  // skipped, but cheaply) sweeps each coefficient once.
  const size_t num_touched = last - first + 1;
  const double index_nanos =
      static_cast<double>(rows.count - begin) *
      static_cast<double>(coefficients_) * kNanosPerCoefficient /
      static_cast<double>(num_touched);
  exec::ParallelFor(
      num_touched,
      [&](size_t i) {
        const size_t shard = first + i;
        const size_t shard_begin = shard * kObjectiveShardRows;
        Accumulate(shard, rows, std::max(begin, shard_begin),
                   std::min(rows.count, shard_begin + kObjectiveShardRows));
      },
      pool != nullptr ? *pool : exec::ThreadPool::Global(), index_nanos);
}

ShardedObjectiveSum ShardedObjectiveSum::Reduce() const {
  FM_CHECK(stale_.empty());
  ShardedObjectiveSum totals(dim_, kind_);
  totals.Grow(1);
  std::vector<double>& sum = totals.sums_[0];
  std::vector<double>& comp = totals.comps_[0];
  for (size_t s = 0; s < num_shards(); ++s) {
    if (shard_tuples_[s] == 0) continue;
    for (size_t idx = 0; idx < coefficients_; ++idx) {
      CompensatedAdd(sum[idx], comp[idx], sums_[s][idx]);
      comp[idx] += comps_[s][idx];
    }
    totals.shard_tuples_[0] += shard_tuples_[s];
  }
  return totals;
}

opt::QuadraticModel ShardedObjectiveSum::Round() const {
  FM_CHECK(num_shards() == 1);
  return RoundCoefficients(dim_, sums_[0].data(), comps_[0].data());
}

opt::QuadraticModel ShardedObjectiveSum::RoundMinus(
    const ShardedObjectiveSum& slice) const {
  FM_CHECK(num_shards() == 1 && slice.num_shards() == 1 &&
           slice.coefficients_ == coefficients_);
  // What the subtraction cancels the compensation terms restore, so no
  // catastrophic cancellation can surface.
  std::vector<double> sum(sums_[0]);
  std::vector<double> comp(coefficients_);
  for (size_t idx = 0; idx < coefficients_; ++idx) {
    comp[idx] = comps_[0][idx] - slice.comps_[0][idx];
    CompensatedAdd(sum[idx], comp[idx], -slice.sums_[0][idx]);
  }
  return RoundCoefficients(dim_, sum.data(), comp.data());
}

bool ShardedObjectiveSum::BitwiseEquals(
    const ShardedObjectiveSum& other) const {
  const auto doubles_equal = [](const std::vector<double>& a,
                                const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  FM_CHECK(stale_.empty() && other.stale_.empty());
  if (dim_ != other.dim_ || kind_ != other.kind_ ||
      shard_tuples_ != other.shard_tuples_) {
    return false;
  }
  for (size_t s = 0; s < num_shards(); ++s) {
    if (!doubles_equal(sums_[s], other.sums_[s]) ||
        !doubles_equal(comps_[s], other.comps_[s])) {
      return false;
    }
  }
  return true;
}

void ShardedObjectiveSum::SerializeTo(std::string* out) const {
  FM_CHECK(stale_.empty());
  io::AppendU64(out, num_shards());
  for (size_t s = 0; s < num_shards(); ++s) {
    io::AppendDoubleArray(out, sums_[s].data(), coefficients_);
    io::AppendDoubleArray(out, comps_[s].data(), coefficients_);
    io::AppendU32(out, static_cast<uint32_t>(shard_tuples_[s]));
  }
}

Status ShardedObjectiveSum::RestoreFrom(io::ByteReader& reader,
                                        size_t expected_shards) {
  uint64_t shards = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&shards));
  if (shards != expected_shards) {
    return Status::IoError("snapshot shard count does not match its slots");
  }
  stale_.clear();
  sums_.resize(expected_shards);
  comps_.resize(expected_shards);
  shard_tuples_.resize(expected_shards);
  for (size_t s = 0; s < expected_shards; ++s) {
    FM_RETURN_NOT_OK(reader.ReadDoubleArray(&sums_[s], coefficients_));
    FM_RETURN_NOT_OK(reader.ReadDoubleArray(&comps_[s], coefficients_));
    uint32_t tuples = 0;
    FM_RETURN_NOT_OK(reader.ReadU32(&tuples));
    shard_tuples_[s] = tuples;
  }
  return Status::OK();
}

}  // namespace fm::core

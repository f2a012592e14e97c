#ifndef FM_CORE_OBJECTIVE_ACCUMULATOR_H_
#define FM_CORE_OBJECTIVE_ACCUMULATOR_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/sharded_objective_sum.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "opt/quadratic_model.h"

namespace fm::core {

/// The objective kind that the §7 evaluation uses for `task`.
ObjectiveKind ObjectiveKindForTask(data::TaskKind task);

/// Fold-decomposable objective cache — the algorithmic core of the k-fold
/// speedup. Both regression objectives are plain sums of per-tuple quadratic
/// contributions (§4.2, §5.3), so a fold's training objective is the
/// dataset-global sum minus the held-out tuples' contribution:
///
///   f_train(ω) = f_D(ω) − f_test(ω).
///
/// The accumulator sums every tuple's contribution exactly once per dataset
/// — a ShardedObjectiveSum over the dataset's rows, read in place, built in
/// parallel over fixed-size row shards and reduced serially in shard order,
/// so the totals are bit-identical for every thread count — and then
/// derives each fold's training objective in O(|test| · d²) instead of
/// O(|train| · d²). Over a k-fold repeat that turns (k−1)·n tuple visits
/// into n, and the global pass itself is shared by all repeats.
///
/// Every coefficient is kept as a Neumaier compensated (sum, error) pair,
/// the compensation is applied per tuple, and it is carried through the
/// subtraction, so the derived training objective is a faithful rounding of
/// the exact tuple sum (within 1 ulp per coefficient) — the test fold is
/// only 1/k of the data, so the subtraction loses at most a factor k/(k−1)
/// of magnitude and the compensation absorbs what little cancellation
/// occurs.
///
/// The accumulator keeps a pointer to the dataset it was built from (to read
/// test-slice tuples); the dataset must outlive it.
class ObjectiveAccumulator {
 public:
  /// Sums all tuple contributions of `dataset` on `pool` (nullptr → the
  /// global FM_THREADS pool). O(n · d²), one pass.
  static ObjectiveAccumulator Build(const data::RegressionDataset& dataset,
                                    ObjectiveKind kind,
                                    exec::ThreadPool* pool = nullptr);

  ObjectiveKind kind() const { return totals_.kind(); }
  /// Feature dimensionality d.
  size_t dim() const { return totals_.dim(); }
  /// Number of tuples accumulated.
  size_t size() const { return dataset_->size(); }

  /// The rounded dataset-global objective — equal to BuildLinearObjective /
  /// BuildTruncatedLogisticObjective on the full dataset up to summation
  /// order (and more accurate, being compensated).
  opt::QuadraticModel Global() const { return totals_.Round(); }

  /// The training objective of the fold whose held-out (test) tuples are
  /// `test_rows`: the cached global sum minus the test slice's contribution,
  /// with compensation carried through the subtraction. O(|test_rows| · d²).
  opt::QuadraticModel TrainObjectiveForFold(
      const std::vector<size_t>& test_rows) const;

 private:
  ObjectiveAccumulator(const data::RegressionDataset& dataset,
                       ShardedObjectiveSum totals)
      : dataset_(&dataset), totals_(std::move(totals)) {}

  const data::RegressionDataset* dataset_;
  ShardedObjectiveSum totals_;  // the reduced shard sums: one shard
};

}  // namespace fm::core

#endif  // FM_CORE_OBJECTIVE_ACCUMULATOR_H_

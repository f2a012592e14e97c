#include "core/objective_accumulator.h"

namespace fm::core {

namespace {

// The dataset's tuples, read in place: no O(n · d) copy.
ObjectiveRows RowsOf(const data::RegressionDataset& dataset) {
  return {dataset.x.data().data(), dataset.y.raw(), dataset.size(), nullptr};
}

}  // namespace

ObjectiveKind ObjectiveKindForTask(data::TaskKind task) {
  return task == data::TaskKind::kLinear ? ObjectiveKind::kLinear
                                         : ObjectiveKind::kTruncatedLogistic;
}

ObjectiveAccumulator ObjectiveAccumulator::Build(
    const data::RegressionDataset& dataset, ObjectiveKind kind,
    exec::ThreadPool* pool) {
  ShardedObjectiveSum shards(dataset.dim(), kind);
  shards.AccumulateShards(RowsOf(dataset), 0, pool);
  return ObjectiveAccumulator(dataset, shards.Reduce());
}

opt::QuadraticModel ObjectiveAccumulator::TrainObjectiveForFold(
    const std::vector<size_t>& test_rows) const {
  ShardedObjectiveSum slice(dim(), kind());
  slice.Accumulate(0, RowsOf(*dataset_), test_rows);
  return totals_.RoundMinus(slice);
}

}  // namespace fm::core

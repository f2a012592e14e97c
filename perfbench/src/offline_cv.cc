// offline-cv: the §7 experiment engine. Each call cross-validates FM on the
// US census at the paper's defaults (d=14, sampling rate 0.6, scale 0.5),
// once for the linear task and once for the logistic task, 5 folds x 4
// repeats each.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/fm_algorithm.h"
#include "common/rng.h"
#include "core/fm_linear.h"
#include "core/fm_logistic.h"
#include "core/functional_mechanism.h"
#include "core/objective_accumulator.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "eval/cross_validation.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fm::Rng;
using fm::data::TaskKind;
namespace fs = std::filesystem;

struct OfflineWorkload {
  double scale = 0.5;
  int dims = fm::eval::ParameterGrid::kDefaultDimensionality;
  double sampling_rate = fm::eval::ParameterGrid::kDefaultSamplingRate;
  double epsilon = fm::eval::ParameterGrid::kDefaultEpsilon;
  size_t folds = 5;
  size_t repeats = 4;
  size_t warmup_calls = 1;
  size_t timed_calls = 0;
  double round_seconds = 0.0;  // nominal; sets the round count only
  double tail_cap = 80.0;
  /// Quantile over rounds that the call profile takes (CallProfile): the
  /// median, because each call waits for all of the pool's workers (see
  /// the serve-mixed workload).
  double profile_quantile = 0.5;
  size_t replay_calls = 0;     // timed calls the traced run replays
};

OfflineWorkload Offline(bool smoke) {
  OfflineWorkload w;
  w.scale = smoke ? 0.02 : 0.5;
  w.timed_calls = smoke ? 4 : 13;
  w.round_seconds = 1.25;
  w.replay_calls = smoke ? 1 : 2;
  return w;
}

constexpr TaskKind kTasks[] = {TaskKind::kLinear, TaskKind::kLogistic};

struct Prepared {
  fm::data::RegressionDataset task[2];
};

struct CvCall {
  fm::Result<fm::eval::CvResult> result[2] = {
      fm::Status::Internal("not run"), fm::Status::Internal("not run")};
};

// The fields of a CvResult that the determinism contract covers: all but
// mean_train_seconds, which is a measured time.
void DigestResult(Digest& d, const fm::eval::CvResult& r, bool flip) {
  uint64_t bits = 0;
  std::memcpy(&bits, &r.mean_error, sizeof bits);
  d.U64(flip ? bits ^ 1u : bits);
  d.F64(r.stddev_error);
  d.U64(r.evaluations);
  d.U64(r.failures);
}

struct Round {
  double setup_s = 0.0;
  std::vector<double> call_us;
  double call_seconds = 0.0;
  uint64_t folds = 0;
  uint64_t digest = 0;
  uint64_t first_digest = 0;  // the first call only
  double rss_mb = 0.0;
  uint64_t pool_tasks = 0;
  int64_t pool_task_nanos = 0;
  std::vector<CvCall> timed_results;  // kept for the layer replay
};

class OfflineBench {
 public:
  OfflineBench(const OfflineWorkload& w, const RunOptions& run, Report& report)
      : w_(w),
        run_(run),
        report_(report),
        pool_(fm::exec::ThreadPool::DefaultThreadCount()) {
    fm_options_.epsilon = w.epsilon;
  }

  void Run();

 private:
  bool SetUp(Prepared* out);
  fm::eval::CvOptions Cv(size_t call, fm::exec::ThreadPool& pool) const {
    fm::eval::CvOptions cv;
    cv.folds = w_.folds;
    cv.repeats = w_.repeats;
    cv.seed = fm::DeriveSeed(run_.seed, 100 + call);
    cv.pool = &pool;
    cv.use_objective_cache = true;
    return cv;
  }
  CvCall Call(const Prepared& data, size_t call, fm::exec::ThreadPool& pool,
              TraceLog* log) const;
  Round RunRound(fm::exec::ThreadPool& pool, size_t calls, bool flip,
                 TraceLog* log, bool replay);
  void ReplayLayers(const Prepared& data, const Round& traced, TraceLog* log);

  const OfflineWorkload& w_;
  const RunOptions& run_;
  Report& report_;
  fm::exec::ThreadPool pool_;
  fm::core::FmOptions fm_options_;
};

bool OfflineBench::SetUp(Prepared* out) {
  const size_t rows = static_cast<size_t>(std::llround(
      w_.scale *
      static_cast<double>(fm::data::CensusGenerator::US().default_rows)));
  auto table = fm::data::CensusGenerator::Generate(
      fm::data::CensusGenerator::US(), rows, fm::DeriveSeed(run_.seed, 0));
  if (!table.ok()) {
    report_.Fail("census generation: " + table.status().ToString());
    return false;
  }
  for (size_t t = 0; t < 2; ++t) {
    auto prepared =
        fm::eval::PrepareTask(table.ValueOrDie(), w_.dims, kTasks[t]);
    if (!prepared.ok()) {
      report_.Fail("PrepareTask: " + prepared.status().ToString());
      return false;
    }
    Rng sample_rng(fm::DeriveSeed(run_.seed, 7000 + t));
    out->task[t] = prepared.ValueOrDie().Sample(w_.sampling_rate, sample_rng);
  }
  return true;
}

CvCall OfflineBench::Call(const Prepared& data, size_t call,
                          fm::exec::ThreadPool& pool, TraceLog* log) const {
  CvCall out;
  const fm::baselines::FmAlgorithm fm_algorithm(fm_options_);
  for (size_t t = 0; t < 2; ++t) {
    Scope scope(log, t == 0 ? "cv.linear" : "cv.logistic");
    out.result[t] = fm::eval::CrossValidate(fm_algorithm, data.task[t],
                                            kTasks[t], Cv(call, pool));
  }
  return out;
}

Round OfflineBench::RunRound(fm::exec::ThreadPool& pool, size_t calls,
                             bool flip, TraceLog* log, bool replay) {
  Round round;
  const double rss_before = AnonRssMb();
  Prepared data;
  const int64_t setup_start = NowNanos();
  if (!SetUp(&data)) return round;
  round.setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

  Digest digest;
  for (size_t call = 0; call < calls; ++call) {
    const bool timed = call >= w_.warmup_calls;
    const uint64_t tasks_before = pool.tasks_submitted();
    const int64_t task_nanos_before = pool.task_nanos().Sum();
    const uint64_t span = log != nullptr ? log->Begin("call") : 0;
    const int64_t start = NowNanos();
    CvCall result = Call(data, call, pool, log);
    const int64_t nanos = NowNanos() - start;
    if (log != nullptr) log->End(span);
    Digest first;
    for (size_t t = 0; t < 2; ++t) {
      const auto& r = result.result[t];
      if (!r.ok() || r.ValueOrDie().failures != 0 ||
          !std::isfinite(r.ValueOrDie().mean_error) ||
          !std::isfinite(r.ValueOrDie().stddev_error)) {
        report_.Fail("call " + std::to_string(call) + " task " +
                     std::to_string(t) + ": " +
                     (r.ok() ? std::to_string(r.ValueOrDie().failures) +
                                   " failed folds or a non-finite error"
                             : r.status().ToString()));
        if (timed) round.folds += w_.folds * w_.repeats;
        if (timed) report_.failed += w_.folds * w_.repeats;
        continue;
      }
      const bool flip_this = flip && call == 0 && t == 0;
      DigestResult(digest, r.ValueOrDie(), flip_this);
      if (call == 0) DigestResult(first, r.ValueOrDie(), flip_this);
      if (timed) round.folds += r.ValueOrDie().evaluations;
    }
    if (call == 0) round.first_digest = first.value();
    if (timed) {
      round.call_us.push_back(static_cast<double>(nanos) / 1e3);
      round.call_seconds += static_cast<double>(nanos) / 1e9;
      round.pool_tasks += pool.tasks_submitted() - tasks_before;
      round.pool_task_nanos += pool.task_nanos().Sum() - task_nanos_before;
      if (round.timed_results.size() < w_.replay_calls) {
        round.timed_results.push_back(std::move(result));
      }
    }
  }
  round.digest = digest.value();
  round.rss_mb = AnonRssMb() - rss_before;
  if (replay) ReplayLayers(data, round, log);
  return round;
}

// Replays the traced round's first timed calls through the layers the CV
// engine is built from — objective build, fold derivation, the FM fit and
// its perturbation, held-out evaluation — and checks that the replay
// reproduces every CvResult bit for bit. The same fold bodies are then run
// through exec::ParallelMap to price dispatch.
void OfflineBench::ReplayLayers(const Prepared& data, const Round& traced,
                                TraceLog* log) {
  Accum build, fold, fit, perturb, error, dispatch;
  for (size_t c = 0; c < traced.timed_results.size(); ++c) {
    const size_t call = w_.warmup_calls + c;
    for (size_t t = 0; t < 2; ++t) {
      const TaskKind task = kTasks[t];
      const fm::data::RegressionDataset& ds = data.task[t];
      const fm::eval::CvOptions cv = Cv(call, pool_);
      Scope build_scope(log, "objective.build");
      const fm::core::ObjectiveAccumulator cache =
          fm::core::ObjectiveAccumulator::Build(
              ds, fm::core::ObjectiveKindForTask(task), &pool_);
      build.Add(static_cast<double>(build_scope.Stop()));

      const uint64_t train_root = fm::DeriveSeed(cv.seed, 1);
      const double delta =
          task == TaskKind::kLinear
              ? fm::core::LinearRegressionSensitivity(ds.dim())
              : fm::core::LogisticRegressionSensitivity(ds.dim());
      // One (repeat, fold) task exactly as CrossValidate runs it. With a
      // log, each layer call is timed as a span; without one (on pool
      // threads) it is the bare body.
      auto body = [&](size_t task_id, bool timed) -> double {
        const size_t repeat = task_id / cv.folds;
        Rng fold_rng(fm::DeriveSeed(cv.seed, repeat * 2));
        const fm::data::Split split = std::move(fm::data::KFoldSplits(
            ds.size(), cv.folds, fold_rng)[task_id % cv.folds]);
        TraceLog* l = timed ? log : nullptr;
        Scope fold_scope(l, "objective.fold");
        const fm::opt::QuadraticModel objective =
            cache.TrainObjectiveForFold(split.test);
        const int64_t fold_nanos = fold_scope.Stop();
        Scope fit_scope(l, "train.fit");
        Rng train_rng(Rng::Fork(train_root, task_id));
        const auto report =
            task == TaskKind::kLinear
                ? fm::core::FmLinearRegression(fm_options_)
                      .FitObjective(objective, train_rng)
                : fm::core::FmLogisticRegression(fm_options_)
                      .FitObjective(objective, train_rng);
        const int64_t fit_nanos = fit_scope.Stop();
        if (!report.ok()) return std::nan("");
        Scope error_scope(l, "eval.fold_error");
        const double e = fm::eval::TaskError(task, report.ValueOrDie().omega,
                                             ds, split.test);
        const int64_t error_nanos = error_scope.Stop();
        if (timed) {
          Scope perturb_scope(l, "train.perturb");
          Rng rng(Rng::Fork(train_root, task_id));
          (void)fm::core::FunctionalMechanism::PerturbQuadratic(
              objective, delta, fm_options_.epsilon, rng);
          perturb.Add(static_cast<double>(perturb_scope.Stop()));
          fold.Add(static_cast<double>(fold_nanos));
          fit.Add(static_cast<double>(fit_nanos));
          error.Add(static_cast<double>(error_nanos));
        }
        return e;
      };
      const size_t tasks = cv.folds * cv.repeats;
      std::vector<double> errors(tasks);
      for (size_t i = 0; i < tasks; ++i) errors[i] = body(i, true);

      // Dispatch price: the same bodies inline and through the pool.
      Scope inline_scope(log, "exec.inline");
      std::vector<double> inline_errors(tasks);
      for (size_t i = 0; i < tasks; ++i) inline_errors[i] = body(i, false);
      const int64_t inline_nanos = inline_scope.Stop();
      Scope pooled_scope(log, "exec.parallel_map");
      const std::vector<double> pooled = fm::exec::ParallelMap(
          tasks, [&](size_t i) { return body(i, false); }, pool_);
      dispatch.Add(static_cast<double>(pooled_scope.Stop() - inline_nanos));

      // CrossValidate's aggregation, serially in task order.
      double sum = 0.0, sum_sq = 0.0;
      for (double e : errors) {
        sum += e;
        sum_sq += e * e;
      }
      const double n = static_cast<double>(tasks);
      const double mean = sum / n;
      const double stddev =
          std::sqrt(std::max(0.0, (sum_sq - sum * sum / n) / (n - 1.0)));
      const auto& live = traced.timed_results[c].result[t];
      if (!live.ok() || mean != live.ValueOrDie().mean_error ||
          stddev != live.ValueOrDie().stddev_error ||
          std::memcmp(errors.data(), pooled.data(), tasks * sizeof(double)) !=
              0 ||
          std::memcmp(errors.data(), inline_errors.data(),
                      tasks * sizeof(double)) != 0) {
        report_.Fail("layer replay did not reproduce CvResult of call " +
                     std::to_string(call) + " task " + std::to_string(t));
      }
    }
  }
  SetAccum(report_, "objective.build_ms", build, 1e6, "ms");
  SetAccum(report_, "objective.fold_us", fold, 1e3, "us");
  SetAccum(report_, "train.fit_us", fit, 1e3, "us");
  SetAccum(report_, "train.perturb_us", perturb, 1e3, "us");
  SetAccum(report_, "eval.fold_error_us", error, 1e3, "us");
  SetAccum(report_, "exec.dispatch_us", dispatch, 1e3, "us");
}

void OfflineBench::Run() {
  RecordFingerprint(report_, pool_.num_threads());
  const size_t rounds = RoundsFor(run_.seconds, w_.round_seconds, run_.smoke);
  const size_t calls = w_.warmup_calls + w_.timed_calls;
  report_.Info("rounds", std::to_string(rounds));
  report_.Info("warmup_calls_per_round", std::to_string(w_.warmup_calls));
  report_.Info("timed_calls_per_round", std::to_string(w_.timed_calls));
  report_.Info("call_shape",
               "FM CrossValidate, linear then logistic task, " +
                   std::to_string(w_.folds) + " folds x " +
                   std::to_string(w_.repeats) + " repeats each");
  report_.Info("dataset", "US census, scale " + JsonNumber(w_.scale) +
                              ", d=" + std::to_string(w_.dims) +
                              ", sampling rate " +
                              JsonNumber(w_.sampling_rate));
  report_.Info("wal_flush_policy", "none (offline)");
  report_.Info("snapshot_cadence", "none (offline)");

  {
    // Untimed warm-up: the first second after an idle spell runs slow.
    Prepared warm;
    if (!SetUp(&warm)) return;
    const int64_t warm_until = NowNanos() + (run_.smoke ? 0 : 1'500'000'000);
    size_t warm_call = 0;
    do {
      Call(warm, warm_call++, pool_, nullptr);
    } while (NowNanos() < warm_until);
  }

  // Determinism contract: the first call on a 1-thread pool.
  uint64_t reference = 0;
  {
    fm::exec::ThreadPool one(1);
    Prepared data;
    if (!SetUp(&data)) return;
    Digest d;
    const CvCall result = Call(data, 0, one, nullptr);
    for (const auto& r : result.result) {
      if (!r.ok()) {
        report_.Fail("1-thread CrossValidate: " + r.status().ToString());
        return;
      }
      DigestResult(d, r.ValueOrDie(), false);
    }
    reference = d.value();
  }

  std::vector<double> setup, throughput, rss, tasks, busy, calls_all, p50s;
  std::vector<std::vector<double>> call_us;  // per untraced round
  uint64_t round_folds = 0;  // timed fold trainings, the same every round
  std::vector<double> untraced_seconds, traced_seconds;
  TraceLog trace_log(250000);
  uint64_t sequence_digest = 0;
  const size_t total = run_.trace ? 4 : rounds;
  for (size_t r = 0; r < total; ++r) {
    const bool traced = run_.trace && r % 2 == 1;
    const Round round = RunRound(pool_, calls, run_.plant_flip && r == 0,
                                 traced ? &trace_log : nullptr,
                                 traced && r + 1 == total);
    if (!report_.correct && round.call_us.empty()) return;
    if (round.first_digest != reference) {
      report_.Fail("round " + std::to_string(r) +
                   ": first CvResult differs from the 1-thread run");
    }
    if (r == 0) sequence_digest = round.digest;
    if (round.digest != sequence_digest) {
      report_.Fail("round " + std::to_string(r) +
                   " results differ from round 0");
    }
    report_.attempted += round.folds;
    (traced ? traced_seconds : untraced_seconds).push_back(round.call_seconds);
    setup.push_back(round.setup_s);
    throughput.push_back(static_cast<double>(round.folds) /
                         round.call_seconds);
    rss.push_back(round.rss_mb);
    if (!traced) {
      tasks.push_back(static_cast<double>(round.pool_tasks) /
                      static_cast<double>(w_.timed_calls));
      busy.push_back(static_cast<double>(round.pool_task_nanos) /
                     (static_cast<double>(pool_.num_threads()) *
                      round.call_seconds * 1e9));
      calls_all.insert(calls_all.end(), round.call_us.begin(),
                       round.call_us.end());
      p50s.push_back(Median(round.call_us));
      call_us.push_back(round.call_us);
      round_folds = round.folds;
    }
  }

  if (!run_.trace) {
    // As for serve, throughput and the median come from the call profile.
    // A round has too few calls for a tail, so the tail is taken over every
    // timed call of the run.
    const std::vector<double> profile =
        CallProfile(call_us, w_.profile_quantile);
    const double profile_seconds =
        std::accumulate(profile.begin(), profile.end(), 0.0) / 1e6;
    const double tail = TailPercentile(calls_all.size(), w_.tail_cap);
    report_.Info("call_samples", std::to_string(calls_all.size()));
    report_.Info("call_tail_percentile", JsonNumber(tail));
    report_.Info("call_profile_quantile", JsonNumber(w_.profile_quantile));
    report_.Set("setup_s", Median(setup), "s", setup);
    report_.Set("throughput_per_s",
                static_cast<double>(round_folds) / profile_seconds, "1/s",
                throughput);
    report_.Set("call_p50_us", Median(profile), "us", p50s);
    report_.Set("call_tail_us", Quantile(calls_all, tail / 100.0), "us");
    report_.Set("anon_rss_mb", Median(rss), "MB", rss);
  } else {
    report_.Set("exec.tasks_per_call", Median(tasks), "count", tasks);
    report_.Set("exec.busy_share", Median(busy), "ratio", busy);
    report_.Set("trace.overhead_share",
                Median(traced_seconds) / Median(untraced_seconds) - 1.0,
                "ratio");
    const std::string path =
        (fs::path(run_.out_dir) / "trace-offline-cv.json").string();
    if (!trace_log.WriteChrome(path)) report_.Fail("cannot write " + path);
    report_.Info("trace_file", path);
    report_.Info("trace_events", std::to_string(trace_log.events()));
    report_.Info("trace_events_dropped", std::to_string(trace_log.dropped()));
  }
}

}  // namespace

void RunOfflineCv(const RunOptions& options, Report& report) {
  const OfflineWorkload w = Offline(options.smoke);
  OfflineBench(w, options, report).Run();
}

}  // namespace perfbench

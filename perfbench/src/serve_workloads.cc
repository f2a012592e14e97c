// serve-mixed and serve-churn-wal: one synchronous client driving
// serve::Service::ExecuteLog with a seeded request sequence.
//
// A run is a number of rounds. Each round sets up a fresh service (timed as
// setup_s), replays the same sequence — an untimed warm-up prefix, then the
// timed calls — and so ends in the same state as every other round. The
// traced run (--trace 1) adds the service's request spans, the benchmark's
// own spans, and a replay of the traced round through each layer's public
// functions on the same inputs.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fm_linear.h"
#include "core/functional_mechanism.h"
#include "core/objective_accumulator.h"
#include "data/dataset.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "serve/budget_accountant.h"
#include "serve/incremental_objective.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fm::Rng;
using fm::serve::Request;
using fm::serve::RequestKind;
using fm::serve::Response;
using fm::serve::TupleId;
namespace fs = std::filesystem;
namespace serve = fm::serve;

struct ServeWorkload {
  std::string name;
  bool churn = false;
  size_t dim = 10;
  size_t bootstrap_rows = 0;
  size_t warmup_calls = 0;
  size_t timed_calls = 0;
  /// Nominal duration of one round on the reference host; only sets the
  /// round count (RoundsFor), never a time limit.
  double round_seconds = 0.0;
  /// Highest percentile call_tail_us may report (see TailPercentile).
  double tail_cap = 99.0;
  /// Quantile over rounds that the call profile takes (CallProfile).
  double profile_quantile = 0.5;
  double train_epsilon = 0.8;
  // serve-churn-wal only.
  uint64_t snapshot_every = 0;
  double compaction_dead_ratio = 1.0;
  size_t compaction_min_dead = fm::core::kObjectiveShardRows;
};

// 64 requests per call: one insert per 7 predicts; the first request of
// every 32nd call (one per 2048 requests) is an FM train instead.
constexpr size_t kMixedCallRequests = 64;
constexpr size_t kMixedTrainEvery = 32;
// 4 inserts, 4 deletes, 2 updates, 6 predicts per call; a train first in
// every 256th call.
constexpr size_t kChurnTrainEvery = 256;

ServeWorkload Mixed(bool smoke) {
  ServeWorkload w;
  w.name = "serve-mixed";
  w.bootstrap_rows = smoke ? 2000 : 100000;
  w.warmup_calls = smoke ? 8 : 256;
  w.timed_calls = smoke ? 96 : 2048;
  w.round_seconds = 0.5;
  w.tail_cap = 99.0;
  // A call waits for all of the pool's workers, so it is undisturbed only
  // while every vCPU is; the favourable end of a position's rounds would
  // pick a few lucky moments. The median is steadier.
  w.profile_quantile = 0.5;
  return w;
}

ServeWorkload Churn(bool smoke) {
  ServeWorkload w;
  w.name = "serve-churn-wal";
  w.churn = true;
  w.bootstrap_rows = smoke ? 2000 : 20000;
  w.warmup_calls = smoke ? 8 : 256;
  w.timed_calls = smoke ? 96 : 2048;
  w.round_seconds = 1.0;
  w.tail_cap = 99.0;
  // Single-threaded calls about as long as the host's slowdowns, which come
  // and go within a second: each call position runs undisturbed in some
  // rounds, and the profile takes the favourable tenth.
  w.profile_quantile = 0.1;
  w.snapshot_every = smoke ? 256 : 8192;
  w.compaction_dead_ratio = 0.1;
  w.compaction_min_dead = smoke ? 128 : fm::core::kObjectiveShardRows;
  return w;
}

// Rows satisfy the §3 normalization contract: each feature lies in
// ±1/sqrt(d), so ||x|| <= 1, and the label is a clamped noisy linear score.
void DrawRow(Rng& rng, size_t d, double* x, double* y) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  double z = 0.0;
  for (size_t j = 0; j < d; ++j) {
    x[j] = rng.Uniform(-scale, scale);
    z += (j % 2 ? -4.0 : 4.0) * x[j];
  }
  *y = std::clamp(0.5 * z + rng.Gaussian(0.0, 0.1), -1.0, 1.0);
}

fm::data::RegressionDataset BootstrapRows(const ServeWorkload& w,
                                          uint64_t seed) {
  Rng rng(fm::DeriveSeed(seed, 1));
  fm::data::RegressionDataset ds;
  ds.x = fm::linalg::Matrix(w.bootstrap_rows, w.dim);
  ds.y = fm::linalg::Vector(w.bootstrap_rows);
  for (size_t i = 0; i < w.bootstrap_rows; ++i) {
    DrawRow(rng, w.dim, ds.x.Row(i), &ds.y[i]);
  }
  return ds;
}

// The call sequence, generated call by call between calls (so the inputs
// never sit in memory all at once). Call k depends only on the seed and the
// calls before it; a fresh generator replays the sequence exactly. It also
// predicts the id every response must carry: ids are dense and monotonic,
// bootstrap rows taking 0..n-1.
class CallGenerator {
 public:
  CallGenerator(const ServeWorkload& w, uint64_t seed)
      : w_(w), rng_(fm::DeriveSeed(seed, 2)), next_id_(w.bootstrap_rows) {
    if (w_.churn) {
      live_.resize(w_.bootstrap_rows);
      std::iota(live_.begin(), live_.end(), TupleId{0});
    }
  }

  std::vector<Request> Next(std::vector<TupleId>* expected_ids) {
    std::vector<Request> log;
    expected_ids->clear();
    auto push = [&](Request r, TupleId id) {
      log.push_back(std::move(r));
      expected_ids->push_back(id);
    };
    auto train = [&] {
      push(Request::Train(serve::TrainerKind::kFunctionalMechanism,
                          w_.train_epsilon),
           0);
    };
    auto insert = [&] {
      double y = 0.0;
      fm::linalg::Vector x = Row(&y);
      push(Request::Insert(std::move(x), y), next_id_);
      if (w_.churn) live_.push_back(next_id_);
      ++next_id_;
    };
    auto predict = [&] {
      double y = 0.0;
      push(Request::Predict(Row(&y)), 0);
    };
    if (!w_.churn) {
      for (size_t slot = 0; slot < kMixedCallRequests; ++slot) {
        if (slot == 0 && k_ % kMixedTrainEvery == 0) {
          train();
        } else if (slot % 8 == 0) {
          insert();
        } else {
          predict();
        }
      }
    } else {
      if (k_ % kChurnTrainEvery == 0) train();
      for (int i = 0; i < 4; ++i) insert();
      // Writes beside reads: D P D P U P D P U P D P.
      static const char kPattern[] = "DPDPUPDPUPDP";
      for (const char* c = kPattern; *c != '\0'; ++c) {
        if (*c == 'P') {
          predict();
        } else if (*c == 'D') {
          const size_t at = static_cast<size_t>(rng_.UniformInt(live_.size()));
          const TupleId id = live_[at];
          live_[at] = live_.back();
          live_.pop_back();
          push(Request::Delete(id), id);
        } else {
          const TupleId id =
              live_[static_cast<size_t>(rng_.UniformInt(live_.size()))];
          double y = 0.0;
          fm::linalg::Vector x = Row(&y);
          push(Request::Update(id, std::move(x), y), id);
        }
      }
    }
    ++k_;
    return log;
  }

 private:
  fm::linalg::Vector Row(double* y) {
    fm::linalg::Vector x(w_.dim);
    DrawRow(rng_, w_.dim, x.raw(), y);
    return x;
  }

  const ServeWorkload& w_;
  Rng rng_;
  TupleId next_id_;
  std::vector<TupleId> live_;
  uint64_t k_ = 0;
};

void DigestResponse(Digest& d, const Response& r, bool flip) {
  d.U64(static_cast<uint64_t>(r.status.code()));
  d.Str(r.status.message());
  d.U64(r.id);
  uint64_t bits = 0;
  std::memcpy(&bits, &r.value, sizeof bits);
  d.U64(flip ? bits ^ 1u : bits);
  d.U64(r.model_version);
  d.F64(r.epsilon_spent);
}

bool SameBits(const fm::linalg::Vector& a, const fm::linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// What a traced round learns from the service's own spans.
struct ServiceSpanStats {
  std::array<Accum, fm::serve::kNumRequestKinds> kind_self;  // ns/request
  Accum compact;                      // ns per compacting delete
  int64_t call_nanos = 0;             // Σ benchmark call spans
  int64_t unattributed_nanos = 0;     // call time outside request spans
};

// Segments of a log exactly as Service::ExecuteLog cuts them: maximal
// predict/insert runs, every other request on its own.
std::vector<std::pair<RequestKind, size_t>> Segments(
    const std::vector<Request>& log) {
  std::vector<std::pair<RequestKind, size_t>> out;
  size_t i = 0;
  while (i < log.size()) {
    const RequestKind kind = log[i].kind;
    size_t j = i + 1;
    if (kind == RequestKind::kPredict || kind == RequestKind::kInsert) {
      while (j < log.size() && log[j].kind == kind) ++j;
    }
    out.emplace_back(kind, j - i);
    i = j;
  }
  return out;
}

struct Round {
  double setup_s = 0.0;
  std::vector<double> call_us;  // timed calls
  double call_seconds = 0.0;    // Σ timed call time
  uint64_t requests = 0;        // timed requests
  uint64_t digest = 0;          // every response of the sequence
  double rss_mb = 0.0;          // RssAnon growth from before set-up
  uint64_t pool_tasks = 0;      // submitted during timed calls
  int64_t pool_task_nanos = 0;  // Σ task time during timed calls
  std::unique_ptr<serve::Service> service;
};

// Tracing state for a traced round.
struct Tracing {
  TraceLog* log = nullptr;
  ServiceSpanStats spans;
  // Published model per train log position, for the layer replay check.
  std::map<uint64_t, std::shared_ptr<const serve::ModelSnapshot>> models;
};

class ServeBench {
 public:
  ServeBench(const ServeWorkload& w, const RunOptions& run, Report& report)
      : w_(w),
        run_(run),
        report_(report),
        pool_(fm::exec::ThreadPool::DefaultThreadCount()),
        bootstrap_(BootstrapRows(w, run.seed)),
        scratch_((fs::path(run.out_dir) /
                  (w.name + "-" + std::to_string(run.seed)))
                     .string()) {}

  void Run();

 private:
  serve::ServiceOptions Options(fm::exec::ThreadPool* pool,
                                bool traced) const {
    serve::ServiceOptions o;
    o.dim = w_.dim;
    o.task = fm::data::TaskKind::kLinear;
    o.total_epsilon = 1e12;  // never exhausted
    o.seed = fm::DeriveSeed(run_.seed, 3);
    o.pool = pool;
    o.compaction_dead_ratio = w_.compaction_dead_ratio;
    o.compaction_min_dead = w_.compaction_min_dead;
    o.trace_requests = traced;
    return o;
  }

  serve::DurabilityOptions Durability(const std::string& dir) const {
    serve::DurabilityOptions d;
    d.wal.path = (fs::path(dir) / "wal.log").string();
    // kNone still write(2)s every commit; it keeps device fsync latency,
    // and kBatch's 2 ms wall-clock window, out of the timed loop.
    d.wal.sync = serve::WalSyncMode::kNone;
    d.snapshot_dir = (fs::path(dir) / "snapshots").string();
    d.snapshot_every = w_.snapshot_every;
    d.snapshot_keep = 4;
    return d;
  }

  Round RunRound(fm::exec::ThreadPool& pool, const std::string& dir,
                 bool flip, Tracing* tracing);
  void TraceCall(serve::Service& service, const std::vector<Request>& log,
                 int64_t call_nanos, uint64_t compactions, Tracing& t);
  void ReplayLayers(serve::Service& live, const std::string& dir,
                    const Tracing& t);
  void CheckRecovery(serve::Service& live, const std::string& dir);
  void RecordInfo(size_t rounds);

  const ServeWorkload& w_;
  const RunOptions& run_;
  Report& report_;
  fm::exec::ThreadPool pool_;
  const fm::data::RegressionDataset bootstrap_;
  const std::string scratch_;
};

Round ServeBench::RunRound(fm::exec::ThreadPool& pool, const std::string& dir,
                           bool flip, Tracing* tracing) {
  Round round;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const double rss_before = AnonRssMb();

  const int64_t setup_start = NowNanos();
  auto created = serve::Service::Create(Options(&pool, tracing != nullptr));
  if (!created.ok()) {
    report_.Fail("Service::Create: " + created.status().ToString());
    return round;
  }
  round.service = std::move(created).ValueOrDie();
  serve::Service& service = *round.service;
  fm::Status status = service.Bootstrap(bootstrap_);
  if (status.ok() && w_.churn) {
    status = service.EnableDurability(Durability(dir));
  }
  round.setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;
  if (!status.ok()) {
    report_.Fail("set-up: " + status.ToString());
    round.service.reset();
    return round;
  }

  CallGenerator gen(w_, run_.seed);
  Digest digest;
  std::vector<TupleId> expected;
  uint64_t position = 0;
  const size_t calls = w_.warmup_calls + w_.timed_calls;
  for (size_t call = 0; call < calls; ++call) {
    const std::vector<Request> log = gen.Next(&expected);
    const bool timed = call >= w_.warmup_calls;
    const uint64_t tasks_before = pool.tasks_submitted();
    const int64_t task_nanos_before = pool.task_nanos().Sum();
    const uint64_t compactions_before = service.compaction_count();
    uint64_t span = 0;
    if (tracing != nullptr) span = tracing->log->Begin("call");
    const int64_t start = NowNanos();
    const std::vector<Response> responses = service.ExecuteLog(log);
    const int64_t nanos = NowNanos() - start;
    if (tracing != nullptr) tracing->log->End(span);
    if (timed) {
      round.call_us.push_back(static_cast<double>(nanos) / 1e3);
      round.call_seconds += static_cast<double>(nanos) / 1e9;
      round.requests += log.size();
      round.pool_tasks += pool.tasks_submitted() - tasks_before;
      round.pool_task_nanos += pool.task_nanos().Sum() - task_nanos_before;
    }
    for (size_t i = 0; i < log.size(); ++i) {
      const Response& r = responses[i];
      const bool id_checked = log[i].kind == RequestKind::kInsert ||
                              log[i].kind == RequestKind::kDelete ||
                              log[i].kind == RequestKind::kUpdate;
      if (!r.status.ok() || (id_checked && r.id != expected[i])) {
        if (timed) ++report_.failed;
        report_.Fail("call " + std::to_string(call) + " request " +
                     std::to_string(i) + ": " + r.status.ToString() +
                     " id " + std::to_string(r.id) + " expected " +
                     std::to_string(expected[i]));
      }
      DigestResponse(digest, r, flip && call == w_.warmup_calls && i == 1);
      if (tracing != nullptr && log[i].kind == RequestKind::kTrain) {
        tracing->models[position + i] = service.registry().Latest();
      }
    }
    if (tracing != nullptr) {
      TraceCall(service, log, nanos,
                service.compaction_count() - compactions_before, *tracing);
    }
    position += log.size();
  }
  round.rss_mb = AnonRssMb() - rss_before;
  round.digest = digest.value();
  if (service.log_position() != position) {
    report_.Fail("log_position " + std::to_string(service.log_position()) +
                 " != requests executed " + std::to_string(position));
  }
  return round;
}

void ServeBench::TraceCall(serve::Service& service,
                           const std::vector<Request>& log, int64_t call_nanos,
                           uint64_t compactions, Tracing& t) {
  const std::vector<fm::obs::SpanRecord> records =
      service.tracer()->TakeRecords();
  const std::vector<int64_t> self = SelfTimes(records);
  // Request spans are the children of the call's execute_log root, one per
  // segment, in log order.
  std::vector<size_t> children;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].parent_id != 0) children.push_back(i);
  }
  std::sort(children.begin(), children.end(), [&](size_t a, size_t b) {
    return records[a].start_nanos < records[b].start_nanos;
  });
  const auto segments = Segments(log);
  if (children.size() != segments.size()) {
    report_.Fail("service emitted " + std::to_string(children.size()) +
                 " request spans for " + std::to_string(segments.size()) +
                 " segments");
    return;
  }
  // Auto-compaction runs inside the delete that triggers it: attribute the
  // longest delete spans of a compacting call to compaction.
  std::vector<size_t> deletes;
  for (size_t s = 0; s < segments.size(); ++s) {
    if (segments[s].first == RequestKind::kDelete) deletes.push_back(s);
  }
  std::sort(deletes.begin(), deletes.end(), [&](size_t a, size_t b) {
    return self[children[a]] > self[children[b]];
  });
  std::vector<bool> compacting(segments.size(), false);
  for (uint64_t c = 0; c < compactions && c < deletes.size(); ++c) {
    compacting[deletes[c]] = true;
  }
  int64_t covered = 0;
  for (size_t s = 0; s < segments.size(); ++s) {
    const fm::obs::SpanRecord& r = records[children[s]];
    const RequestKind kind = segments[s].first;
    if (r.name != serve::RequestKindToString(kind)) {
      report_.Fail("span " + r.name + " where the log has " +
                   serve::RequestKindToString(kind));
    }
    covered += r.DurationNanos();
    const double nanos = static_cast<double>(self[children[s]]);
    if (compacting[s]) {
      t.spans.compact.Add(nanos);
    } else {
      t.spans.kind_self[static_cast<size_t>(kind)].Add(nanos,
                                                       segments[s].second);
    }
  }
  t.spans.call_nanos += call_nanos;
  t.spans.unattributed_nanos += call_nanos - covered;
  t.log->AddService(records);
}

// Replays the traced round's sequence through each layer's public
// functions — the store, the WAL, the budget ledger, the registry, the FM
// train path and the predictor — timing every call, and checks that the
// replay reproduces the live service: the same store bits, the same WAL
// bytes and the same published models.
void ServeBench::ReplayLayers(serve::Service& live, const std::string& dir,
                              const Tracing& t) {
  TraceLog* log = t.log;
  const serve::ServiceOptions options = Options(&pool_, false);
  std::map<std::string, Accum> acc;
  Accum dispatch, predict_ns;

  serve::IncrementalObjective store(
      w_.dim, fm::core::ObjectiveKindForTask(options.task));
  if (!store.InsertBatch(bootstrap_, &pool_).ok()) {
    report_.Fail("replay bootstrap failed");
    return;
  }
  auto accountant = serve::BudgetAccountant::Create(options.total_epsilon);
  serve::ModelRegistry registry(options.max_model_history);
  std::unique_ptr<serve::Wal> wal;
  if (w_.churn) {
    serve::WalOptions wal_options;
    wal_options.path = (fs::path(dir) / "replica.wal").string();
    wal_options.sync = serve::WalSyncMode::kNone;
    fs::remove(wal_options.path);
    auto opened =
        serve::Wal::Open(wal_options, serve::OptionsFingerprint(options));
    if (!opened.ok()) {
      report_.Fail("replica WAL: " + opened.status().ToString());
      return;
    }
    wal = std::move(opened).ValueOrDie();
  }
  if (!accountant.ok()) {
    report_.Fail("replica ledger: " + accountant.status().ToString());
    return;
  }

  fm::core::FmOptions fm_options;
  fm_options.epsilon = w_.train_epsilon;
  fm_options.post_processing = options.post_processing;
  const double delta = fm::core::LinearRegressionSensitivity(w_.dim);
  std::shared_ptr<const serve::ModelSnapshot> model;
  uint64_t compactions = 0;
  uint64_t wal_bytes_timed = 0, wal_requests_timed = 0;

  CallGenerator gen(w_, run_.seed);
  std::vector<TupleId> expected;
  uint64_t position = 0;
  const size_t calls = w_.warmup_calls + w_.timed_calls;
  for (size_t call = 0; call < calls; ++call) {
    const std::vector<Request> requests = gen.Next(&expected);
    const bool timed = call >= w_.warmup_calls;
    // Times one call into a layer as a benchmark span; a non-empty
    // `metric` also accumulates it (timed calls only).
    auto time = [&](const char* name, const std::string& metric, uint64_t ops,
                    auto&& fn) {
      Scope scope(timed ? log : nullptr, name);
      fn();
      const int64_t nanos = scope.Stop();
      if (timed && !metric.empty()) {
        acc[metric].Add(static_cast<double>(nanos), ops);
      }
      return nanos;
    };
    Scope call_scope(timed ? log : nullptr, "replay.call");

    if (wal != nullptr) {
      const uint64_t bytes_before = wal->file_bytes();
      time("wal.append", "wal.append_us", requests.size(), [&] {
        for (size_t i = 0; i < requests.size(); ++i) {
          wal->Append(position + i, requests[i]);
        }
      });
      fm::Status committed;
      time("wal.commit", "wal.commit_us", 1,
           [&] { committed = wal->Commit(); });
      if (!committed.ok()) {
        report_.Fail("replica commit: " + committed.ToString());
      }
      if (timed) {
        wal_bytes_timed += wal->file_bytes() - bytes_before;
        wal_requests_timed += requests.size();
      }
    }

    size_t i = 0;
    for (const auto& [kind, len] : Segments(requests)) {
      const Request& first = requests[i];
      if (kind == RequestKind::kPredict && model == nullptr) {
        report_.Fail("replay: predict before the first train");
        return;
      }
      if (kind == RequestKind::kPredict) {
        // The predictor inline, then the same bodies through the pool: the
        // difference is what dispatch costs this run.
        std::vector<double> inline_out(len);
        int64_t inline_nanos = 0;
        {
          Scope scope(timed ? log : nullptr, "predict");
          for (size_t j = 0; j < len; ++j) {
            inline_out[j] = fm::core::FmLinearRegression::Predict(
                model->omega, requests[i + j].x);
          }
          inline_nanos = scope.Stop();
        }
        if (timed) {
          predict_ns.Add(static_cast<double>(inline_nanos), len);
          Scope scope(log, "exec.parallel_map");
          const std::vector<double> pooled = fm::exec::ParallelMap(
              len,
              [&](size_t j) {
                return fm::core::FmLinearRegression::Predict(
                    model->omega, requests[i + j].x);
              },
              pool_);
          dispatch.Add(static_cast<double>(scope.Stop() - inline_nanos));
          if (std::memcmp(pooled.data(), inline_out.data(),
                          len * sizeof(double)) != 0) {
            report_.Fail("pooled predictions differ from inline ones");
          }
        }
      } else if (kind == RequestKind::kInsert) {
        bool ok = true;
        time("store.insert", "store.insert_us", len, [&] {
          if (len == 1) {
            ok = store.Insert(first.x, first.y).ok();
            return;
          }
          fm::data::RegressionDataset batch;
          batch.x = fm::linalg::Matrix(len, w_.dim);
          batch.y = fm::linalg::Vector(len);
          for (size_t j = 0; j < len; ++j) {
            batch.x.SetRow(j, requests[i + j].x);
            batch.y[j] = requests[i + j].y;
          }
          ok = store.InsertBatch(batch, &pool_).ok();
        });
        if (!ok) report_.Fail("replica insert failed");
      } else if (kind == RequestKind::kDelete) {
        fm::Status deleted;
        time("store.delete", "store.delete_us", 1,
             [&] { deleted = store.Delete(first.id); });
        if (!deleted.ok()) {
          report_.Fail("replica delete: " + deleted.ToString());
        }
        // The service's auto-compaction policy (ServiceOptions).
        const size_t dead = store.dead_count();
        if (options.auto_compact && dead >= options.compaction_min_dead &&
            static_cast<double>(dead) >=
                options.compaction_dead_ratio *
                    static_cast<double>(store.live_size())) {
          size_t reclaimed = 0;
          time("store.compact", "store.compact_ms", 1,
               [&] { reclaimed = store.Compact(&pool_); });
          if (reclaimed > 0) ++compactions;
        }
      } else if (kind == RequestKind::kUpdate) {
        fm::Status updated;
        time("store.update", "store.update_us", 1, [&] {
          updated = store.Update(first.id, first.x.raw(), first.x.size(),
                                 first.y);
        });
        if (!updated.ok()) {
          report_.Fail("replica update: " + updated.ToString());
        }
      } else if (kind == RequestKind::kTrain) {
        const uint64_t at = position + i;
        fm::opt::QuadraticModel objective;
        time("store.objective", "store.objective_us", 1,
             [&] { objective = store.Objective(); });
        fm::Result<uint64_t> reservation = fm::Status::Internal("not run");
        const int64_t reserve_nanos = time("budget.reserve", "", 0, [&] {
          reservation = accountant.ValueOrDie()->Reserve(
              first.epsilon, "train@" + std::to_string(at));
        });
        fm::Result<fm::core::FmFitReport> fit = fm::Status::Internal("not run");
        time("train.fit", "train.fit_us", 1, [&] {
          Rng rng(Rng::Fork(options.seed, at));
          fit = fm::core::FmLinearRegression(fm_options)
                    .FitObjective(objective, rng);
        });
        time("train.perturb", "train.perturb_us", 1, [&] {
          Rng rng(Rng::Fork(options.seed, at));
          (void)fm::core::FunctionalMechanism::PerturbQuadratic(
              objective, delta, first.epsilon, rng);
        });
        if (!reservation.ok() || !fit.ok()) {
          report_.Fail("replica train at " + std::to_string(at) + " failed");
          return;
        }
        const fm::core::FmFitReport& report = fit.ValueOrDie();
        fm::Status settled;
        const int64_t settle_nanos = time("budget.settle", "", 0, [&] {
          settled = accountant.ValueOrDie()->Settle(reservation.ValueOrDie(),
                                                    report.epsilon_spent);
        });
        // Reserve plus settle is one ledger round trip per train.
        if (timed) {
          acc["budget.settle_us"].Add(
              static_cast<double>(reserve_nanos + settle_nanos));
        }
        serve::ModelSnapshot snapshot;
        snapshot.algorithm = serve::TrainerKindToString(first.trainer);
        snapshot.task = options.task;
        snapshot.omega = report.omega;
        snapshot.epsilon_spent = report.epsilon_spent;
        snapshot.is_private = true;
        snapshot.log_position = at;
        snapshot.trained_on = store.live_size();
        time("registry.publish", "registry.publish_us", 1,
             [&] { registry.Publish(std::move(snapshot)); });
        model = registry.Latest();
        const auto published = t.models.find(at);
        if (!settled.ok() || published == t.models.end() ||
            published->second == nullptr ||
            !SameBits(published->second->omega, model->omega) ||
            published->second->epsilon_spent != model->epsilon_spent) {
          report_.Fail("layer replay did not reproduce the model published "
                       "at log position " +
                       std::to_string(at));
        }
      }
      i += len;
    }
    position += requests.size();
  }

  if (!store.StoreStateBitwiseEquals(live.objective())) {
    report_.Fail("layer replay store differs from the service's store");
  }
  if (compactions != live.compaction_count()) {
    report_.Fail("replay compacted " + std::to_string(compactions) +
                 " times, the service " +
                 std::to_string(live.compaction_count()));
  }
  const double us = 1e3;
  SetAccum(report_, "exec.dispatch_us", dispatch, us, "us");
  SetAccum(report_, "predict.ns_per_request", predict_ns, 1.0, "ns");
  SetAccum(report_, "store.insert_us", acc["store.insert_us"], us, "us");
  SetAccum(report_, "store.delete_us", acc["store.delete_us"], us, "us");
  SetAccum(report_, "store.update_us", acc["store.update_us"], us, "us");
  SetAccum(report_, "store.objective_us", acc["store.objective_us"], us, "us");
  SetAccum(report_, "store.compact_ms", acc["store.compact_ms"], 1e6, "ms");
  report_.Set("store.compactions", static_cast<double>(compactions), "count");
  report_.Set("store.shards", static_cast<double>(store.num_shards()), "count");
  SetAccum(report_, "train.fit_us", acc["train.fit_us"], us, "us");
  SetAccum(report_, "train.perturb_us", acc["train.perturb_us"], us, "us");
  SetAccum(report_, "registry.publish_us", acc["registry.publish_us"], us,
           "us");
  SetAccum(report_, "budget.settle_us", acc["budget.settle_us"], us, "us");
  SetAccum(report_, "wal.append_us", acc["wal.append_us"], us, "us");
  SetAccum(report_, "wal.commit_us", acc["wal.commit_us"], us, "us");
  report_.Set("wal.bytes_per_request",
              wal_requests_timed == 0
                  ? 0.0
                  : static_cast<double>(wal_bytes_timed) /
                        static_cast<double>(wal_requests_timed),
              "B");
  if (wal != nullptr) {
    const std::string live_wal = ReadFile(Durability(dir).wal.path);
    const std::string replica_wal = ReadFile(wal->options().path);
    if (live_wal.empty() || live_wal != replica_wal) {
      report_.Fail("replica WAL bytes differ from the service's WAL");
    }
  }
}

void ServeBench::CheckRecovery(serve::Service& live, const std::string& dir) {
  auto recovered =
      serve::Service::Recover(Options(&pool_, false), Durability(dir));
  if (!recovered.ok()) {
    report_.Fail("Service::Recover: " + recovered.status().ToString());
    return;
  }
  const serve::Service& r = *recovered.ValueOrDie();
  if (r.log_position() != live.log_position() ||
      !r.objective().StoreStateBitwiseEquals(live.objective())) {
    report_.Fail("recovered store differs from the live store at log "
                 "position " +
                 std::to_string(live.log_position()));
  }
}

void ServeBench::RecordInfo(size_t rounds) {
  report_.Info("rounds", std::to_string(rounds));
  report_.Info("warmup_calls_per_round", std::to_string(w_.warmup_calls));
  report_.Info("timed_calls_per_round", std::to_string(w_.timed_calls));
  report_.Info("bootstrap_rows", std::to_string(w_.bootstrap_rows));
  report_.Info("dim", std::to_string(w_.dim));
  report_.Info("call_shape",
               w_.churn ? "4 insert, 4 delete, 2 update, 6 predict; train "
                          "first in every 256th call"
                        : "64 requests: 1 insert per 7 predicts; train first "
                          "in every 32nd call");
  if (w_.churn) {
    report_.Info("wal_flush_policy",
                 "WalSyncMode::kNone (write(2) per commit, no fsync)");
    report_.Info("snapshot_cadence",
                 "every " + std::to_string(w_.snapshot_every) +
                     " log positions, keep 4");
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%g", w_.compaction_dead_ratio);
    report_.Info("compaction_policy",
                 std::string("auto: dead >= ") +
                     std::to_string(w_.compaction_min_dead) +
                     " and dead >= " + ratio + " x live");
  } else {
    report_.Info("wal_flush_policy", "none (not durable)");
    report_.Info("snapshot_cadence", "none");
  }
}

void ServeBench::Run() {
  RecordFingerprint(report_, pool_.num_threads());
  const size_t rounds = RoundsFor(run_.seconds, w_.round_seconds, run_.smoke);
  RecordInfo(rounds);

  // Untimed warm-up against throwaway services: the first second after an
  // idle spell runs slow on a VM, and this keeps it out of every round.
  const int64_t warm_until = NowNanos() + (run_.smoke ? 0 : 1'500'000'000);
  do {
    RunRound(pool_, scratch_ + "/warmup", false, nullptr);
  } while (NowNanos() < warm_until);

  // The determinism contract: the same sequence on a fresh 1-thread
  // service must give bit-identical responses.
  uint64_t reference = 0;
  {
    fm::exec::ThreadPool one(1);
    reference = RunRound(one, scratch_ + "/reference", false, nullptr).digest;
  }

  std::vector<double> setup, throughput, rss, tasks, busy, p50s, tails;
  std::vector<std::vector<double>> call_us;  // per untraced round
  uint64_t round_requests = 0;  // timed requests, the same in every round
  // Fixed by the workload, not the sample: every round has the same calls.
  const double tail_pct = TailPercentile(w_.timed_calls, w_.tail_cap);
  std::vector<double> untraced_seconds, traced_seconds;
  TraceLog trace_log(250000);
  Tracing tracing;
  tracing.log = &trace_log;
  std::unique_ptr<serve::Service> last;
  const std::string round_dir = scratch_ + "/round";
  // The traced run alternates untraced and traced rounds, so the tracing
  // overhead is measured on the same host state.
  const size_t total = run_.trace ? 4 : rounds;
  for (size_t r = 0; r < total; ++r) {
    const bool traced = run_.trace && r % 2 == 1;
    if (traced) tracing.spans = ServiceSpanStats{};
    last.reset();  // one live service at a time
    Round round = RunRound(pool_, round_dir, run_.plant_flip && r == 0,
                           traced ? &tracing : nullptr);
    if (round.service == nullptr) return;
    if (round.digest != reference) {
      report_.Fail("round " + std::to_string(r) +
                   " responses differ from the 1-thread replay (digest " +
                   std::to_string(round.digest) + " vs " +
                   std::to_string(reference) + ")");
    }
    report_.attempted += round.requests;
    (traced ? traced_seconds : untraced_seconds).push_back(round.call_seconds);
    setup.push_back(round.setup_s);
    throughput.push_back(static_cast<double>(round.requests) /
                         round.call_seconds);
    rss.push_back(round.rss_mb);
    if (!traced) {
      tasks.push_back(static_cast<double>(round.pool_tasks) /
                      static_cast<double>(w_.timed_calls));
      busy.push_back(static_cast<double>(round.pool_task_nanos) /
                     (static_cast<double>(pool_.num_threads()) *
                      round.call_seconds * 1e9));
      p50s.push_back(Median(round.call_us));
      tails.push_back(Quantile(round.call_us, tail_pct / 100.0));
      call_us.push_back(std::move(round.call_us));
      round_requests = round.requests;
    }
    last = std::move(round.service);
    if (run_.trace && traced && r + 1 == total) {
      ReplayLayers(*last, round_dir, tracing);
    }
  }
  if (w_.churn) CheckRecovery(*last, round_dir);

  if (!run_.trace) {
    // Speed metrics come from the call profile; the per-round figures are
    // their samples, so the report shows how far interference moved them.
    const std::vector<double> profile =
        CallProfile(call_us, w_.profile_quantile);
    const double profile_seconds =
        std::accumulate(profile.begin(), profile.end(), 0.0) / 1e6;
    report_.Info("call_samples_per_round", std::to_string(w_.timed_calls));
    report_.Info("call_tail_percentile", JsonNumber(tail_pct));
    report_.Info("call_profile_quantile", JsonNumber(w_.profile_quantile));
    report_.Set("setup_s", Median(setup), "s", setup);
    report_.Set("throughput_per_s",
                static_cast<double>(round_requests) / profile_seconds,
                "1/s", throughput);
    report_.Set("call_p50_us", Median(profile), "us", p50s);
    report_.Set("call_tail_us", Quantile(profile, tail_pct / 100.0), "us",
                tails);
    report_.Set("anon_rss_mb", Median(rss), "MB", rss);
  } else {
    const ServiceSpanStats& s = tracing.spans;
    auto kind = [&](RequestKind k) {
      return s.kind_self[static_cast<size_t>(k)];
    };
    SetAccum(report_, "serve.insert_us", kind(RequestKind::kInsert), 1e3, "us");
    SetAccum(report_, "serve.predict_us", kind(RequestKind::kPredict), 1e3,
             "us");
    SetAccum(report_, "serve.delete_us", kind(RequestKind::kDelete), 1e3, "us");
    SetAccum(report_, "serve.update_us", kind(RequestKind::kUpdate), 1e3, "us");
    SetAccum(report_, "serve.train_us", kind(RequestKind::kTrain), 1e3, "us");
    SetAccum(report_, "serve.compact_us", s.compact, 1e3, "us");
    report_.Set("serve.unattributed_share",
                s.call_nanos == 0 ? 0.0
                                  : static_cast<double>(s.unattributed_nanos) /
                                        static_cast<double>(s.call_nanos),
                "ratio");
    report_.Set("exec.tasks_per_call", Median(tasks), "count", tasks);
    report_.Set("exec.busy_share", Median(busy), "ratio", busy);
    const serve::Wal* wal = last->wal();
    report_.Set("wal.syncs",
                wal == nullptr ? 0.0 : static_cast<double>(wal->sync_count()),
                "count");
    // Snapshot cost, on the traced round's final state.
    Accum snapshot_ms;
    double snapshot_bytes = 0.0;
    if (w_.churn) {
      for (int k = 0; k < 5; ++k) {
        Scope scope(&trace_log, "snapshot.write");
        const fm::Status written = last->Checkpoint();
        snapshot_ms.Add(static_cast<double>(scope.Stop()));
        if (!written.ok()) report_.Fail("Checkpoint: " + written.ToString());
      }
      const fs::path file = fs::path(Durability(round_dir).snapshot_dir) /
                            serve::SnapshotFileName(last->log_position());
      std::error_code ec;
      snapshot_bytes = static_cast<double>(fs::file_size(file, ec));
      if (ec) report_.Fail("snapshot file missing: " + file.string());
    }
    SetAccum(report_, "snapshot.write_ms", snapshot_ms, 1e6, "ms");
    report_.Set("snapshot.bytes", snapshot_bytes, "B");
    report_.Set("trace.overhead_share",
                Median(traced_seconds) / Median(untraced_seconds) - 1.0,
                "ratio");
    const std::string path =
        (fs::path(run_.out_dir) / ("trace-" + w_.name + ".json")).string();
    if (!trace_log.WriteChrome(path)) report_.Fail("cannot write " + path);
    report_.Info("trace_file", path);
    report_.Info("trace_events", std::to_string(trace_log.events()));
    report_.Info("trace_events_dropped", std::to_string(trace_log.dropped()));
  }
  last.reset();
  std::error_code ec;
  fs::remove_all(scratch_, ec);
}

}  // namespace

size_t RoundsFor(int seconds, double round_seconds, bool smoke) {
  if (smoke) return 3;
  const double rounds =
      std::round(static_cast<double>(seconds) / round_seconds);
  return static_cast<size_t>(std::clamp(rounds, 3.0, 120.0));
}

void RunServe(const RunOptions& options, Report& report) {
  const ServeWorkload w = options.workload == "serve-mixed"
                              ? Mixed(options.smoke)
                              : Churn(options.smoke);
  ServeBench(w, options, report).Run();
}

}  // namespace perfbench

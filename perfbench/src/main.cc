// fm_perfbench: the repository benchmark (see perfbench/README.md).
//
//   fm_perfbench --workload serve-mixed|serve-churn-wal|offline-cv
//                --seed N --seconds S --trace 0|1 --out-dir DIR
//                [--smoke] [--plant-flip]
//
// Prints a full report (fingerprint, every metric with its spread) and, as
// the last stdout line, {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, with its unit. A workload reports 0 for a layer
// it does not exercise (no WAL in serve-mixed, no service in offline-cv).
constexpr LayerMetric kLayerMetrics[] = {
    {"exec.tasks_per_call", "count"},
    {"exec.dispatch_us", "us"},
    {"exec.busy_share", "ratio"},
    {"serve.insert_us", "us"},
    {"serve.predict_us", "us"},
    {"serve.delete_us", "us"},
    {"serve.update_us", "us"},
    {"serve.train_us", "us"},
    {"serve.compact_us", "us"},
    {"serve.unattributed_share", "ratio"},
    {"store.insert_us", "us"},
    {"store.delete_us", "us"},
    {"store.update_us", "us"},
    {"store.objective_us", "us"},
    {"store.compact_ms", "ms"},
    {"store.compactions", "count"},
    {"store.shards", "count"},
    {"wal.append_us", "us"},
    {"wal.commit_us", "us"},
    {"wal.bytes_per_request", "B"},
    {"wal.syncs", "count"},
    {"snapshot.write_ms", "ms"},
    {"snapshot.bytes", "B"},
    {"train.perturb_us", "us"},
    {"train.fit_us", "us"},
    {"budget.settle_us", "us"},
    {"registry.publish_us", "us"},
    {"predict.ns_per_request", "ns"},
    {"objective.build_ms", "ms"},
    {"objective.fold_us", "us"},
    {"eval.fold_error_us", "us"},
    {"trace.overhead_share", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "fm_perfbench: %s\nusage: fm_perfbench --workload "
               "serve-mixed|serve-churn-wal|offline-cv --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--smoke] [--plant-flip]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--plant-flip") {
      options.plant_flip = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(v);
    } else if (arg == "--trace") {
      options.trace = std::atoi(v) != 0;
    } else if (arg == "--out-dir") {
      options.out_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload != "serve-mixed" &&
      options.workload != "serve-churn-wal" &&
      options.workload != "offline-cv") {
    return Usage("unknown --workload");
  }
  if (options.seconds < 1) return Usage("--seconds must be >= 1");
  if (options.out_dir.empty()) return Usage("--out-dir is required");
  std::filesystem::create_directories(options.out_dir);

  perfbench::Report report;
  report.workload = options.workload;
  report.Info("seed", std::to_string(options.seed));
  report.Info("seconds", std::to_string(options.seconds));
  report.Info("trace", options.trace ? "1" : "0");
  report.Info("mode", options.smoke ? "smoke" : "full");
  if (options.workload == "offline-cv") {
    perfbench::RunOfflineCv(options, report);
  } else {
    perfbench::RunServe(options, report);
  }
  if (options.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      if (report.metrics.count(m.name) == 0) report.Set(m.name, 0.0, m.unit);
    }
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");

  const std::string full = report.FullJson();
  const std::string path =
      (std::filesystem::path(options.out_dir) /
       ("report-" + options.workload + "-seed" +
        std::to_string(options.seed) + "-trace" +
        (options.trace ? "1" : "0") + ".json"))
          .string();
  std::ofstream(path) << full << "\n";
  std::printf("%s\n%s\n", full.c_str(), report.ResultLine().c_str());
  return report.correct ? 0 : 1;
}

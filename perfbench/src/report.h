// Measurement plumbing shared by every workload: order statistics, the
// response digest, process memory, the host fingerprint, and the report
// that becomes the benchmark's output.
#ifndef FM_PERFBENCH_REPORT_H_
#define FM_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (the "type 7" rule), q in [0, 1].
/// Requires a non-empty input.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// The call profile of a run whose rounds all replay one call sequence:
/// for each call position k, the q-quantile over rounds of call k's
/// latency. The speed metrics (throughput, median and tail latency) are
/// read from it. Requires at least one round, all of the same length.
std::vector<double> CallProfile(const std::vector<std::vector<double>>& rounds,
                                double q);

/// min, quartiles, median and max of a sample.
struct Spread {
  size_t n = 0;
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
};
Spread Summarize(const std::vector<double>& values);

/// Highest percentile in `candidates` (descending) that leaves at least
/// `min_beyond` samples above it in a sample of `n`, capped at `cap`.
/// Returns 50 when none qualifies.
double TailPercentile(size_t n, double cap, size_t min_beyond = 10);

/// FNV-1a over raw bytes; the response digests are built from it.
class Digest {
 public:
  void Bytes(const void* data, size_t size);
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }  // the bits, not the value
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Anonymous resident memory of this process (RssAnon) after
/// malloc_trim(0), in MiB; -1 when /proc is unavailable.
double AnonRssMb();

/// Nanoseconds on the steady clock (the same timeline obs::MonotonicClock
/// stamps spans with).
int64_t NowNanos();

/// One named metric: its reported value, unit, and the samples behind it
/// (per round for end-to-end metrics, per operation or per call for
/// layers). A metric without samples reports its value as its spread.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::vector<double> samples;
};

/// Per-operation accumulator: the value is total / ops, and each Add
/// contributes one sample (its per-op mean) to the spread.
struct Accum {
  double total = 0.0;
  uint64_t ops = 0;
  std::vector<double> samples;
  void Add(double amount, uint64_t n = 1) {
    if (n == 0) return;
    total += amount;
    ops += n;
    samples.push_back(amount / static_cast<double>(n));
  }
  double Mean() const {
    return ops == 0 ? 0.0 : total / static_cast<double>(ops);
  }
};

/// Everything a run reports. `metrics` is what the final line carries;
/// `info` is the fingerprint and workload description, written to the
/// full report only.
struct Report {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;

  void Fail(const std::string& why);
  void Set(const std::string& name, double value, const std::string& unit,
           std::vector<double> samples = {});
  void Info(const std::string& key, const std::string& value) {
    info[key] = value;
  }

  /// Full report: fingerprint plus every metric with its spread.
  std::string FullJson() const;
  /// The last stdout line: exactly correct/attempted/failed/metrics.
  std::string ResultLine() const;
};

/// Reports `a` scaled by 1/divisor (e.g. 1e3 turns nanoseconds into µs).
void SetAccum(Report& report, const std::string& name, const Accum& a,
              double divisor, const std::string& unit);

/// Host and build fingerprint (nproc, CPU model, kernel, build type,
/// FM_BLOCKED_LINALG) recorded into `report.info`.
void RecordFingerprint(Report& report, size_t pool_threads);

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // FM_PERFBENCH_REPORT_H_

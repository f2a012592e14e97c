// The benchmark's workloads. Each is a fixed, seeded sequence of calls into
// the library made by one synchronous client (a closed loop), run for a
// fixed number of calls per round, on a thread pool sized to the machine.
#ifndef FM_PERFBENCH_WORKLOADS_H_
#define FM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sets the number of rounds (a pure function of this value, never of
  /// elapsed time): every round replays the same call sequence from a fresh
  /// set-up, so every round ends in the same state.
  int seconds = 10;
  /// 0: end-to-end metrics, untraced. 1: the traced run — per-layer
  /// metrics, the trace file, and the tracing overhead.
  bool trace = false;
  /// Tiny sizes, for the smoke test.
  bool smoke = false;
  /// Test hook: flips one bit of one response before the correctness
  /// check, which must then fail.
  bool plant_flip = false;
  /// Scratch space for WAL files, snapshots, the trace and the report.
  std::string out_dir;
};

void RunServe(const RunOptions& options, Report& report);
void RunOfflineCv(const RunOptions& options, Report& report);

/// Number of timed rounds for a run of `seconds` on a workload whose round
/// nominally takes `round_seconds` on the reference host.
size_t RoundsFor(int seconds, double round_seconds, bool smoke);

}  // namespace perfbench

#endif  // FM_PERFBENCH_WORKLOADS_H_

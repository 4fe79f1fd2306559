// The benchmark's workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Minimum wall seconds of the measured phase.
  double seconds = 10.0;
  /// 0: untraced run, end-to-end metrics. 1: untraced and traced phases,
  /// per-layer metrics.
  bool trace = false;
  /// Directory for the traced run's layer table and span dump.
  std::string out_dir = ".";
  /// Written into the run metadata (the benchmark is not always run from
  /// a git checkout, so the caller supplies it).
  std::string git_commit = "unknown";
};

std::vector<std::string> WorkloadNames();

/// Runs one workload and prints its result; the last line of standard
/// output is the result object. Returns the process exit code.
int RunWorkload(const RunOptions& options);

}  // namespace perfbench

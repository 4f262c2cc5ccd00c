// The perfbench workloads and the run that measures one of them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory of this run (logs, indexes); removed at the end.
  std::string work_dir;
  /// Where the traced run writes its spans (one JSON object per line).
  std::string trace_file;
  /// Source revision of the code under test, for the environment stamp.
  std::string commit = "unknown";
};

/// Runs one workload and prints its report; the last stdout line is the
/// result JSON. Returns the process exit code: 0 only when every answer
/// was correct and the workload-shape guards held.
int RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// One benchmark run: trace generation, the untimed verification pass, a
// discarded warm-up repetition, then timed repetitions until the window
// is spent. Untraced runs report the end-to-end metrics; traced runs
// report the per-layer metrics (and trace overhead against an untraced
// half of the same window).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  // Directory (relative to the working directory) for the collector
  // socket and the span trace file.
  std::string work_dir = ".bench_build";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;  // one line per failed gate
  std::uint64_t attempted = 0;        // events the sinks emitted, timed reps
  std::uint64_t failed = 0;           // events lost + epochs/frames faulted
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // context lines printed before the result
};

// Names of the workloads run_benchmark accepts.
const std::vector<std::string>& workload_names();

Outcome run_benchmark(const RunConfig& config);

}  // namespace perfbench

// perfbench: end-to-end PINT collection benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Prints context lines starting with '#', then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1
// when a correctness gate fails, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Outcome;
using perfbench::RunConfig;

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Numbers are compared only within one host profile: the same key the
// repo's bench-json files carry (PINT_BENCH_PROFILE, else "<n>core").
std::string profile_key() {
  const char* env = std::getenv("PINT_BENCH_PROFILE");
  if (env != nullptr && env[0] != '\0') return env;
  return std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
         "core";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        cfg.traced = value == "1";
      } else if (flag == "--work-dir") {
        cfg.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    return usage(("unknown workload " + cfg.workload).c_str());
  }

  std::printf(
      "# stamp {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"profile\": \"%s\"}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.traced ? 1 : 0, std::thread::hardware_concurrency(),
      json_escape(compiler()).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(profile_key()).c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    out = perfbench::run_benchmark(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.correct = false;
      out.failures.push_back("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& f : out.failures) {
    std::printf("# GATE FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  1, out.attempted)),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return out.correct ? 0 : 1;
}

// perfbench: the repo benchmark (perfbench/README.md).
//
//   perfbench --workload serve-hit|serve-miss|stream-window --seed N
//             --seconds S --trace 0|1
//
// --trace 0 prints p50_ms, cpu_ms_per_op and setup_s; --trace 1 prints the
// per-layer metrics. Either way the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is 1
// when a correctness check failed. Files go under .bench_build/ in the
// working directory.

#include <malloc.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "par/thread_pool.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload serve-hit|serve-miss|"
               "stream-window --seed N --seconds S --trace 0|1\n";
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseNumber(value, &number) &&
               number >= 0) {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseNumber(value, &number) &&
               number > 0 && number <= 3600) {
      options.seconds = number;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else {
      return Usage("bad argument " + flag + " " + value);
    }
  }
  if (options.workload != "serve-hit" && options.workload != "serve-miss" &&
      options.workload != "stream-window") {
    return Usage("unknown workload '" + options.workload + "'");
  }

  // One fixed CPU for every thread of the workload, set before any starts:
  // a request then hands over between threads on one run queue instead of
  // waking an idle virtual CPU, whose wake-up latency follows the host's
  // load (perfbench/README.md). The second allowed CPU, because the first
  // usually takes the device interrupts.
  options.allowed_cpus = AllowedCpus();
  if (!options.allowed_cpus.empty()) {
    options.pinned_cpu =
        options.allowed_cpus[options.allowed_cpus.size() > 1 ? 1 : 0];
  }
  if (!SetAffinity({options.pinned_cpu})) {
    std::cerr << "perfbench: cannot pin the process to one CPU\n";
    return 1;
  }
  // Keep freed memory in the process. By default glibc hands large buffers
  // back to the kernel and the next window faults fresh pages in (about
  // 1500 faults per stream window), a cost the virtualized host makes
  // vary from run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  options.workdir =
      options.state_dir + "/run-" + std::to_string(static_cast<long>(getpid()));
  std::error_code error;
  std::filesystem::create_directories(options.workdir, error);
  if (error) return Usage("cannot create " + options.workdir);
  ::signal(SIGPIPE, SIG_IGN);

  // Width 1: on this class of shared host the default pool makes a stream
  // window slower and far noisier (perfbench/README.md). The traced run
  // measures the default width separately (par.*).
  retia::par::ThreadPool narrow(1);
  retia::par::ScopedDefaultPool pool_guard(&narrow);

  Report report;
  char line[256];
  std::snprintf(line, sizeof(line),
                "perfbench workload=%s seed=%llu seconds=%g trace=%d",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
  report.Line(line);
  const CpuTimes host_before = ReadCpuTimes();
  const double calibration_ms = CalibrationMs();
  std::snprintf(line, sizeof(line),
                "host nproc=%d cpu=%d pool_width=%d calibration_ms=%.3f",
                OnlineCpus(), options.pinned_cpu,
                retia::par::DefaultPool()->threads(), calibration_ms);
  report.Line(line);

  try {
    const bool hit = options.workload == "serve-hit";
    const bool stream = options.workload == "stream-window";
    if (!options.trace) {
      if (stream) {
        RunStream(options, &report);
      } else {
        RunServe(options, hit ? KeyMode::kHit : KeyMode::kMiss, &report);
      }
    } else {
      Trace trace;
      TraceServe(options, hit ? KeyMode::kHit : KeyMode::kMiss, !stream,
                 &report, &trace);
      TraceStream(options, stream, &report, &trace);
      TraceParWidth(options, &report);
      TracePaperScale(&report, &trace);
      report.Metric("host.steal_pct", StealPct(host_before, ReadCpuTimes()),
                    "%", "whole traced run");
      report.Metric("host.calib_ms", calibration_ms, "ms");
      const std::string path = options.state_dir + "/traces/" +
                               options.workload + "-seed" +
                               std::to_string(options.seed) + ".json";
      std::filesystem::create_directories(options.state_dir + "/traces",
                                          error);
      if (!trace.Write(path)) report.Fail("cannot write " + path);
      report.Line("spans written to " + path);
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("run aborted: ") + e.what());
  }
  std::filesystem::remove_all(options.workdir, error);
  report.Print();
  return report.correct() ? 0 : 1;
}

#ifndef RETIA_PERFBENCH_WORKLOADS_H_
#define RETIA_PERFBENCH_WORKLOADS_H_

// Entry points of the three workloads (perfbench/README.md). Each Run*
// function is one untraced run: set-up repeated kSetupRepeats times, a
// measured closed-loop phase, correctness checks, and the end-to-end
// metrics. Each Trace* function measures per-layer metrics of one part of
// the system by peeling; with `split` set it also runs the workload's
// untraced phase and splits that p50 across layers.

#include "bench.h"

namespace perfbench {

inline constexpr int kSetupRepeats = 9;

enum class KeyMode {
  kHit,   // zipfian over a key set warmed into the replica caches
  kMiss,  // every key distinct, against timestamps evolved in set-up
};

void RunServe(const Options& options, KeyMode mode, Report* report);
void TraceServe(const Options& options, KeyMode mode, bool split,
                Report* report, Trace* trace);

void RunStream(const Options& options, Report* report);
void TraceStream(const Options& options, bool split, Report* report,
                 Trace* trace);

// stream-window at the default pool width against width 1.
void TraceParWidth(const Options& options, Report* report);

// One history evolution at paper scale, split into RETIA's stages.
void TracePaperScale(Report* report, Trace* trace);

}  // namespace perfbench

#endif  // RETIA_PERFBENCH_WORKLOADS_H_

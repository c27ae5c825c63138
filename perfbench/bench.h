#ifndef RETIA_PERFBENCH_BENCH_H_
#define RETIA_PERFBENCH_BENCH_H_

// Shared pieces of the repo benchmark (perfbench/README.md): run options,
// clocks, the host stamp, the closed-loop runner with its per-slice
// statistics, the span log of traced runs, and the report that ends in the
// one-line JSON result.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;  // serve-hit | serve-miss | stream-window
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;
  // Build and state directory: traces and the recorded parameter digest.
  // Paths are relative to the working directory so AF_UNIX socket paths
  // stay short.
  std::string state_dir = ".bench_build";
  // Per-process working directory for snapshots and replica sockets,
  // removed at exit.
  std::string workdir;
  // CPUs the process may run on, and the one its workloads are pinned to.
  std::vector<int> allowed_cpus;
  int pinned_cpu = -1;
};

// Everything a run reports: human-readable lines, the metrics of the JSON
// result, and the operation counts and correctness verdict that go with
// them.
class Report {
 public:
  void Line(const std::string& text);
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  // Records a failed correctness check; the run's result is then invalid.
  void Fail(const std::string& what);
  void Count(int64_t attempted, int64_t failed);

  bool correct() const { return failures_.empty(); }
  // Prints every line, then the JSON result as the last line of stdout.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::string> lines_;
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- Clocks and order statistics -------------------------------------------

int64_t NowNs();  // steady clock
double SecondsSince(int64_t start_ns);
// CPU time of the whole process (every thread, user + system). The guest
// kernel accounts steal separately, so this excludes time the hypervisor
// took away.
double ProcessCpuSeconds();
double Median(std::vector<double> values);
// FNV-1a over raw bytes, for the parameter digest.
uint64_t Fnv1a(const void* data, size_t size, uint64_t hash);
// Throws std::runtime_error(what) unless ok; the run then reports the
// failure and exits 1.
void Require(bool ok, const std::string& what);

// ---- Host stamp -------------------------------------------------------------

struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();  // aggregate "cpu" line of /proc/stat
double StealPct(const CpuTimes& before, const CpuTimes& after);
// Median wall time of a fixed integer loop the benchmark owns: the same
// code on every commit, so its drift between run sets is host drift.
double CalibrationMs();
int OnlineCpus();

// ---- CPU placement ----------------------------------------------------------

// CPUs the calling thread may run on, in increasing order.
std::vector<int> AllowedCpus();
// Restricts the calling thread to `cpus`. A thread inherits its creator's
// set, so pinning the main thread before a workload starts its threads keeps
// the whole workload on those CPUs. Returns false when the kernel refuses.
bool SetAffinity(const std::vector<int>& cpus);

// ---- Closed loop ------------------------------------------------------------

// Statistics of one measured phase. The phase is cut into equal time
// slices; p50 and CPU per op are the 90th percentiles (nearest rank) of
// the per-slice values. The host's speed swings from slice to slice with
// its other tenants' load and is slow most of the time: the 90th
// percentile reads that slow level whether or not a run also caught fast
// stretches, and leaves out the two slowest slices, so a burst of steal
// does not move it.
struct PhaseStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t samples = 0;  // operations that completed inside a slice
  int slices = 0;
  double p50_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  double qps = 0.0;
  double tail_quantile = 0.0;  // highest with >= 10 samples beyond it
  double tail_ms = 0.0;
  double steal_pct = 0.0;
  std::vector<double> slice_p50_ms;
  std::vector<double> slice_cpu_ms;
};

// Runs op(client, i) for i = 0, 1, ... on `clients` threads, each waiting
// for its previous operation, for `seconds`. op returns false on failure.
using ClosedLoopOp = std::function<bool(int client, int64_t i)>;
PhaseStats RunClosedLoop(int clients, double seconds, const ClosedLoopOp& op);

// Prints a phase's end-to-end lines (counts, qps, tail) into the report.
void ReportPhase(const std::string& label, const PhaseStats& stats,
                 Report* report);

// ---- Spans of the traced run ------------------------------------------------

struct Span {
  const char* name;  // string literal: "<layer>.<entry point>"
  int64_t id;
  int64_t parent;   // -1 for a root
  int64_t request;  // shared by every span of one request
  int64_t start_ns;
  int64_t end_ns;
};

// Spans recorded by one thread, kept in memory until the run ends. Every
// log draws its ids from its own range, so ids are unique across logs.
class SpanLog {
 public:
  SpanLog();

  int64_t Begin(const char* name, int64_t parent, int64_t request);
  void End(int64_t id);

  // Times fn() as one span and returns its id.
  template <typename Fn>
  int64_t Time(const char* name, int64_t parent, int64_t request, Fn&& fn) {
    const int64_t id = Begin(name, parent, request);
    fn();
    End(id);
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t first_id_;
  int64_t next_id_;
  std::vector<Span> spans_;
};

// All spans of a traced run: per-name medians (net of the clock cost of
// recording a span) and the Chrome trace-event file they are written to.
class Trace {
 public:
  Trace();
  void Add(const SpanLog& log);
  // Median duration of the spans named `name`, in microseconds, minus the
  // median of an empty span; 0 when no span has the name.
  double MedianUs(const std::string& name) const;
  // Shortest such span, net of the same cost.
  double MinUs(const std::string& name) const;
  double span_cost_us() const { return span_cost_us_; }
  // Writes {"traceEvents": [...]} (Chrome/Perfetto format) to `path`, one
  // track per span log.
  bool Write(const std::string& path) const;

 private:
  std::vector<std::pair<int, Span>> spans_;  // (log index, span)
  int logs_ = 0;
  std::map<std::string, std::vector<double>> durations_us_;
  double span_cost_us_ = 0.0;
};

// Per-layer self time of one workload's operation, in microseconds, keyed
// by the layer names of the share metrics ("serve.router", "core", ...).
using LayerTimes = std::map<std::string, double>;

// Adds `<layer>.share` for every layer of the system (tkg, graph, tensor,
// par, nn, core, train, the serve components, stream, ckpt) and
// `unattributed.share`, as percentages of `p50_us`. Negative self times
// (noise in a difference of medians) are clamped to 0 and left to the
// unattributed row.
void ReportShares(const LayerTimes& layers, double p50_us, Report* report);

}  // namespace perfbench

#endif  // RETIA_PERFBENCH_BENCH_H_

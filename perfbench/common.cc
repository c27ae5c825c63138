#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.h"

namespace perfbench {

// ---- Report ---------------------------------------------------------------

void Report::Line(const std::string& text) { lines_.push_back(text); }

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = -1.0;
  }
  metrics_.push_back({name, value, unit});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  Line("  " + name + " = " + buf + " " + unit +
       (note.empty() ? "" : "  (" + note + ")"));
}

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
  Line("FAIL: " + what);
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print() const {
  for (const std::string& line : lines_) std::cout << line << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<int64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
         << "\": {\"value\": " << value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// ---- Clocks and order statistics -------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void Require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

// ---- Host stamp -------------------------------------------------------------

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes times;
  if (label != "cpu") return times;
  // user nice system idle iowait irq softirq steal; guest time is already
  // inside user and nice.
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealPct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

namespace {
volatile uint64_t calibration_sink = 0;  // keeps the loop's result alive
}  // namespace

double CalibrationMs() {
  std::vector<double> runs;
  for (int run = 0; run < 5; ++run) {
    const int64_t start = NowNs();
    uint64_t x = static_cast<uint64_t>(start) | 1;  // run-time seed
    for (int i = 0; i < (1 << 23); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    calibration_sink = x;
    runs.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Median(runs);
}

int OnlineCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

// ---- CPU placement ----------------------------------------------------------

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return !cpus.empty() && sched_setaffinity(0, sizeof(set), &set) == 0;
}

// ---- Closed loop ------------------------------------------------------------

namespace {

// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())) - 1);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

}  // namespace

PhaseStats RunClosedLoop(int clients, double seconds, const ClosedLoopOp& op) {
  // Twenty slices, so that the 90th percentile is the 18th and leaves the
  // two slowest out. A 40-s phase gives 2-s slices: long enough for a
  // stable per-slice median, short enough that host swings within a run
  // land in separate slices.
  constexpr int num_slices = 20;
  struct Sample {
    int64_t end_ns;
    int64_t latency_ns;
  };
  std::vector<std::vector<Sample>> logs(static_cast<size_t>(clients));
  std::vector<int64_t> failed(static_cast<size_t>(clients), 0);
  for (auto& log : logs) log.reserve(1 << 16);
  std::atomic<int64_t> completed{0};
  std::atomic<bool> stop{false};

  const CpuTimes host_before = ReadCpuTimes();
  const int64_t start_ns = NowNs();
  const int64_t slice_ns = static_cast<int64_t>(seconds * 1e9 / num_slices);
  std::vector<double> cpu_at(num_slices + 1);
  std::vector<int64_t> ops_at(num_slices + 1);
  cpu_at[0] = ProcessCpuSeconds();
  ops_at[0] = 0;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample>& log = logs[static_cast<size_t>(c)];
      for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const int64_t t0 = NowNs();
        const bool ok = op(c, i);
        const int64_t t1 = NowNs();
        log.push_back({t1, t1 - t0});
        if (!ok) ++failed[static_cast<size_t>(c)];
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int s = 1; s <= num_slices; ++s) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start_ns + s * slice_ns)));
    cpu_at[s] = ProcessCpuSeconds();
    ops_at[s] = completed.load(std::memory_order_relaxed);
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const CpuTimes host_after = ReadCpuTimes();

  PhaseStats stats;
  std::vector<std::vector<double>> slice_ms(num_slices);
  std::vector<double> all_ms;
  for (int c = 0; c < clients; ++c) {
    stats.attempted += static_cast<int64_t>(logs[c].size());
    stats.failed += failed[static_cast<size_t>(c)];
    for (const Sample& sample : logs[c]) {
      const int64_t slice = (sample.end_ns - start_ns) / slice_ns;
      if (slice < 0 || slice >= num_slices) continue;
      const double ms = static_cast<double>(sample.latency_ns) / 1e6;
      slice_ms[static_cast<size_t>(slice)].push_back(ms);
      all_ms.push_back(ms);
    }
  }
  std::vector<double>& slice_p50 = stats.slice_p50_ms;
  std::vector<double>& slice_cpu = stats.slice_cpu_ms;
  for (int s = 0; s < num_slices; ++s) {
    const int64_t ops = ops_at[s + 1] - ops_at[s];
    if (slice_ms[static_cast<size_t>(s)].empty() || ops <= 0) continue;
    slice_p50.push_back(Median(slice_ms[static_cast<size_t>(s)]));
    slice_cpu.push_back((cpu_at[s + 1] - cpu_at[s]) * 1e3 /
                        static_cast<double>(ops));
  }
  stats.samples = static_cast<int64_t>(all_ms.size());
  stats.slices = static_cast<int>(slice_p50.size());
  stats.p50_ms = Percentile(slice_p50, 0.9);
  stats.cpu_ms_per_op = Percentile(slice_cpu, 0.9);
  stats.qps = static_cast<double>(ops_at[num_slices]) / seconds;
  for (double q : {0.9, 0.99, 0.999, 0.9999, 0.99999}) {
    if ((1.0 - q) * static_cast<double>(all_ms.size()) >= 10.0) {
      stats.tail_quantile = q;
    }
  }
  if (stats.tail_quantile > 0.0) {
    stats.tail_ms = Percentile(all_ms, stats.tail_quantile);
  }
  stats.steal_pct = StealPct(host_before, host_after);
  return stats;
}

void ReportPhase(const std::string& label, const PhaseStats& stats,
                 Report* report) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: attempted=%lld failed=%lld samples=%lld qps=%.1f "
                "steal=%.1f%% (qps and tail not gated)",
                label.c_str(), static_cast<long long>(stats.attempted),
                static_cast<long long>(stats.failed),
                static_cast<long long>(stats.samples), stats.qps,
                stats.steal_pct);
  report->Line(buf);
  if (stats.tail_quantile > 0.0) {
    std::snprintf(buf, sizeof(buf), "  tail: p%g = %.4f ms",
                  stats.tail_quantile * 100.0, stats.tail_ms);
    report->Line(buf);
  }
  std::string slices = "  slices: p50 ms";
  for (double v : stats.slice_p50_ms) {
    std::snprintf(buf, sizeof(buf), " %.4f", v);
    slices += buf;
  }
  slices += " | cpu ms/op";
  for (double v : stats.slice_cpu_ms) {
    std::snprintf(buf, sizeof(buf), " %.4f", v);
    slices += buf;
  }
  report->Line(slices);
}

// ---- Spans ------------------------------------------------------------------

SpanLog::SpanLog() {
  static std::atomic<int64_t> next_log{0};
  first_id_ = next_log.fetch_add(1) << 40;
  next_id_ = first_id_;
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request) {
  const int64_t id = next_id_++;
  spans_.push_back({name, id, parent, request, NowNs(), 0});
  return id;
}

void SpanLog::End(int64_t id) {
  spans_[static_cast<size_t>(id - first_id_)].end_ns = NowNs();
}

Trace::Trace() {
  SpanLog empty;
  for (int i = 0; i < 2001; ++i) empty.End(empty.Begin("empty", -1, i));
  std::vector<double> us;
  for (const Span& span : empty.spans()) {
    us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  span_cost_us_ = Median(us);
}

void Trace::Add(const SpanLog& log) {
  const int tid = logs_++;
  for (const Span& span : log.spans()) {
    spans_.emplace_back(tid, span);
    durations_us_[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
}

double Trace::MedianUs(const std::string& name) const {
  const auto it = durations_us_.find(name);
  if (it == durations_us_.end()) return 0.0;
  return std::max(0.0, Median(it->second) - span_cost_us_);
}

double Trace::MinUs(const std::string& name) const {
  const auto it = durations_us_.find(name);
  if (it == durations_us_.end()) return 0.0;
  return std::max(
      0.0, *std::min_element(it->second.begin(), it->second.end()) -
               span_cost_us_);
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  int64_t origin = spans_.empty() ? 0 : spans_.front().second.start_ns;
  for (const auto& [tid, span] : spans_) {
    origin = std::min(origin, span.start_ns);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& [tid, s] = spans_[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"request\":%lld}}",
                  i == 0 ? "" : ",", s.name, tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    out << buf << "\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void ReportShares(const LayerTimes& layers, double p50_us, Report* report) {
  static const char* const kLayers[] = {
      "tkg",          "graph",           "tensor",        "par",
      "nn",           "core",            "train",         "serve.router",
      "serve.shard_map", "serve.wire",   "serve.replica", "serve.engine",
      "serve.lru_cache", "stream",       "ckpt"};
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50 split by layer (p50 = %.2f us):",
                p50_us);
  report->Line(buf);
  double attributed_us = 0.0;
  for (const std::string layer : kLayers) {
    const auto it = layers.find(layer);
    const double us = it == layers.end() ? 0.0 : std::max(0.0, it->second);
    attributed_us += us;
    std::snprintf(buf, sizeof(buf), "%.2f us", us);
    report->Metric(layer + ".share", p50_us > 0 ? 100.0 * us / p50_us : 0.0,
                   "%", buf);
  }
  const double rest_us = p50_us - attributed_us;
  std::snprintf(buf, sizeof(buf), "%.2f us", rest_us);
  report->Metric("unattributed.share",
                 p50_us > 0 ? 100.0 * rest_us / p50_us : 0.0, "%", buf);
}

}  // namespace perfbench

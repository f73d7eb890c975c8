// Shared plumbing for the benchmark program: arguments, the metric
// catalogue, the report every workload fills, and the run context.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/pool.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;   // scratch files of this run (removed at exit)
  std::string trace_out; // Chrome trace of the traced chunks ("" = none)
};

/// Parses --workload --seed --seconds --trace --workdir [--trace-out].
bool ParseArgs(int argc, char** argv, Args* out, std::string* error);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0: the same names on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed with --trace 1. A layer a workload does not touch reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  /// Records a metric; the name must be in one of the catalogues.
  void Set(const std::string& name, double value);
  /// Prints one workload fact line (sizes, widths, policies).
  void Fact(const std::string& line);
  /// A failed correctness gate or fit assertion makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }

  /// Operations attempted and failed (wrong answers included).
  Tally ops;

  /// Prints every recorded metric by name with its unit, then the result
  /// object as the last line. Returns the process exit code.
  int Finish(const Args& args);

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

/// What every workload gets: its arguments, the one worker pool of the
/// process, the span recorder and the report.
struct Context {
  Args args;
  dbm::query::WorkerPool* pool = nullptr;
  SpanRecorder spans;
  Report report;
};

/// Runs `body` until `seconds` of host time have passed (at least once);
/// `body` returns false to stop early.
void RunFor(double seconds, const std::function<bool()>& body);

/// Host seconds between two NowNs() readings.
inline double HostSeconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Pins the calling thread to the chunk-th CPU (mod count) the process
/// may use, or with chunk < 0 restores the process's own CPU mask.
/// Threads inherit the mask of the thread that creates them.
///
/// The single-client workloads move their client to the next CPU every
/// chunk: a CPU of a shared host can run ~1.4x slower than its siblings
/// for minutes, and a client held on one CPU made whole runs slow.
void PinThisThread(int chunk);

double PeakRssMb();
/// Bytes of a file, or of every file under a directory.
uint64_t BytesOnDisk(const std::string& path);
/// Registry counter value by name (0 when absent).
uint64_t CounterValue(const std::string& name);

/// A run is a sequence of chunks (query triples, rounds or worlds). With
/// --trace 1 every other chunk is traced, so the traced and untraced
/// halves see the same host drift and comparable data, and tracing
/// overhead is the ratio of their throughputs.
inline bool TracedChunk(const Args& args, size_t chunk) {
  return args.trace && chunk % 2 == 1;
}

/// Reports trace.overhead_pct and trace.self_ms.* from the recorder.
void ReportTrace(Context* ctx, double untraced_ops_per_s,
                 double traced_ops_per_s);

/// Percentiles of a span's durations (µs) in the traced chunks.
Percentile SpanPercentile(const SpanRecorder& spans, const char* name,
                          double q);

void RunOlapHot(Context* ctx);
void RunIngestMixed(Context* ctx);
void RunFlashCrowd(Context* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* out, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     out->seconds > 0 && out->seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      out->trace = value == "1";
    } else if (flag == "--workdir") {
      out->workdir = value;
    } else if (flag == "--trace-out") {
      out->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      out->workdir.empty()) {
    *error =
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "--workdir <dir> [--trace-out <file>]";
    return false;
  }
  return true;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},
  };
  return kMetrics;
}

namespace {

/// The spans the workloads record; each has a trace.self_ms.<name>.
const std::vector<const char*>& SpanNames() {
  static const std::vector<const char*> kSpans = {
      "query.execute_parallel", "op.append",        "storage.append",
      "btree.insert",           "storage.flush_all", "storage.checkpoint",
      "op.lookup",              "btree.search",      "storage.read_at",
      "op.recovery",            "storage.recover",   "storage.attach",
      "loop.run_until",         "frontdoor.submit",  "blackbox.stop",
  };
  return kSpans;
}

}  // namespace

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m = {
        // Workload-specific end-to-end figures, from untraced chunks.
        {"failed_frac", "ratio"},
        {"queries_per_s", "1/s"},
        {"query_p50_ms", "ms"},
        {"query_p90_ms", "ms"},
        {"ingest_ops_per_s", "1/s"},
        {"append_p99_us", "us"},
        {"lookup_p50_us", "us"},
        {"lookup_p99_us", "us"},
        {"scan_p50_ms", "ms"},
        {"write_amp", "ratio"},
        {"recovery_ms", "ms"},
        {"requests_per_host_s", "1/s"},
        {"served_frac", "ratio"},
        {"sim_p99_ms", "ms"},
        // query
        {"query.scan_agg_ms", "ms"},
        {"query.join_agg_ms", "ms"},
        {"query.join_project_ms", "ms"},
        {"query.rows_per_s", "1/s"},
        {"query.worker_util_pct", "%"},
        {"query.steady_allocs", "count"},
        {"query.work_cycles", "count"},
        {"query.morsels", "count"},
        {"query.batches", "count"},
        // query/pool, per query
        {"pool.running_ms", "ms"},
        {"pool.latch_ms", "ms"},
        {"pool.barrier_ms", "ms"},
        {"pool.starved_ms", "ms"},
        {"pool.idle_ms", "ms"},
        // storage.buffer
        {"buffer.gets_per_query", "count"},
        {"buffer.gets_per_lookup", "count"},
        {"buffer.hit_rate", "ratio"},
        {"buffer.misses", "count"},
        {"buffer.evictions", "count"},
        {"buffer.dirty_writebacks", "count"},
        // storage
        {"storage.append_p50_us", "us"},
        {"storage.append_p99_us", "us"},
        {"btree.insert_p50_us", "us"},
        {"btree.insert_p99_us", "us"},
        {"btree.search_p50_us", "us"},
        {"btree.search_p99_us", "us"},
        {"storage.read_at_p50_us", "us"},
        {"storage.read_at_p99_us", "us"},
        {"btree.height", "count"},
        {"storage.checkpoint_p50_ms", "ms"},
        {"storage.checkpoint_max_ms", "ms"},
        {"storage.checkpoints", "count"},
        // storage.wal
        {"wal.appends", "count"},
        {"wal.bytes", "B"},
        {"wal.fsyncs", "count"},
        {"wal.truncated_segments", "count"},
        {"wal.bytes_per_user_byte", "ratio"},
        // storage.disk
        {"disk.reads", "count"},
        {"disk.writes", "count"},
        {"disk.fsyncs", "count"},
        {"disk.space_per_user_byte", "ratio"},
        // storage recovery
        {"recovery.replay_ms", "ms"},
        {"recovery.attach_ms", "ms"},
        {"recovery.frames_scanned", "count"},
        {"recovery.pages_replayed", "count"},
        // patia
        {"frontdoor.submit_p50_us", "us"},
        {"frontdoor.submit_p99_us", "us"},
        {"frontdoor.admitted", "count"},
        {"frontdoor.shed_rule", "count"},
        {"frontdoor.shed_overflow", "count"},
        {"frontdoor.backpressured", "count"},
        {"frontdoor.batches", "count"},
        {"frontdoor.depth_peak", "count"},
        {"profile.queue_us_p99", "us"},
        {"profile.dispatch_us_p99", "us"},
        {"profile.exec_us_p99", "us"},
        // common, os, adapt
        {"loop.events", "count"},
        {"loop.events_per_host_s", "1/s"},
        {"orb.cycles_per_admitted", "count"},
        {"adapt.enactments", "count"},
        {"adapt.reversals", "count"},
        // obs.blackbox
        {"blackbox.offered", "count"},
        {"blackbox.dropped", "count"},
        {"blackbox.drop_ratio", "ratio"},
        {"blackbox.bytes", "B"},
        {"blackbox.fsyncs", "count"},
        {"blackbox.flush_lag_us", "us"},
        {"blackbox.stop_ms", "ms"},
        // net
        {"loadgen.issued", "count"},
        {"loadgen.retries", "count"},
        // set-up, the parts of setup_s
        {"setup.generate_s", "s"},
        {"setup.load_s", "s"},
        {"setup.index_s", "s"},
        {"setup.world_s", "s"},
        // trace
        {"trace.overhead_pct", "%"},
    };
    static std::vector<std::string> self_names;
    for (const char* span : SpanNames()) {
      self_names.push_back(std::string("trace.self_ms.") + span);
    }
    for (const std::string& name : self_names) {
      m.push_back({name.c_str(), "ms"});
    }
    return m;
  }();
  return kMetrics;
}

namespace {

const MetricDef* Find(const std::vector<MetricDef>& defs,
                      const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  if (Find(EndToEndMetrics(), name) == nullptr &&
      Find(PerLayerMetrics(), name) == nullptr) {
    Check(false, "metric " + name + " is in no catalogue");
    return;
  }
  values_[name] = value;
}

void Report::Fact(const std::string& line) {
  std::printf("fact: %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::fprintf(stderr, "perfbench check failed: %s\n", what.c_str());
}

int Report::Finish(const Args& args) {
  const std::vector<MetricDef>& printed =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (!args.trace) {
    for (const MetricDef& d : printed) {
      Check(values_.count(d.name) == 1 && values_[d.name] != 0,
            std::string("end-to-end metric ") + d.name + " was measured");
    }
  }
  Set("failed_frac", ops.FailedFrac());
  std::printf("metrics (%s, workload %s, seed %llu):\n",
              args.trace ? "per layer" : "end to end", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      auto it = values_.find(d.name);
      if (it == values_.end()) continue;
      std::printf("  %-34s %16.6f %s\n", d.name, it->second, d.unit);
    }
  }
  std::string json = "{\"correct\": ";
  json += ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : printed) {
    auto it = values_.find(d.name);
    const double v = it == values_.end() ? 0.0 : it->second;
    json += first ? "" : ", ";
    json += std::string("\"") + d.name + "\": {\"value\": " + JsonNumber(v) +
            ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

void RunFor(double seconds, const std::function<bool()>& body) {
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  do {
    if (!body()) break;
  } while (NowNs() - start < budget);
}

void PinThisThread(int chunk) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (chunk < 0 || cpus.empty()) {
    sched_setaffinity(0, sizeof(allowed), &allowed);  // 0: calling thread
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(chunk) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t BytesOnDisk(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path, ec);
  uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t CounterValue(const std::string& name) {
  return dbm::obs::Registry::Default().GetCounter(name).value();
}

Percentile SpanPercentile(const SpanRecorder& spans, const char* name,
                          double q) {
  for (const SpanRecorder::Total& t : spans.totals()) {
    if (std::string(t.name) == name) return PercentileOf(t.durations_us, q);
  }
  return {};
}

void ReportTrace(Context* ctx, double untraced_ops_per_s,
                 double traced_ops_per_s) {
  if (traced_ops_per_s > 0) {
    ctx->report.Set("trace.overhead_pct",
                    (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0);
  }
  for (const SpanRecorder::Total& t : ctx->spans.totals()) {
    ctx->report.Set(std::string("trace.self_ms.") + t.name,
                    static_cast<double>(t.self_ns) / 1e6);
  }
}

}  // namespace perfbench

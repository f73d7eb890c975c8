// The repository benchmark program. One process, one client thread, one
// worker pool no wider than min(4, nproc); see README.md for the
// workloads and what each metric should move.
//
//   perfbench --workload <olap_hot|ingest_mixed|flash_crowd> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--trace-out <file>]

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common.h"
#include "fault/injector.h"

#ifdef PERFBENCH_COUNT_ALLOCS
#include "obs/alloc_hook.h"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx;
  std::string error;
  if (!ParseArgs(argc, argv, &ctx.args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const Args& args = ctx.args;
  void (*run)(Context*) = nullptr;
  if (args.workload == "olap_hot") run = RunOlapHot;
  if (args.workload == "ingest_mixed") run = RunIngestMixed;
  if (args.workload == "flash_crowd") run = RunFlashCrowd;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
#ifdef PERFBENCH_COUNT_ALLOCS
  dbm::obs::InstallCountingAllocator();
#endif
  // Timing must not absorb injected faults, and the program's own
  // tracer stays at its default so the benchmark measures what ships.
  (void)dbm::fault::Injector::Default().Configure("", 0);

  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.workdir.c_str());
    return 2;
  }

  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t width = std::min<size_t>(4, nproc);
  dbm::query::WorkerPool pool(width);
  ctx.pool = &pool;
  ctx.report.Fact("workload " + args.workload + ", seed " +
                  std::to_string(args.seed) + ", " +
                  std::to_string(args.seconds) + " s measured, trace " +
                  (args.trace ? "on" : "off"));
  ctx.report.Fact("nproc " + std::to_string(nproc) +
                  ", load threads 1 (the caller blocks on each query), "
                  "worker pool width " +
                  std::to_string(pool.size()));
  ctx.report.Check(pool.size() <= nproc,
                   "worker pool is no wider than nproc");

  run(&ctx);

  ctx.report.Set("peak_rss_mb", PeakRssMb());
  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << ctx.spans.ChromeTraceJson();
    ctx.report.Fact("trace: " + std::to_string(ctx.spans.kept().size()) +
                    " spans written to " + args.trace_out);
  }
  std::filesystem::remove_all(args.workdir, ec);
  return ctx.report.Finish(args);
}

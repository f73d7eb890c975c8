// A10 — vectorized columnar execution: batch vs row A/B, in memory and
// over pages.
//
// The same two A9 workloads (filtered scan + grouped aggregation, and
// the headline join + aggregation) run at dop 1, 4 and 8 on both
// parallel engines — the vectorized columnar batch path (the default)
// and the original tuple-at-a-time morsel path — over identical
// generated tables. Every run's result set is order-normalized and
// compared against the serial reference before any timing is read, so
// a wrong fast answer fails the bench, not the baseline. The batch
// engine then runs both plans again over the same tables loaded as
// PagedRelations in a buffer pool that holds every page.
//
// Three assertions ride along (each a non-zero exit):
//   * correctness — batch, row and serial results are the same set at
//     every dop, in memory and paged;
//   * one pin per page — a paged query costs exactly one buffer get per
//     page it scans, build side and probe side, at every dop;
//   * allocation-freedom — after one warm-up query has sized the
//     per-worker arenas, a steady-state aggregation query, over memory
//     or over pages, performs ZERO operator-new calls inside worker
//     morsel bodies (counted by the thread-local alloc hook; enforced
//     whenever the counting allocator is linked in).
//
// Wall-clock ratios are honest-but-noisy host numbers (nogated in the
// committed baseline); the deterministic gate is query.pexec.work_cycles
// — identical across engines and inputs by construction (same shaped
// rows + build rows), so bench_diff catches any accounting drift.

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "query/parallel.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace {

using namespace dbm;
using data::Relation;
using data::Schema;
using data::ValueType;

constexpr size_t kOrders = 400000;
constexpr size_t kPeople = 2000;
constexpr uint64_t kSeed = 42;

Relation MakeOrders() {
  Relation rel("orders", Schema({{"person_id", ValueType::kInt},
                                 {"qty", ValueType::kInt},
                                 {"val", ValueType::kDouble}}));
  Rng rng(kSeed);
  for (size_t i = 0; i < kOrders; ++i) {
    rel.InsertUnchecked(query::Tuple(
        {static_cast<int64_t>(rng.Uniform(kPeople)),
         static_cast<int64_t>(rng.Uniform(50)),
         0.25 * static_cast<double>(rng.Uniform(1000))}));
  }
  return rel;
}

Relation MakePeople() {
  Relation rel("people", Schema({{"id", ValueType::kInt},
                                 {"grp", ValueType::kInt},
                                 {"name", ValueType::kString}}));
  Rng rng(kSeed + 1);
  for (size_t i = 0; i < kPeople; ++i) {
    rel.InsertUnchecked(query::Tuple({static_cast<int64_t>(i),
                                      static_cast<int64_t>(rng.Uniform(32)),
                                      "p#" + std::to_string(i)}));
  }
  return rel;
}

std::multiset<std::string> Canon(const std::vector<query::Tuple>& rows) {
  std::multiset<std::string> out;
  for (const query::Tuple& t : rows) out.insert(t.ToString());
  return out;
}

struct EnginePoint {
  size_t dop = 0;
  double batch_ms = 0;
  double row_ms = 0;
  double ratio = 1.0;  // row_ms / batch_ms (>1 = batch faster)
  query::ParallelStats batch_stats;
};

/// One timed run on one engine; returns false on error or result
/// divergence from `reference`.
bool RunOnce(const query::ParallelPlan& plan, query::WorkerPool* pool,
             size_t dop, query::ParallelEngine engine,
             const std::multiset<std::string>& reference, double* millis,
             query::ParallelStats* stats_out) {
  query::ParallelOptions opt;
  opt.dop = dop;
  opt.pool = pool;
  opt.engine = engine;
  std::vector<query::Tuple> out;
  auto t0 = std::chrono::steady_clock::now();
  auto stats = query::ExecuteParallel(plan, &out, opt);
  auto t1 = std::chrono::steady_clock::now();
  if (!stats.ok()) {
    std::printf("  dop=%zu failed: %s\n", dop,
                stats.status().ToString().c_str());
    return false;
  }
  if (Canon(out) != reference) {
    std::printf("  dop=%zu %s-engine result diverges from serial!\n", dop,
                engine == query::ParallelEngine::kBatch ? "batch" : "row");
    return false;
  }
  *millis = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (stats_out != nullptr) *stats_out = *stats;
  return true;
}

/// The serial result of `plan` (dop=1 delegates to the serial
/// executor), order-normalized; empty on error.
std::multiset<std::string> SerialReference(const query::ParallelPlan& plan,
                                           query::WorkerPool* pool) {
  query::ParallelOptions opt;
  opt.pool = pool;
  std::vector<query::Tuple> out;
  auto stats = query::ExecuteParallel(plan, &out, opt);
  if (!stats.ok()) {
    std::printf("  serial reference failed: %s\n",
                stats.status().ToString().c_str());
    return {};
  }
  return Canon(out);
}

/// A/B curve: both engines at each dop, identical result sets required.
std::vector<EnginePoint> RunAB(const query::ParallelPlan& plan,
                               query::WorkerPool* pool,
                               const std::vector<size_t>& dops) {
  std::multiset<std::string> reference = SerialReference(plan, pool);
  if (reference.empty()) return {};
  std::vector<EnginePoint> curve;
  for (size_t dop : dops) {
    EnginePoint p;
    p.dop = dop;
    if (!RunOnce(plan, pool, dop, query::ParallelEngine::kBatch, reference,
                 &p.batch_ms, &p.batch_stats) ||
        !RunOnce(plan, pool, dop, query::ParallelEngine::kRow, reference,
                 &p.row_ms, nullptr)) {
      return {};
    }
    p.ratio = p.row_ms / std::max(p.batch_ms, 1e-9);
    curve.push_back(p);
  }
  return curve;
}

struct PagedPoint {
  size_t dop = 0;
  double ms = 0;
  uint64_t gets = 0;  // buffer gets during the query
};

/// The batch engine over paged inputs at each dop: results must match
/// `reference` and each query must cost exactly `pages` buffer gets —
/// one pin per page scanned. Empty on any failure.
std::vector<PagedPoint> RunPaged(const query::ParallelPlan& plan,
                                 query::WorkerPool* pool,
                                 const std::vector<size_t>& dops,
                                 const std::multiset<std::string>& reference,
                                 const storage::BufferManager& buffer,
                                 size_t pages) {
  std::vector<PagedPoint> curve;
  for (size_t dop : dops) {
    PagedPoint p;
    p.dop = dop;
    const uint64_t gets_before = buffer.stats().gets;
    if (!RunOnce(plan, pool, dop, query::ParallelEngine::kBatch, reference,
                 &p.ms, nullptr)) {
      return {};
    }
    p.gets = buffer.stats().gets - gets_before;
    if (p.gets != pages) {
      std::printf("FAIL: paged dop=%zu query took %llu buffer gets for %zu "
                  "pages (bar: one get per page scanned)\n",
                  dop, static_cast<unsigned long long>(p.gets), pages);
      return {};
    }
    curve.push_back(p);
  }
  return curve;
}

void PrintPaged(const char* title, const std::vector<PagedPoint>& curve,
                size_t pages) {
  std::printf("\n%s — %zu pages, resident pool\n", title, pages);
  bench::Table table({8, 12, 14});
  table.Row({"dop", "batch ms", "buffer gets"});
  table.Rule();
  for (const PagedPoint& p : curve) {
    table.Row({bench::FmtU(p.dop), bench::Fmt("%.1f", p.ms),
               bench::FmtU(p.gets)});
  }
  table.Rule();
}

void PrintCurve(const char* title, const std::vector<EnginePoint>& curve) {
  std::printf("\n%s\n", title);
  bench::Table table({8, 12, 12, 12, 10});
  table.Row({"dop", "batch ms", "row ms", "row/batch", "batches"});
  table.Rule();
  for (const EnginePoint& p : curve) {
    table.Row({bench::FmtU(p.dop), bench::Fmt("%.1f", p.batch_ms),
               bench::Fmt("%.1f", p.row_ms), bench::Fmt("%.2fx", p.ratio),
               bench::FmtU(p.batch_stats.batches)});
  }
  table.Rule();
}

}  // namespace

int main(int argc, char** argv) {
  dbm::bench::Init(&argc, argv);
  bench::Header("A10", "vectorized batch execution: batch vs row A/B");

  // Timing and the zero-alloc assertion must not absorb injected faults.
  (void)fault::Injector::Default().Configure("", 0);
  obs::InstallCountingAllocator();

  Relation orders = MakeOrders();
  Relation people = MakePeople();
  const std::vector<size_t> dops = {1, 4, 8};
  query::WorkerPool pool(8);

  // Workload 1: filtered scan + grouped aggregation.
  query::ParallelPlan scan_plan;
  scan_plan.probe.mem = &orders;
  scan_plan.probe.filter = query::Gt(query::Col(1), query::Lit(int64_t{4}));
  scan_plan.group_by = {0};
  scan_plan.aggs = {{query::AggFunc::kCount, 0, "n"},
                    {query::AggFunc::kSum, 2, "sum_val"}};
  std::vector<EnginePoint> scan_curve = RunAB(scan_plan, &pool, dops);
  if (scan_curve.empty()) return 1;
  PrintCurve("scan + aggregate (400k rows)", scan_curve);

  // Workload 2: join + grouped aggregation.
  query::ParallelPlan join_plan;
  join_plan.probe.mem = &orders;
  query::ParallelJoinStage stage;
  stage.build.mem = &people;
  stage.spec = query::JoinSpec{0, 0};  // people.id = orders.person_id
  join_plan.joins.push_back(std::move(stage));
  // Joined schema: people(id, grp, name) ++ orders(person_id, qty, val).
  join_plan.group_by = {1};
  join_plan.aggs = {{query::AggFunc::kCount, 0, "n"},
                    {query::AggFunc::kSum, 5, "sum_val"},
                    {query::AggFunc::kMax, 4, "max_qty"}};
  std::vector<EnginePoint> join_curve = RunAB(join_plan, &pool, dops);
  if (join_curve.empty()) return 1;
  PrintCurve("join + aggregate (400k ⋈ 2k)", join_curve);

  // The same plans over pages: both tables loaded as PagedRelations in a
  // pool that holds every page, so the run measures the scan path, not
  // the disk.
  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::LruPolicy>();
  auto buffer = std::make_shared<storage::BufferManager>("vec-pool", 4096);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(policy);
  auto paged_orders =
      storage::PagedRelation::Load(orders, buffer.get(), disk.get());
  auto paged_people =
      storage::PagedRelation::Load(people, buffer.get(), disk.get());
  if (!paged_orders.ok() || !paged_people.ok()) return 1;
  const size_t orders_pages = (*paged_orders)->pages();
  const size_t people_pages = (*paged_people)->pages();
  if (orders_pages + people_pages > buffer->frame_count()) return 1;

  query::ParallelPlan paged_scan_plan = scan_plan;
  paged_scan_plan.probe.mem = nullptr;
  paged_scan_plan.probe.paged = paged_orders->get();
  std::vector<PagedPoint> paged_scan =
      RunPaged(paged_scan_plan, &pool, dops,
               SerialReference(scan_plan, &pool), *buffer, orders_pages);
  if (paged_scan.empty()) return 1;
  PrintPaged("paged scan + aggregate", paged_scan, orders_pages);

  query::ParallelPlan paged_join_plan = join_plan;
  paged_join_plan.probe.mem = nullptr;
  paged_join_plan.probe.paged = paged_orders->get();
  paged_join_plan.joins[0].build.mem = nullptr;
  paged_join_plan.joins[0].build.paged = paged_people->get();
  std::vector<PagedPoint> paged_join = RunPaged(
      paged_join_plan, &pool, dops, SerialReference(join_plan, &pool),
      *buffer, orders_pages + people_pages);
  if (paged_join.empty()) return 1;
  PrintPaged("paged join + aggregate", paged_join,
             orders_pages + people_pages);

  // Allocation-freedom: the curves above warmed every worker's arenas
  // (chunks are retained across queries), so a steady-state run of the
  // same aggregation must do zero operator-new calls inside worker
  // morsel bodies — over memory and over pages alike.
  query::ParallelOptions warm;
  warm.dop = 4;
  warm.pool = &pool;
  std::vector<query::Tuple> out;
  auto warm_stats = query::ExecuteParallel(scan_plan, &out, warm);
  if (!warm_stats.ok()) return 1;
  uint64_t steady = warm_stats->steady_allocs;
  out.clear();
  auto paged_warm_stats =
      query::ExecuteParallel(paged_scan_plan, &out, warm);
  if (!paged_warm_stats.ok()) return 1;
  uint64_t paged_steady = paged_warm_stats->steady_allocs;
  bool counting = obs::AllocCountingInstalled();
  if (counting) {
    bench::Note("steady-state morsel-body allocations: mem " +
                std::to_string(steady) + ", paged " +
                std::to_string(paged_steady) +
                " (bar: 0 — arenas retained, hot path allocation-free)");
  } else {
    bench::Note("counting allocator not linked; zero-alloc bar reported, "
                "not enforced");
  }

  obs::Registry& reg = obs::Registry::Default();
  for (const EnginePoint& p : scan_curve) {
    reg.GetGauge("bench.vec.scan_batch_ms_dop" + std::to_string(p.dop))
        .Set(p.batch_ms);
    reg.GetGauge("bench.vec.scan_row_ms_dop" + std::to_string(p.dop))
        .Set(p.row_ms);
    reg.GetGauge("bench.vec.scan_ratio_dop" + std::to_string(p.dop))
        .Set(p.ratio);
  }
  for (const EnginePoint& p : join_curve) {
    reg.GetGauge("bench.vec.join_batch_ms_dop" + std::to_string(p.dop))
        .Set(p.batch_ms);
    reg.GetGauge("bench.vec.join_row_ms_dop" + std::to_string(p.dop))
        .Set(p.row_ms);
    reg.GetGauge("bench.vec.join_ratio_dop" + std::to_string(p.dop))
        .Set(p.ratio);
  }
  for (const PagedPoint& p : paged_scan) {
    reg.GetGauge("bench.vec.paged_scan_ms_dop" + std::to_string(p.dop))
        .Set(p.ms);
    reg.GetGauge("bench.vec.paged_scan_gets_dop" + std::to_string(p.dop))
        .Set(static_cast<double>(p.gets));
  }
  for (const PagedPoint& p : paged_join) {
    reg.GetGauge("bench.vec.paged_join_ms_dop" + std::to_string(p.dop))
        .Set(p.ms);
    reg.GetGauge("bench.vec.paged_join_gets_dop" + std::to_string(p.dop))
        .Set(static_cast<double>(p.gets));
  }
  reg.GetGauge("bench.vec.paged_scan_pages")
      .Set(static_cast<double>(orders_pages));
  reg.GetGauge("bench.vec.paged_join_pages")
      .Set(static_cast<double>(orders_pages + people_pages));
  reg.GetGauge("bench.vec.steady_allocs").Set(static_cast<double>(steady));
  reg.GetGauge("bench.vec.paged_steady_allocs")
      .Set(static_cast<double>(paged_steady));

  double join_ratio8 = 1.0;
  for (const EnginePoint& p : join_curve) {
    if (p.dop == 8) join_ratio8 = p.ratio;
  }
  unsigned hw = std::thread::hardware_concurrency();
  reg.GetGauge("bench.vec.hw_threads").Set(static_cast<double>(hw));
  bench::Note(bench::Fmt("dop=8 join row/batch wall-clock ratio %.2fx",
                         join_ratio8) +
              " (informational; host wall-clock is nogated)");

  bench::MetricsSidecar("bench_vectorized");

  if (counting && (steady != 0 || paged_steady != 0)) {
    std::printf("FAIL: steady-state batch path performed %llu (mem) and "
                "%llu (paged) operator-new calls (bar: 0)\n",
                static_cast<unsigned long long>(steady),
                static_cast<unsigned long long>(paged_steady));
    return 1;
  }
  return 0;
}

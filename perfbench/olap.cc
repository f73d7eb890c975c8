// olap_hot: read-only analytics over tables that fit the buffer pool.
//
// One client sends back-to-back queries through ExecuteParallel at
// dop = min(4, nproc) over the A9 tables (orders 400k rows, people 2k
// rows), loaded as PagedRelations on a FileDiskComponent with a WAL.
// The pool is sized so every page stays resident and uses the library's
// default shard count, so after set-up the query engine, the worker
// pool and the buffer hit/latch path do all the work; the disk and the
// WAL do none.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "data/relation.h"
#include "obs/waitstate.h"
#include "query/executor.h"
#include "query/parallel.h"
#include "storage/buffer.h"
#include "storage/durable_disk.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

using namespace dbm;
using query::Col;
using query::Lit;
using query::Tuple;

constexpr size_t kOrders = 400000;
constexpr size_t kPeople = 2000;
constexpr size_t kFrames = 4096;
constexpr size_t kSetups = 3;
constexpr size_t kDraws = 3;  // filter-constant draws per template
// A run sends a fixed number of queries, so every run reports the same
// percentiles of the same sample count. About 1.6 queries complete per
// second on a 4-CPU host; a run that takes three times its budget stops
// early and says so.
constexpr double kQueriesPerSecond = 1.6;

enum Template : size_t { kScanAgg, kJoinAgg, kJoinProject, kTemplates };
constexpr const char* kTemplateMetric[kTemplates] = {
    "query.scan_agg_ms", "query.join_agg_ms", "query.join_project_ms"};

/// One set-up: the generated tables (also the oracle's in-memory
/// copies) and their paged, WAL-backed form.
struct Store {
  data::Relation orders, people;
  std::shared_ptr<storage::FileDiskComponent> disk;
  std::unique_ptr<storage::Wal> wal;
  std::shared_ptr<storage::BufferManager> buffer;
  std::unique_ptr<storage::PagedRelation> p_orders, p_people;
  std::string page_path, wal_dir;

  ~Store() {
    p_orders.reset();
    p_people.reset();
    if (buffer != nullptr) buffer->SetWal(nullptr);
  }
};

struct SetupTimes {
  double generate_s = 0, load_s = 0;
};

std::unique_ptr<Store> SetUp(Context* ctx, size_t index, SetupTimes* times) {
  auto store = std::make_unique<Store>();
  const uint64_t seed = ctx->args.seed;
  int64_t t0 = NowNs();
  store->orders = data::gen::Orders(kOrders, kPeople, 0.5, seed);
  store->people = data::gen::People(kPeople, seed ^ 0x5eed);
  int64_t t1 = NowNs();

  store->page_path = ctx->args.workdir + "/olap-" + std::to_string(index) +
                     ".dbm";
  store->wal_dir = ctx->args.workdir + "/olap-" + std::to_string(index) +
                   ".wal";
  auto disk = storage::FileDiskComponent::Open(store->page_path);
  ctx->report.Check(disk.ok(), "olap page file opens");
  if (!disk.ok()) return nullptr;
  store->disk = std::move(*disk);
  storage::WalOptions wopt;
  wopt.dir = store->wal_dir;
  wopt.fsync = storage::WalFsyncPolicy::kInterval;
  auto wal = storage::Wal::Open(wopt);
  ctx->report.Check(wal.ok(), "olap wal opens");
  if (!wal.ok()) return nullptr;
  store->wal = std::move(*wal);
  store->buffer = std::make_shared<storage::BufferManager>("olap", kFrames);
  store->buffer->FindPort("disk")->SetTarget(store->disk);
  store->buffer->FindPort("policy")->SetTarget(
      std::make_shared<storage::LruPolicy>());
  store->buffer->SetWal(store->wal.get());
  auto po = storage::PagedRelation::Load(store->orders, store->buffer.get(),
                                         store->disk.get());
  auto pp = storage::PagedRelation::Load(store->people, store->buffer.get(),
                                         store->disk.get());
  ctx->report.Check(po.ok() && pp.ok(), "olap tables load");
  if (!po.ok() || !pp.ok()) return nullptr;
  store->p_orders = std::move(*po);
  store->p_people = std::move(*pp);
  ctx->report.Check(store->buffer->FlushAll().ok() &&
                        store->buffer->CheckpointWal().ok(),
                    "olap load is made durable");
  int64_t t2 = NowNs();
  times->generate_s = HostSeconds(t0, t1);
  times->load_s = HostSeconds(t1, t2);
  return store;
}

struct Draw {
  double amount_cut = 0;   // scan_agg: amount > cut
  int64_t day_from = 0;    // join_agg: day in [from, from + 120)
  int64_t age = 0;         // join_project: age == age
  double amount_high = 0;  // join_project: amount > high
};

query::ParallelScan ScanOf(const storage::PagedRelation* paged,
                           const data::Relation* mem) {
  query::ParallelScan s;
  s.paged = paged;
  s.mem = mem;
  return s;
}

/// orders(id, person_id, amount, day); people(id, name, age, city). A
/// join's pipeline schema is people ++ orders (build columns first).
query::ParallelPlan MakePlan(Template t, const Draw& d,
                             query::ParallelScan orders,
                             query::ParallelScan people) {
  using query::AggFunc;
  query::ParallelPlan plan;
  plan.probe = orders;
  if (t == kScanAgg) {
    plan.probe.filter = query::Gt(Col(2), Lit(d.amount_cut));
    plan.group_by = {3};
    plan.aggs = {{AggFunc::kCount, 0, "n"},
                 {AggFunc::kSum, 2, "sum_amount"},
                 {AggFunc::kMax, 2, "max_amount"}};
    return plan;
  }
  query::ParallelJoinStage stage;
  stage.build = people;
  stage.spec = query::JoinSpec{0, 1};  // people.id = orders.person_id
  plan.joins.push_back(std::move(stage));
  if (t == kJoinAgg) {
    plan.probe.filter =
        query::And(query::Ge(Col(3), Lit(d.day_from)),
                   query::Lt(Col(3), Lit(d.day_from + 120)));
    plan.group_by = {3};
    plan.aggs = {{AggFunc::kCount, 0, "n"},
                 {AggFunc::kSum, 6, "sum_amount"},
                 {AggFunc::kMax, 2, "max_age"}};
    return plan;
  }
  plan.post_filter = query::And(query::Eq(Col(2), Lit(d.age)),
                                query::Gt(Col(6), Lit(d.amount_high)));
  plan.project = {Col(1), Col(6), Col(7)};
  plan.project_schema = data::Schema({{"name", data::ValueType::kString},
                                      {"amount", data::ValueType::kDouble},
                                      {"day", data::ValueType::kInt}});
  return plan;
}

/// Sort key: every non-double cell, then the doubles at full precision.
std::string SortKey(const Tuple& t) {
  std::string key, doubles;
  char buf[40];
  for (const data::Value& v : t.values) {
    if (const double* d = std::get_if<double>(&v)) {
      std::snprintf(buf, sizeof(buf), "%.17g|", *d);
      doubles += buf;
    } else {
      key += data::ValueToString(v) + "|";
    }
  }
  return key + "#" + doubles;
}

bool SameCell(const data::Value& a, const data::Value& b) {
  const double* da = std::get_if<double>(&a);
  const double* db = std::get_if<double>(&b);
  if (da != nullptr && db != nullptr) {
    // Parallel sums reassociate floating-point addition.
    return std::fabs(*da - *db) <=
           1e-9 * std::max({1.0, std::fabs(*da), std::fabs(*db)});
  }
  return a == b;
}

std::vector<std::pair<std::string, const Tuple*>> Normalised(
    const std::vector<Tuple>& rows) {
  std::vector<std::pair<std::string, const Tuple*>> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back({SortKey(t), &t});
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

/// Cell-for-cell equality after order normalisation.
bool SameRows(const std::vector<Tuple>& got, const std::vector<Tuple>& want) {
  if (got.size() != want.size()) return false;
  auto g = Normalised(got);
  auto w = Normalised(want);
  for (size_t i = 0; i < g.size(); ++i) {
    const Tuple& a = *g[i].second;
    const Tuple& b = *w[i].second;
    if (a.size() != b.size()) return false;
    for (size_t c = 0; c < a.size(); ++c) {
      if (!SameCell(a.at(c), b.at(c))) return false;
    }
  }
  return true;
}

struct Query {
  Template t;
  query::ParallelPlan paged;
  std::vector<Tuple> oracle;
  uint64_t input_rows = 0;
};

/// Counter readings bracketing the measured queries.
struct Snapshot {
  storage::BufferStats buffer;
  storage::WalStats wal;
  uint64_t disk_reads = 0, disk_writes = 0, disk_fsyncs = 0;
  uint64_t busy_ns = 0, latch_ns = 0, barrier_ns = 0, starved_ns = 0,
           idle_ns = 0;

  static Snapshot Take(const Store& s, const query::WorkerPool& pool) {
    Snapshot x;
    x.buffer = s.buffer->stats();
    x.wal = s.wal->stats();
    x.disk_reads = CounterValue("store.disk.reads");
    x.disk_writes = CounterValue("store.disk.writes");
    x.disk_fsyncs = CounterValue("store.disk.fsyncs");
    x.busy_ns = pool.TotalBusyNs();
    x.latch_ns = pool.StateNs(obs::WaitState::kLatch);
    x.barrier_ns = pool.StateNs(obs::WaitState::kBarrier);
    x.starved_ns = pool.StateNs(obs::WaitState::kStarved);
    x.idle_ns = pool.IdleNs();
    return x;
  }
};

/// What one half of a run (untraced or traced chunks) measured.
struct PhaseResult {
  std::vector<double> latency_ms;
  std::vector<double> template_ms[kTemplates];
  // Throughput of each chunk of kTemplates consecutive queries. The
  // host's speed drifts over seconds, so the run reports their median.
  std::vector<double> chunk_qps;
  double busy_s = 0;  // host seconds the caller was blocked in queries
  uint64_t input_rows = 0;
  uint64_t steady_allocs = 0;
  size_t queries = 0;
};

/// Sends `total` queries in chunks of kTemplates; out[1] holds the
/// traced chunks.
void RunQueries(Context* ctx, std::vector<Query>& queries, size_t total,
                double cap_seconds, PhaseResult out[2]) {
  query::ParallelOptions opt;
  opt.dop = ctx->pool->size();
  opt.pool = ctx->pool;
  size_t sent = 0;
  double chunk_s = 0;
  RunFor(cap_seconds, [&] {
    if (sent == total) return false;
    const bool traced = TracedChunk(ctx->args, sent / kTemplates);
    ctx->spans.set_enabled(traced);
    PhaseResult& r = out[traced];
    Query& q = queries[sent++ % queries.size()];
    std::vector<Tuple> result;
    const int64_t t0 = NowNs();
    auto stats = [&] {
      SpanRecorder::Scope span(&ctx->spans, "query.execute_parallel");
      return query::ExecuteParallel(q.paged, &result, opt);
    }();
    const int64_t t1 = NowNs();
    const bool ok = stats.ok() && SameRows(result, q.oracle);
    ctx->report.ops.Add(ok);
    if (!ok) {
      std::fprintf(stderr, "olap_hot: wrong answer (%s)\n",
                   stats.ok() ? "rows differ"
                              : stats.status().ToString().c_str());
    }
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    r.latency_ms.push_back(ms);
    r.template_ms[q.t].push_back(ms);
    r.busy_s += HostSeconds(t0, t1);
    chunk_s += HostSeconds(t0, t1);
    if (sent % kTemplates == 0) {
      r.chunk_qps.push_back(static_cast<double>(kTemplates) / chunk_s);
      chunk_s = 0;
    }
    r.input_rows += q.input_rows;
    if (stats.ok()) r.steady_allocs += stats->steady_allocs;
    ++r.queries;
    return true;
  });
  ctx->spans.set_enabled(false);
}

}  // namespace

void RunOlapHot(Context* ctx) {
  Report& rep = ctx->report;
  std::unique_ptr<Store> store;
  std::vector<double> setup_s, generate_s, load_s;
  for (size_t i = 0; i < kSetups; ++i) {
    if (store != nullptr) {
      std::error_code ec;
      const std::string page_path = store->page_path, wal_dir = store->wal_dir;
      store.reset();
      std::filesystem::remove(page_path, ec);
      std::filesystem::remove_all(wal_dir, ec);
    }
    SetupTimes times;
    store = SetUp(ctx, i, &times);
    if (store == nullptr) return;
    setup_s.push_back(times.generate_s + times.load_s);
    generate_s.push_back(times.generate_s);
    load_s.push_back(times.load_s);
  }
  rep.Set("setup_s", Median(setup_s));
  rep.Set("setup.generate_s", Median(generate_s));
  rep.Set("setup.load_s", Median(load_s));

  const size_t pages = store->p_orders->pages() + store->p_people->pages();
  rep.Fact("orders " + std::to_string(store->p_orders->rows()) + " rows = " +
           std::to_string(store->p_orders->pages()) + " pages, people " +
           std::to_string(store->p_people->rows()) + " rows = " +
           std::to_string(store->p_people->pages()) + " pages");
  rep.Fact("buffer pool " + std::to_string(kFrames) + " frames for " +
           std::to_string(pages) + " pages, " +
           std::to_string(store->buffer->shard_count()) +
           " shard(s) (library default), LRU");
  rep.Fact("wal fsync policy " +
           std::string(storage::WalFsyncPolicyName(
               store->wal->options().fsync)) +
           " every " +
           std::to_string(store->wal->options().fsync_interval_bytes) +
           " B (library default interval)");
  rep.Check(pages <= kFrames, "olap_hot fits the buffer pool");
  rep.Check(store->p_orders->rows() == kOrders &&
                store->p_people->rows() == kPeople,
            "olap tables hold every generated row");

  // Templates x seeded filter constants. Each draw's answer comes from
  // the serial executor over the in-memory copies.
  dbm::Rng rng(ctx->args.seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<Query> queries;
  for (size_t d = 0; d < kDraws; ++d) {
    Draw draw;
    draw.amount_cut = rng.UniformDouble(100.0, 400.0);
    draw.day_from = rng.UniformInt(0, 244);
    draw.age = rng.UniformInt(18, 90);
    draw.amount_high = rng.UniformDouble(350.0, 450.0);
    for (size_t t = 0; t < kTemplates; ++t) {
      Query q;
      q.t = static_cast<Template>(t);
      q.paged = MakePlan(q.t, draw,
                         ScanOf(store->p_orders.get(), nullptr),
                         ScanOf(store->p_people.get(), nullptr));
      q.input_rows = kOrders + (t == kScanAgg ? 0 : kPeople);
      auto serial = query::BuildSerial(MakePlan(
          q.t, draw, ScanOf(nullptr, &store->orders),
          ScanOf(nullptr, &store->people)));
      rep.Check(serial.ok(), "serial oracle plan builds");
      if (!serial.ok()) return;
      rep.Check(query::Execute(serial->get(), &q.oracle).ok(),
                "serial oracle runs");
      queries.push_back(std::move(q));
    }
  }

  // Warm pass: one query per template fills the worker arenas; its
  // counters are the deterministic work of one pass.
  const uint64_t cycles0 = CounterValue("query.pexec.work_cycles");
  uint64_t morsels = 0, batches = 0;
  for (size_t t = 0; t < kTemplates; ++t) {
    Query& q = queries[t];
    query::ParallelOptions opt;
    opt.dop = ctx->pool->size();
    opt.pool = ctx->pool;
    std::vector<Tuple> out;
    auto stats = query::ExecuteParallel(q.paged, &out, opt);
    rep.Check(stats.ok() && SameRows(out, q.oracle),
              "warm pass matches the serial oracle");
    if (stats.ok()) {
      morsels += stats->morsels;
      batches += stats->batches;
    }
  }
  rep.Set("query.work_cycles", static_cast<double>(
                                   CounterValue("query.pexec.work_cycles") -
                                   cycles0));
  rep.Set("query.morsels", static_cast<double>(morsels));
  rep.Set("query.batches", static_cast<double>(batches));

  const size_t total =
      kTemplates * std::max<size_t>(
                       1, static_cast<size_t>(std::llround(
                              ctx->args.seconds * kQueriesPerSecond /
                              static_cast<double>(kTemplates))));
  const Snapshot before = Snapshot::Take(*store, *ctx->pool);
  PhaseResult halves[2];
  RunQueries(ctx, queries, total, 3 * ctx->args.seconds, halves);
  const Snapshot after = Snapshot::Take(*store, *ctx->pool);
  const PhaseResult& a = halves[0];
  const PhaseResult& b = halves[1];

  // Per-query counters cover every query; timings only untraced ones.
  const double n = static_cast<double>(a.queries + b.queries);
  const double qps = Median(a.chunk_qps);
  const Percentile p50 = PercentileOf(a.latency_ms, 0.5);
  const Percentile tail = PercentileOf(a.latency_ms, 0.9);
  rep.Fact("queries " + std::to_string(a.queries + b.queries) + " of " +
           std::to_string(total) + " planned (" + std::to_string(b.queries) +
           " traced); untraced tail percentile p" +
           std::to_string(tail.q * 100).substr(0, 5) + " (p90 requested; "
           "at least 10 samples beyond it)");
  rep.Set("ops_per_s", qps);
  rep.Set("op_p50_ms", p50.value);
  rep.Set("op_tail_ms", tail.value);
  rep.Set("queries_per_s", qps);
  rep.Set("query_p50_ms", p50.value);
  rep.Set("query_p90_ms", tail.value);
  for (size_t t = 0; t < kTemplates; ++t) {
    rep.Set(kTemplateMetric[t], Median(a.template_ms[t]));
  }
  rep.Set("query.rows_per_s", static_cast<double>(a.input_rows) / a.busy_s);
  const double busy_ns = static_cast<double>(after.busy_ns - before.busy_ns);
  rep.Set("query.worker_util_pct",
          100.0 * busy_ns /
              ((a.busy_s + b.busy_s) * 1e9 *
               static_cast<double>(ctx->pool->size())));
  rep.Set("query.steady_allocs",
          static_cast<double>(a.steady_allocs + b.steady_allocs));
  rep.Set("pool.running_ms", busy_ns / 1e6 / n);
  rep.Set("pool.latch_ms",
          static_cast<double>(after.latch_ns - before.latch_ns) / 1e6 / n);
  rep.Set("pool.barrier_ms",
          static_cast<double>(after.barrier_ns - before.barrier_ns) / 1e6 /
              n);
  rep.Set("pool.starved_ms",
          static_cast<double>(after.starved_ns - before.starved_ns) / 1e6 /
              n);
  rep.Set("pool.idle_ms",
          static_cast<double>(after.idle_ns - before.idle_ns) / 1e6 / n);
  const uint64_t gets = after.buffer.gets - before.buffer.gets;
  const uint64_t hits = after.buffer.hits - before.buffer.hits;
  rep.Set("buffer.gets_per_query", static_cast<double>(gets) / n);
  rep.Set("buffer.hit_rate",
          gets == 0 ? 0
                    : static_cast<double>(hits) / static_cast<double>(gets));
  rep.Set("buffer.misses",
          static_cast<double>(after.buffer.misses - before.buffer.misses));
  rep.Set("buffer.evictions", static_cast<double>(after.buffer.evictions -
                                                  before.buffer.evictions));
  rep.Set("buffer.dirty_writebacks",
          static_cast<double>(after.buffer.dirty_writebacks -
                              before.buffer.dirty_writebacks));
  rep.Check(after.buffer.misses == before.buffer.misses,
            "olap_hot stays resident (buffer hit rate 1.0)");
  rep.Set("wal.appends",
          static_cast<double>(after.wal.appends - before.wal.appends));
  rep.Set("wal.bytes", static_cast<double>(after.wal.bytes - before.wal.bytes));
  rep.Set("wal.fsyncs",
          static_cast<double>(after.wal.fsyncs - before.wal.fsyncs));
  rep.Set("wal.truncated_segments",
          static_cast<double>(after.wal.truncated_segments -
                              before.wal.truncated_segments));
  rep.Set("disk.reads", static_cast<double>(after.disk_reads -
                                            before.disk_reads));
  rep.Set("disk.writes", static_cast<double>(after.disk_writes -
                                             before.disk_writes));
  rep.Set("disk.fsyncs", static_cast<double>(after.disk_fsyncs -
                                             before.disk_fsyncs));
  uint64_t user_bytes = 0;
  for (const data::Relation* rel : {&store->orders, &store->people}) {
    for (const Tuple& t : rel->rows()) {
      user_bytes += storage::EncodeTuple(t).size();
    }
  }
  rep.Set("disk.space_per_user_byte",
          SpacePerUserByte(BytesOnDisk(store->page_path) +
                               BytesOnDisk(store->wal_dir),
                           user_bytes));

  if (ctx->args.trace) ReportTrace(ctx, qps, Median(b.chunk_qps));
}

}  // namespace perfbench

// ingest_mixed: writes beside reads on a working set larger than the
// buffer pool, ending in an unclean stop and recovery.
//
// One client runs a seeded mix over a sensor-readings table whose
// history is at least 4x the pool: appends (PagedRelation::Append plus
// BPlusTree::Insert of seq -> (page, slot)), point lookups skewed
// toward recent rows (BPlusTree::Search plus PagedRelation::ReadAt) and,
// every kScanEvery-th operation, a dop-1 scan + aggregate over the whole
// table. Every kBarrierEvery appends the client takes a durable barrier
// (FlushAll, then CheckpointWal). The work falls on eviction,
// WAL-before-writeback, checkpoints, the serial Volcano path and
// recovery; the parallel engine does none of it.

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
#include "query/parallel.h"
#include "storage/btree.h"
#include "storage/buffer.h"
#include "storage/durable_disk.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

using namespace dbm;
using query::Tuple;

constexpr size_t kFrames = 256;         // the heap pool under pressure
constexpr size_t kIndexFrames = 4096;   // holds the whole index
constexpr size_t kHistoryRows = 160000;
constexpr size_t kSensors = 64;
constexpr size_t kSetups = 3;
constexpr uint32_t kAppendPct = 4;      // the rest of the mix are lookups
constexpr uint64_t kScanEvery = 16384;  // every K-th operation scans
constexpr uint64_t kBarrierEvery = 256;  // appends per durable barrier
// A run plays a fixed number of rounds (kScanEvery operations each), so
// two builds of the program grow the table by the same rows and write the same
// bytes. About six rounds take a second on a 4-CPU host; a run that
// takes three times its budget stops early and says so.
constexpr double kRoundsPerSecond = 6;
constexpr size_t kRecoveryCopies = 3;

const data::Schema& ReadingsSchema() {
  static const data::Schema schema({{"seq", data::ValueType::kInt},
                                    {"sensor", data::ValueType::kInt},
                                    {"ts", data::ValueType::kInt},
                                    {"value", data::ValueType::kDouble}});
  return schema;
}

/// Row `seq` of the readings table, a pure function of (seed, seq): the
/// checks regenerate what they expect instead of keeping a copy of the
/// table, which would add its own cache traffic to every lookup.
Tuple Reading(uint64_t seed, int64_t seq) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(seq));
  return Tuple({seq, static_cast<int64_t>(rng.Uniform(kSensors)),
                seq * 10 + rng.UniformInt(0, 9),
                rng.UniformDouble(-40.0, 60.0)});
}

uint64_t Pack(size_t page, uint16_t slot) {
  return (static_cast<uint64_t>(page) << 16) | slot;
}

/// Running per-sensor aggregates: the scan's expected answer.
struct SensorAgg {
  int64_t count = 0;
  double sum = 0;
  double max = -1e300;
};

/// The store under test plus what the checks need to know about it.
struct Store {
  std::string page_path, wal_dir;
  std::shared_ptr<storage::FileDiskComponent> disk;
  std::unique_ptr<storage::Wal> wal;
  std::shared_ptr<storage::BufferManager> buffer;
  std::unique_ptr<storage::PagedRelation> readings;
  std::shared_ptr<storage::DiskComponent> index_disk;
  std::shared_ptr<storage::BufferManager> index_buffer;
  std::unique_ptr<storage::BPlusTree> index;

  uint64_t seed = 0;
  uint64_t rows = 0;  // rows appended, history included
  std::vector<SensorAgg> sensors = std::vector<SensorAgg>(kSensors);
  size_t last_pages = 0;
  uint16_t last_slot = 0;
  uint64_t user_bytes = 0;

  /// Drops every handle without FlushAll: the unclean stop.
  void Drop() {
    index.reset();
    index_buffer.reset();
    index_disk.reset();
    readings.reset();
    if (buffer != nullptr) buffer->SetWal(nullptr);
    buffer.reset();
    wal.reset();
    disk.reset();
  }
  ~Store() { Drop(); }

  /// Appends through the public call and returns where the row landed.
  Status Append(const Tuple& row, uint64_t* where, SpanRecorder* spans) {
    {
      SpanRecorder::Scope span(spans, "storage.append");
      DBM_RETURN_NOT_OK(readings->Append(row));
    }
    const size_t pages = readings->pages();
    last_slot = pages != last_pages ? 0 : static_cast<uint16_t>(last_slot + 1);
    last_pages = pages;
    *where = Pack(pages - 1, last_slot);
    return Status::OK();
  }

  /// Accounts for a row the table has acknowledged.
  void Count(const Tuple& row) {
    ++rows;
    SensorAgg& s = sensors[std::get<int64_t>(row.at(1))];
    const double v = std::get<double>(row.at(3));
    ++s.count;
    s.sum += v;
    s.max = std::max(s.max, v);
    user_bytes += storage::EncodeTuple(row).size();
  }
};

struct SetupTimes {
  double generate_s = 0, load_s = 0, index_s = 0;
};

std::unique_ptr<Store> SetUp(Context* ctx, size_t index, SetupTimes* times) {
  auto store = std::make_unique<Store>();
  Report& rep = ctx->report;
  const std::string base = ctx->args.workdir + "/ingest-" +
                           std::to_string(index);
  store->page_path = base + ".dbm";
  store->wal_dir = base + ".wal";

  store->seed = ctx->args.seed;
  const int64_t t0 = NowNs();
  std::vector<Tuple> history;
  history.reserve(kHistoryRows);
  for (size_t i = 0; i < kHistoryRows; ++i) {
    history.push_back(Reading(store->seed, static_cast<int64_t>(i)));
  }
  const int64_t t1 = NowNs();

  auto disk = storage::FileDiskComponent::Open(store->page_path);
  storage::WalOptions wopt;
  wopt.dir = store->wal_dir;
  wopt.fsync = storage::WalFsyncPolicy::kInterval;
  auto wal = storage::Wal::Open(wopt);
  rep.Check(disk.ok() && wal.ok(), "ingest page file and wal open");
  if (!disk.ok() || !wal.ok()) return nullptr;
  store->disk = std::move(*disk);
  store->wal = std::move(*wal);
  store->buffer = std::make_shared<storage::BufferManager>("ingest", kFrames);
  store->buffer->FindPort("disk")->SetTarget(store->disk);
  store->buffer->FindPort("policy")->SetTarget(
      std::make_shared<storage::LruPolicy>());
  store->buffer->SetWal(store->wal.get());
  auto rel = storage::PagedRelation::Load(
      data::Relation("readings", ReadingsSchema()), store->buffer.get(),
      store->disk.get());
  rep.Check(rel.ok(), "readings table is created");
  if (!rel.ok()) return nullptr;
  store->readings = std::move(*rel);
  std::vector<uint64_t> where(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    if (!store->Append(history[i], &where[i], nullptr).ok()) {
      rep.Check(false, "history loads");
      return nullptr;
    }
  }
  rep.Check(store->buffer->FlushAll().ok() &&
                store->buffer->CheckpointWal().ok(),
            "history load is made durable");
  const int64_t t2 = NowNs();

  store->index_disk = std::make_shared<storage::DiskComponent>();
  store->index_buffer =
      std::make_shared<storage::BufferManager>("ingest-index", kIndexFrames);
  store->index_buffer->FindPort("disk")->SetTarget(store->index_disk);
  store->index_buffer->FindPort("policy")->SetTarget(
      std::make_shared<storage::LruPolicy>());
  auto tree = storage::BPlusTree::Create(store->index_buffer.get(),
                                         store->index_disk.get());
  rep.Check(tree.ok(), "index is created");
  if (!tree.ok()) return nullptr;
  store->index = std::make_unique<storage::BPlusTree>(std::move(*tree));
  for (size_t i = 0; i < history.size(); ++i) {
    if (!store->index->Insert(static_cast<int64_t>(i), where[i]).ok()) {
      rep.Check(false, "history is indexed");
      return nullptr;
    }
  }
  const int64_t t3 = NowNs();

  for (const Tuple& row : history) store->Count(row);
  times->generate_s = HostSeconds(t0, t1);
  times->load_s = HostSeconds(t1, t2);
  times->index_s = HostSeconds(t2, t3);
  return store;
}

query::ParallelPlan ScanPlan(const storage::PagedRelation* readings,
                             int64_t sensor_below) {
  using query::AggFunc;
  query::ParallelPlan plan;
  plan.probe.paged = readings;
  plan.probe.filter = query::Lt(query::Col(1), query::Lit(sensor_below));
  plan.group_by = {1};
  plan.aggs = {{AggFunc::kCount, 0, "n"},
               {AggFunc::kSum, 3, "sum_value"},
               {AggFunc::kMax, 3, "max_value"}};
  return plan;
}

bool ScanMatches(const std::vector<Tuple>& out,
                 const std::vector<SensorAgg>& sensors, int64_t below) {
  size_t expected_groups = 0;
  for (int64_t s = 0; s < below; ++s) {
    if (sensors[s].count > 0) ++expected_groups;
  }
  if (out.size() != expected_groups) return false;
  for (const Tuple& t : out) {
    const int64_t s = std::get<int64_t>(t.at(0));
    if (s < 0 || s >= below) return false;
    const SensorAgg& want = sensors[s];
    const double sum = std::get<double>(t.at(2));
    if (std::get<int64_t>(t.at(1)) != want.count ||
        std::get<double>(t.at(3)) != want.max ||
        std::fabs(sum - want.sum) > 1e-9 * std::max(1.0, std::fabs(sum))) {
      return false;
    }
  }
  return true;
}

struct Snapshot {
  storage::BufferStats heap;
  storage::WalStats wal;
  uint64_t disk_reads = 0, disk_writes = 0, disk_fsyncs = 0;
  uint64_t user_bytes = 0;

  static Snapshot Take(const Store& s) {
    Snapshot x;
    x.heap = s.buffer->stats();
    x.wal = s.wal->stats();
    x.disk_reads = CounterValue("store.disk.reads");
    x.disk_writes = CounterValue("store.disk.writes");
    x.disk_fsyncs = CounterValue("store.disk.fsyncs");
    x.user_bytes = s.user_bytes;
    return x;
  }
};

struct PhaseResult {
  std::vector<double> append_us, lookup_us, scan_ms, checkpoint_ms;
  uint64_t ops = 0, lookup_gets = 0;
  // Per completed round: throughput and latency percentiles. The host's
  // speed drifts over seconds, so the run reports medians over rounds.
  std::vector<double> round_ops_per_s, round_p50_us, round_p99_us;
};

/// The closed loop over `rounds` rounds; out[1] holds the traced rounds.
/// Returns the rows appended before the last durable barrier.
uint64_t RunRounds(Context* ctx, Store* store, uint64_t rounds,
                   double cap_seconds, PhaseResult out[2]) {
  Rng mix(ctx->args.seed * 0x9E3779B97F4A7C15ULL + 29);
  Rng* rng = &mix;
  SpanRecorder* spans = &ctx->spans;
  uint64_t op = 0, appends_since_barrier = 0;
  uint64_t barrier_rows = store->rows;
  std::vector<double> round_us;
  double round_busy_s = 0;
  RunFor(cap_seconds, [&] {
    if (op == rounds * kScanEvery) return false;
    const uint64_t i = op++;
    const bool traced = TracedChunk(ctx->args, i / kScanEvery);
    spans->set_enabled(traced);
    if (i % kScanEvery == 0) PinThisThread(static_cast<int>(i / kScanEvery));
    PhaseResult& r = out[traced];
    const uint64_t rows = store->rows;
    bool ok = true;
    int64_t t0 = 0, t1 = 0;
    if (i % kScanEvery == kScanEvery - 1) {
      const int64_t below = rng->UniformInt(1, kSensors);
      query::ParallelOptions opt;
      opt.dop = 1;
      opt.pool = ctx->pool;
      std::vector<Tuple> out;
      t0 = NowNs();
      auto stats = [&] {
        SpanRecorder::Scope span(spans, "query.execute_parallel");
        return query::ExecuteParallel(
            ScanPlan(store->readings.get(), below), &out, opt);
      }();
      t1 = NowNs();
      ok = stats.ok() && ScanMatches(out, store->sensors, below);
      r.scan_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    } else if (rng->Uniform(100) < kAppendPct) {
      const Tuple row = Reading(store->seed, static_cast<int64_t>(rows));
      uint64_t where = 0;
      t0 = NowNs();
      {
        SpanRecorder::Scope span(spans, "op.append");
        ok = store->Append(row, &where, spans).ok();
        if (ok) {
          SpanRecorder::Scope s(spans, "btree.insert");
          ok = store->index->Insert(static_cast<int64_t>(rows), where).ok();
        }
        if (ok && ++appends_since_barrier == kBarrierEvery) {
          const int64_t c0 = NowNs();
          {
            SpanRecorder::Scope s(spans, "storage.flush_all");
            ok = store->buffer->FlushAll().ok();
          }
          {
            SpanRecorder::Scope s(spans, "storage.checkpoint");
            ok = ok && store->buffer->CheckpointWal().ok();
          }
          r.checkpoint_ms.push_back(static_cast<double>(NowNs() - c0) / 1e6);
          appends_since_barrier = 0;
          if (ok) barrier_rows = rows + 1;
        }
      }
      t1 = NowNs();
      store->Count(row);
      r.append_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    } else {
      // Log-uniform age: most lookups hit recent rows, every row can be
      // asked for.
      const double u = rng->UniformDouble();
      const uint64_t age = std::min<uint64_t>(
          rows - 1,
          static_cast<uint64_t>(std::exp(u * std::log(double(rows)))) - 1);
      const int64_t key = static_cast<int64_t>(rows - 1 - age);
      const uint64_t gets0 =
          store->buffer->stats().gets + store->index_buffer->stats().gets;
      std::optional<Tuple> got;
      t0 = NowNs();
      {
        SpanRecorder::Scope span(spans, "op.lookup");
        auto hits = [&] {
          SpanRecorder::Scope s(spans, "btree.search");
          return store->index->Search(key);
        }();
        ok = hits.ok() && hits->size() == 1;
        if (ok) {
          SpanRecorder::Scope s(spans, "storage.read_at");
          auto row = store->readings->ReadAt(
              (*hits)[0] >> 16, static_cast<uint16_t>((*hits)[0] & 0xffff));
          ok = row.ok() && row->has_value();
          if (ok) got = std::move(**row);
        }
      }
      t1 = NowNs();
      r.lookup_gets += store->buffer->stats().gets +
                       store->index_buffer->stats().gets - gets0;
      ok = ok && *got == Reading(store->seed, key);
      r.lookup_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    ctx->report.ops.Add(ok);
    if (!ok) std::fprintf(stderr, "ingest_mixed: operation %llu failed\n",
                          static_cast<unsigned long long>(i));
    ++r.ops;
    round_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    round_busy_s += HostSeconds(t0, t1);
    if (i % kScanEvery == kScanEvery - 1) {
      if (round_us.size() == kScanEvery) {
        r.round_ops_per_s.push_back(static_cast<double>(kScanEvery) /
                                    round_busy_s);
        r.round_p50_us.push_back(PercentileOf(round_us, 0.5).value);
        r.round_p99_us.push_back(PercentileOf(round_us, 0.99).value);
      }
      round_us.clear();
      round_busy_s = 0;
    }
    return true;
  });
  spans->set_enabled(false);
  PinThisThread(-1);
  return barrier_rows;
}

/// Copies the wreckage, recovers each copy, and checks the last one.
void RecoverAndCheck(Context* ctx, const Store& dead,
                     uint64_t barrier_rows) {
  Report& rep = ctx->report;
  namespace fs = std::filesystem;
  std::vector<double> total_ms, replay_ms, attach_ms;
  storage::RecoveryReport last_report;
  size_t recovered_rows = 0;
  bool prefix_ok = false;
  for (size_t c = 0; c < kRecoveryCopies; ++c) {
    const std::string base =
        ctx->args.workdir + "/wreck-" + std::to_string(c);
    std::error_code ec;
    fs::copy_file(dead.page_path, base + ".dbm",
                  fs::copy_options::overwrite_existing, ec);
    fs::copy(dead.wal_dir, base + ".wal", fs::copy_options::recursive,
             ec);
    rep.Check(!ec, "wreckage copies");
    if (ec) return;

    SpanRecorder::Scope op(&ctx->spans, "op.recovery");
    const int64_t t0 = NowNs();
    auto disk = storage::FileDiskComponent::Open(base + ".dbm");
    rep.Check(disk.ok(), "wreckage page file opens");
    if (!disk.ok()) return;
    std::shared_ptr<storage::FileDiskComponent> fdisk = std::move(*disk);
    auto report = [&] {
      SpanRecorder::Scope s(&ctx->spans, "storage.recover");
      return storage::Recover(fdisk.get(), base + ".wal");
    }();
    const int64_t t1 = NowNs();
    auto buffer = std::make_shared<storage::BufferManager>("recovered",
                                                           kFrames);
    buffer->FindPort("disk")->SetTarget(fdisk);
    buffer->FindPort("policy")->SetTarget(
        std::make_shared<storage::LruPolicy>());
    auto rel = [&] {
      SpanRecorder::Scope s(&ctx->spans, "storage.attach");
      return storage::PagedRelation::Recover("readings", ReadingsSchema(),
                                             buffer.get(), fdisk.get());
    }();
    const int64_t t2 = NowNs();
    rep.Check(report.ok() && rel.ok(), "recovery and re-attach succeed");
    if (!report.ok() || !rel.ok()) return;
    replay_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    attach_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    total_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    last_report = *report;
    if (c + 1 == kRecoveryCopies) {
      size_t i = 0;
      bool same = true;
      Status scan = (*rel)->Scan([&](const Tuple& t) {
        same = i < dead.rows &&
               t == Reading(dead.seed, static_cast<int64_t>(i));
        ++i;
        return same;
      });
      recovered_rows = i;
      prefix_ok = scan.ok() && same && i == (*rel)->rows();
    }
  }
  rep.Set("recovery_ms", Median(total_ms));
  rep.Set("recovery.replay_ms", Median(replay_ms));
  rep.Set("recovery.attach_ms", Median(attach_ms));
  rep.Set("recovery.frames_scanned",
          static_cast<double>(last_report.frames_scanned));
  rep.Set("recovery.pages_replayed",
          static_cast<double>(last_report.pages_replayed));
  rep.Fact("recovery: " + std::to_string(recovered_rows) + " rows back of " +
           std::to_string(dead.rows) + " appended; " +
           std::to_string(barrier_rows) +
           " were acknowledged before the last durable barrier");
  rep.Fact("caveat: the unclean stop drops handles but the OS page cache "
           "keeps unfsynced bytes, so recovery here sees more than a power "
           "cut would leave; the gate needs every row before the last "
           "durable barrier");
  rep.Check(prefix_ok, "recovered rows are an exact prefix of the appends");
  rep.Check(recovered_rows >= barrier_rows,
            "recovery covers every row before the last durable barrier");
}

}  // namespace

void RunIngestMixed(Context* ctx) {
  Report& rep = ctx->report;
  std::unique_ptr<Store> store;
  std::vector<double> setup_s, generate_s, load_s, index_s;
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
    setup_s.push_back(times.generate_s + times.load_s + times.index_s);
    generate_s.push_back(times.generate_s);
    load_s.push_back(times.load_s);
    index_s.push_back(times.index_s);
  }
  rep.Set("setup_s", Median(setup_s));
  rep.Set("setup.generate_s", Median(generate_s));
  rep.Set("setup.load_s", Median(load_s));
  rep.Set("setup.index_s", Median(index_s));

  const size_t pages = store->readings->pages();
  rep.Fact("history " + std::to_string(store->readings->rows()) +
           " rows = " + std::to_string(pages) + " pages against a " +
           std::to_string(kFrames) + "-frame pool (" +
           std::to_string(store->buffer->shard_count()) +
           " shard, LRU); index pool " + std::to_string(kIndexFrames) +
           " frames for " + std::to_string(store->index_disk->page_count()) +
           " index pages");
  rep.Fact("mix: " + std::to_string(kAppendPct) + "% appends, the rest "
           "lookups, a dop-1 scan every " + std::to_string(kScanEvery) +
           " operations; durable barrier (FlushAll + CheckpointWal) every " +
           std::to_string(kBarrierEvery) + " appends");
  rep.Fact("wal fsync policy " +
           std::string(storage::WalFsyncPolicyName(
               store->wal->options().fsync)) +
           " every " +
           std::to_string(store->wal->options().fsync_interval_bytes) +
           " B (library default interval)");
  rep.Check(pages >= 4 * kFrames,
            "ingest_mixed history is at least 4x the buffer pool");
  rep.Check(store->index_disk->page_count() <= kIndexFrames,
            "the index fits its own pool");

  const uint64_t rounds = std::max<uint64_t>(
      2, static_cast<uint64_t>(std::llround(ctx->args.seconds *
                                            kRoundsPerSecond)));
  const Snapshot before = Snapshot::Take(*store);
  PhaseResult halves[2];
  const uint64_t barrier_rows =
      RunRounds(ctx, store.get(), rounds, 3 * ctx->args.seconds, halves);
  const Snapshot after = Snapshot::Take(*store);
  const PhaseResult& a = halves[0];
  const PhaseResult& b = halves[1];
  const uint64_t rounds_done = (a.ops + b.ops) / kScanEvery;
  rep.Fact("rounds " + std::to_string(rounds_done) + " of " +
           std::to_string(rounds) + " planned (" +
           std::to_string(b.ops / kScanEvery) + " traced)");

  const double ops_per_s = Median(a.round_ops_per_s);
  rep.Fact("operations " + std::to_string(a.ops) + " (" +
           std::to_string(a.append_us.size()) + " appends, " +
           std::to_string(a.lookup_us.size()) + " lookups, " +
           std::to_string(a.scan_ms.size()) + " scans); per round of " +
           std::to_string(kScanEvery) + " operations: throughput, p50 and "
           "p99, then the median over " +
           std::to_string(a.round_ops_per_s.size()) + " untraced rounds");
  rep.Set("ops_per_s", ops_per_s);
  rep.Set("op_p50_ms", Median(a.round_p50_us) / 1e3);
  rep.Set("op_tail_ms", Median(a.round_p99_us) / 1e3);
  rep.Set("ingest_ops_per_s", ops_per_s);
  rep.Set("append_p99_us", PercentileOf(a.append_us, 0.99).value);
  rep.Set("lookup_p50_us", PercentileOf(a.lookup_us, 0.5).value);
  rep.Set("lookup_p99_us", PercentileOf(a.lookup_us, 0.99).value);
  rep.Set("scan_p50_ms", Median(a.scan_ms));
  std::vector<double> checkpoint_ms = a.checkpoint_ms;
  checkpoint_ms.insert(checkpoint_ms.end(), b.checkpoint_ms.begin(),
                       b.checkpoint_ms.end());
  rep.Set("storage.checkpoints", static_cast<double>(checkpoint_ms.size()));
  rep.Set("storage.checkpoint_p50_ms", Median(checkpoint_ms));
  rep.Set("storage.checkpoint_max_ms",
          checkpoint_ms.empty()
              ? 0
              : *std::max_element(checkpoint_ms.begin(),
                                  checkpoint_ms.end()));
  const uint64_t heap_gets = after.heap.gets - before.heap.gets;
  const size_t lookups = a.lookup_us.size() + b.lookup_us.size();
  rep.Set("buffer.gets_per_lookup",
          lookups == 0 ? 0
                       : static_cast<double>(a.lookup_gets + b.lookup_gets) /
                             static_cast<double>(lookups));
  rep.Set("buffer.hit_rate",
          heap_gets == 0 ? 0
                         : static_cast<double>(after.heap.hits -
                                               before.heap.hits) /
                               static_cast<double>(heap_gets));
  rep.Set("buffer.misses",
          static_cast<double>(after.heap.misses - before.heap.misses));
  rep.Set("buffer.evictions",
          static_cast<double>(after.heap.evictions - before.heap.evictions));
  rep.Set("buffer.dirty_writebacks",
          static_cast<double>(after.heap.dirty_writebacks -
                              before.heap.dirty_writebacks));
  const uint64_t user = after.user_bytes - before.user_bytes;
  const uint64_t wal_bytes = after.wal.bytes - before.wal.bytes;
  const uint64_t writes = after.disk_writes - before.disk_writes;
  rep.Set("wal.appends",
          static_cast<double>(after.wal.appends - before.wal.appends));
  rep.Set("wal.bytes", static_cast<double>(wal_bytes));
  rep.Set("wal.fsyncs",
          static_cast<double>(after.wal.fsyncs - before.wal.fsyncs));
  rep.Set("wal.truncated_segments",
          static_cast<double>(after.wal.truncated_segments -
                              before.wal.truncated_segments));
  rep.Set("wal.bytes_per_user_byte", WriteAmp(wal_bytes, 0, 0, user));
  rep.Set("write_amp",
          WriteAmp(wal_bytes, writes, storage::kPageSlotBytes, user));
  rep.Set("disk.reads",
          static_cast<double>(after.disk_reads - before.disk_reads));
  rep.Set("disk.writes", static_cast<double>(writes));
  rep.Set("disk.fsyncs",
          static_cast<double>(after.disk_fsyncs - before.disk_fsyncs));
  rep.Set("disk.space_per_user_byte",
          SpacePerUserByte(BytesOnDisk(store->page_path) +
                               BytesOnDisk(store->wal_dir),
                           store->user_bytes));
  rep.Set("btree.height", static_cast<double>(store->index->height()));

  // The unclean stop: handles dropped without FlushAll. Recovery is
  // traced in traced runs.
  store->Drop();
  ctx->spans.set_enabled(ctx->args.trace);
  RecoverAndCheck(ctx, *store, barrier_rows);
  ctx->spans.set_enabled(false);
  if (!ctx->args.trace) return;
  const auto set_pcts = [&](const char* span, const char* p50_name,
                            const char* p99_name) {
    rep.Set(p50_name, SpanPercentile(ctx->spans, span, 0.5).value);
    rep.Set(p99_name, SpanPercentile(ctx->spans, span, 0.99).value);
  };
  set_pcts("storage.append", "storage.append_p50_us", "storage.append_p99_us");
  set_pcts("btree.insert", "btree.insert_p50_us", "btree.insert_p99_us");
  set_pcts("btree.search", "btree.search_p50_us", "btree.search_p99_us");
  set_pcts("storage.read_at", "storage.read_at_p50_us",
           "storage.read_at_p99_us");
  ReportTrace(ctx, ops_per_s, Median(b.round_ops_per_s));
}

}  // namespace perfbench

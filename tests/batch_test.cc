// Tests for the vectorized columnar batch layer (query/batch.h): cell
// primitives vs their Value counterparts, kernel-vs-row-operator
// equivalence across seeds and selectivities, selection-vector edge
// cases, arena reuse, whole-plan batch-vs-row engine A/B at
// dop 1/2/4/8, and the page-at-a-time paged scan: column decode parity
// with DecodeTuple, identical decode errors on every path, one buffer get
// per page scanned, no pin left behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "data/value.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "query/batch.h"
#include "query/paged_source.h"
#include "query/parallel.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace dbm::query {
namespace {

using data::CompareValues;
using data::HashValue;
using data::Relation;
using data::Schema;
using data::Value;
using data::ValueType;

class ScopedFaultSpec {
 public:
  explicit ScopedFaultSpec(const std::string& spec, uint64_t seed = 42) {
    fault::Injector& inj = fault::Injector::Default();
    prev_spec_ = inj.spec();
    prev_seed_ = inj.seed();
    EXPECT_TRUE(inj.Configure(spec, seed).ok());
  }
  ~ScopedFaultSpec() {
    (void)fault::Injector::Default().Configure(prev_spec_, prev_seed_);
  }

 private:
  std::string prev_spec_;
  uint64_t prev_seed_;
};

constexpr uint64_t kSeeds[] = {17, 23, 42};

/// Mixed-type relation with nulls sprinkled in: the value-space the cell
/// primitives must mirror exactly. Doubles are multiples of 0.25 so
/// parallel sum reassociation is exact.
Relation MakeMixed(size_t rows, uint64_t seed) {
  Relation rel("mixed", Schema({{"a", ValueType::kInt},
                                {"b", ValueType::kDouble},
                                {"c", ValueType::kString},
                                {"d", ValueType::kInt}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    Tuple t;
    t.values.push_back(static_cast<int64_t>(rng.Uniform(100)));
    if (rng.Uniform(10) == 0) {
      t.values.emplace_back();  // null in a double column
    } else {
      t.values.emplace_back(0.25 * static_cast<double>(rng.Uniform(400)));
    }
    t.values.emplace_back("s#" + std::to_string(rng.Uniform(13)));
    if (rng.Uniform(8) == 0) {
      t.values.emplace_back();  // null join/group key
    } else {
      t.values.emplace_back(static_cast<int64_t>(rng.Uniform(10)));
    }
    rel.InsertUnchecked(std::move(t));
  }
  return rel;
}

/// Loads a whole relation as one batch with an identity view.
struct BatchFixture {
  Arena arena;
  ColumnBatch batch;
  BatchView view;

  explicit BatchFixture(const Relation& rel) {
    LoadMemBatch(rel.Columnar(), 0, rel.rows().size(), &arena, &batch);
    view.batch = &batch;
    view.arity = batch.ncols;
  }
};

std::multiset<std::string> Canon(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const Tuple& t : rows) out.insert(t.ToString());
  return out;
}

std::vector<Tuple> SerialRows(const ParallelPlan& plan) {
  auto root = BuildSerial(plan);
  EXPECT_TRUE(root.ok()) << root.status().ToString();
  std::vector<Tuple> out;
  ExecOptions opt;
  auto stats = Execute(root->get(), &out, opt);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return out;
}

/// The tentpole's contract: batch results == row-engine results == the
/// serial reference, order-normalised, at every dop.
void ExpectEnginesEquivalent(const ParallelPlan& plan,
                             bool expect_nonempty = true) {
  std::multiset<std::string> reference = Canon(SerialRows(plan));
  if (expect_nonempty) {
    EXPECT_FALSE(reference.empty());
  }
  WorkerPool pool(8);
  for (size_t dop : {1u, 2u, 4u, 8u}) {
    for (ParallelEngine engine :
         {ParallelEngine::kBatch, ParallelEngine::kRow}) {
      ParallelOptions opt;
      opt.dop = dop;
      opt.pool = &pool;
      opt.engine = engine;
      std::vector<Tuple> out;
      auto stats = ExecuteParallel(plan, &out, opt);
      ASSERT_TRUE(stats.ok())
          << "dop=" << dop << " engine="
          << (engine == ParallelEngine::kBatch ? "batch" : "row") << ": "
          << stats.status().ToString();
      EXPECT_EQ(Canon(out), reference)
          << "dop=" << dop << " engine="
          << (engine == ParallelEngine::kBatch ? "batch" : "row");
      if (dop > 1 && engine == ParallelEngine::kBatch) {
        EXPECT_GT(stats->batches, 0u) << "batch engine processed no batches";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cell primitives mirror their Value counterparts
// ---------------------------------------------------------------------------

TEST(CellTest, RoundTripAndCompareAndHashMatchValueSemantics) {
  std::vector<Value> values = {Value{},
                               Value{int64_t{0}},
                               Value{int64_t{-7}},
                               Value{int64_t{3}},
                               Value{3.0},
                               Value{-0.0},
                               Value{0.0},
                               Value{2.5},
                               Value{std::string("")},
                               Value{std::string("abc")},
                               Value{std::string("abd")}};
  for (const Value& a : values) {
    Cell ca = CellFromValue(a);
    EXPECT_EQ(CompareValues(CellToValue(ca), a), 0) << Tuple({a}).ToString();
    EXPECT_EQ(HashCell(ca), HashValue(a)) << Tuple({a}).ToString();
    for (const Value& b : values) {
      Cell cb = CellFromValue(b);
      EXPECT_EQ(CompareCells(ca, cb), CompareValues(a, b))
          << Tuple({a, b}).ToString();
    }
  }
  // int 3 and double 3.0 hash alike (they compare equal).
  EXPECT_EQ(HashCell(CellFromValue(Value{int64_t{3}})),
            HashCell(CellFromValue(Value{3.0})));
}

TEST(CellTest, TruthinessMatchesExprTest) {
  std::vector<Value> values = {Value{}, Value{int64_t{0}}, Value{int64_t{2}},
                               Value{0.0}, Value{1.5}, Value{std::string("")},
                               Value{std::string("x")}};
  for (const Value& v : values) {
    Tuple t({v});
    auto row = Col(0)->Test(t);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(CellTruthy(CellFromValue(v)), *row) << t.ToString();
  }
}

// ---------------------------------------------------------------------------
// EvalBatch / TestBatch / FilterBatch vs row-at-a-time Expr
// ---------------------------------------------------------------------------

void ExpectEvalMatchesRows(const Relation& rel, const ExprPtr& e) {
  BatchFixture fx(rel);
  size_t n = fx.batch.rows;
  std::vector<Cell> out(n);
  Status st = EvalBatch(*e, fx.view, nullptr, n, out.data(), &fx.arena);
  // Row reference.
  for (size_t i = 0; i < n; ++i) {
    auto row = e->Eval(rel.rows()[i]);
    if (!row.ok()) {
      // Some row errors: the batch call must error with the same message
      // (though possibly for a different row of the batch).
      EXPECT_FALSE(st.ok()) << e->ToString();
      return;
    }
    ASSERT_TRUE(st.ok()) << e->ToString() << ": " << st.ToString();
    EXPECT_EQ(CompareValues(CellToValue(out[i]), *row), 0)
        << e->ToString() << " row " << i;
  }
}

TEST(BatchKernelTest, EvalMatchesRowEvalAcrossSeeds) {
  std::vector<ExprPtr> exprs = {
      Col(0),
      Lit(Value{int64_t{5}}),
      Arith(ArithOp::kAdd, Col(0), Col(3)),        // null propagation
      Arith(ArithOp::kMul, Col(1), Lit(Value{2.0})),
      Arith(ArithOp::kSub, Col(0), Lit(Value{int64_t{50}})),
      Compare(CmpOp::kLt, Col(0), Lit(Value{int64_t{50}})),
      Compare(CmpOp::kEq, Col(2), Lit(Value{std::string("s#3")})),
      And(Gt(Col(0), Lit(Value{int64_t{10}})),
          Lt(Col(1), Lit(Value{50.0}))),
      Or(Eq(Col(3), Lit(Value{int64_t{4}})), Lt(Col(0), Lit(Value{int64_t{3}}))),
      Not(Gt(Col(0), Lit(Value{int64_t{50}}))),
  };
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(512, seed);
    for (const ExprPtr& e : exprs) ExpectEvalMatchesRows(rel, e);
  }
}

TEST(BatchKernelTest, ErrorStringsMatchRowEngine) {
  Relation rel("r", Schema({{"x", ValueType::kInt}, {"s", ValueType::kString}}));
  rel.InsertUnchecked(Tuple({int64_t{1}, "a"}));
  rel.InsertUnchecked(Tuple({int64_t{0}, "b"}));
  BatchFixture fx(rel);
  std::vector<Cell> out(fx.batch.rows);

  ExprPtr div = Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0));
  Status st = EvalBatch(*div, fx.view, nullptr, fx.batch.rows, out.data(),
                        &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "division by zero");

  ExprPtr arith_str = Arith(ArithOp::kAdd, Col(1), Lit(Value{int64_t{1}}));
  st = EvalBatch(*arith_str, fx.view, nullptr, fx.batch.rows, out.data(),
                 &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "arithmetic on string value");

  ExprPtr oob = Col(7);
  st = EvalBatch(*oob, fx.view, nullptr, fx.batch.rows, out.data(),
                 &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "column 7 beyond tuple arity 2");
}

TEST(BatchKernelTest, AndShortCircuitSkipsErroringRightSide) {
  // Row engine: And() only Tests the right child when the left side
  // passed, so 10/x on rows with x == 0 never runs. The batch kernel
  // must preserve exactly that.
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  rel.InsertUnchecked(Tuple({int64_t{0}}));
  rel.InsertUnchecked(Tuple({int64_t{2}}));
  rel.InsertUnchecked(Tuple({int64_t{0}}));
  rel.InsertUnchecked(Tuple({int64_t{5}}));
  ExprPtr guarded =
      And(Ne(Col(0), Lit(Value{int64_t{0}})),
          Gt(Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0)),
             Lit(Value{int64_t{1}})));

  BatchFixture fx(rel);
  size_t n = fx.batch.rows;
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  Status st = FilterBatch(*guarded, fx.view, sel.data(), n, &n, &fx.arena);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(n, 2u);  // x=2 (10/2=5>1) and x=5 (10/5=2>1)
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 3u);

  // Or short-circuit: right side only runs where the left was false.
  ExprPtr or_guarded =
      Or(Eq(Col(0), Lit(Value{int64_t{0}})),
         Gt(Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0)),
            Lit(Value{int64_t{1}})));
  n = fx.batch.rows;
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  st = FilterBatch(*or_guarded, fx.view, sel.data(), n, &n, &fx.arena);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(n, 4u);  // zeros pass via left, non-zeros via right
}

TEST(BatchKernelTest, FilterSelectivityZeroHalfOne) {
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(777, seed);
    struct Case {
      ExprPtr pred;
    } cases[] = {
        {Gt(Col(0), Lit(Value{int64_t{1000}}))},  // selectivity 0
        {Lt(Col(0), Lit(Value{int64_t{50}}))},    // ~0.5
        {Ge(Col(0), Lit(Value{int64_t{0}}))},     // 1
    };
    for (const Case& c : cases) {
      BatchFixture fx(rel);
      size_t n = fx.batch.rows;
      std::vector<uint32_t> sel(n);
      for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
      Status st =
          FilterBatch(*c.pred, fx.view, sel.data(), n, &n, &fx.arena);
      ASSERT_TRUE(st.ok()) << st.ToString();
      // Row reference.
      std::vector<uint32_t> expect;
      for (size_t i = 0; i < rel.rows().size(); ++i) {
        auto pass = c.pred->Test(rel.rows()[i]);
        ASSERT_TRUE(pass.ok());
        if (*pass) expect.push_back(static_cast<uint32_t>(i));
      }
      ASSERT_EQ(n, expect.size()) << c.pred->ToString();
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sel[i], expect[i]) << c.pred->ToString();
      }
    }
  }
}

TEST(BatchKernelTest, SelectionVectorEdgeCases) {
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  for (int64_t i = 0; i < 5; ++i) rel.InsertUnchecked(Tuple({i}));
  BatchFixture fx(rel);

  // Empty selection in, empty out.
  size_t n = 0;
  uint32_t* sel = fx.arena.AllocateArray<uint32_t>(1);
  ExprPtr pred = Ge(Col(0), Lit(Value{int64_t{0}}));
  ASSERT_TRUE(FilterBatch(*pred, fx.view, sel, 0, &n, &fx.arena).ok());
  EXPECT_EQ(n, 0u);

  // Full batch passes: sel is the identity.
  std::vector<uint32_t> all(fx.batch.rows);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  n = all.size();
  ASSERT_TRUE(
      FilterBatch(*pred, fx.view, all.data(), n, &n, &fx.arena).ok());
  EXPECT_EQ(n, 5u);

  // Only the last row matches.
  ExprPtr last = Eq(Col(0), Lit(Value{int64_t{4}}));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  n = all.size();
  ASSERT_TRUE(
      FilterBatch(*last, fx.view, all.data(), n, &n, &fx.arena).ok());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(all[0], 4u);

  // Empty batch: a zero-row relation loads and filters cleanly.
  Relation empty("e", Schema({{"x", ValueType::kInt}}));
  BatchFixture efx(empty);
  EXPECT_EQ(efx.batch.rows, 0u);
  size_t en = 0;
  uint32_t* esel = efx.arena.AllocateArray<uint32_t>(1);
  ASSERT_TRUE(FilterBatch(*pred, efx.view, esel, 0, &en, &efx.arena).ok());
  EXPECT_EQ(en, 0u);
}

TEST(BatchKernelTest, HashColumnMatchesHashValue) {
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(256, seed);
    BatchFixture fx(rel);
    size_t n = fx.batch.rows;
    std::vector<uint64_t> hashes(n);
    for (size_t col = 0; col < fx.batch.ncols; ++col) {
      HashColumn(fx.view, col, nullptr, n, hashes.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hashes[i], HashValue(rel.rows()[i].at(col)))
            << "col " << col << " row " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Arena reuse
// ---------------------------------------------------------------------------

TEST(ArenaTest, ResetRetainsChunksAndReusesMemory) {
  Arena arena(4096);
  void* first = arena.Allocate(1000);
  arena.AllocateArray<uint64_t>(100);
  size_t chunks = arena.chunk_count();
  EXPECT_GE(chunks, 1u);
  arena.Reset();
  // Same request pattern after Reset lands in the same retained chunk.
  void* again = arena.Allocate(1000);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.chunk_count(), chunks);
  EXPECT_EQ(arena.resets(), 1u);
}

TEST(ArenaTest, ArenaVecGrowsAndSurvivesClear) {
  Arena arena;
  ArenaVec<uint32_t> v;
  v.Init(&arena);
  for (uint32_t i = 0; i < 1000; ++i) v.PushBack(i);
  ASSERT_EQ(v.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  v.Clear();
  EXPECT_TRUE(v.empty());
  v.PushBack(7);
  EXPECT_EQ(v[0], 7u);
}

// ---------------------------------------------------------------------------
// Whole-plan engine A/B: batch == row == serial at dop 1/2/4/8
// ---------------------------------------------------------------------------

TEST(BatchEngineTest, FilterProjectEquivalence) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(3000, seed);
    ParallelPlan plan;
    plan.probe.mem = &rel;
    plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{50}}));
    plan.project = {Col(0), Arith(ArithOp::kAdd, Col(0), Col(3)), Col(2)};
    plan.project_schema = Schema({{"a", ValueType::kInt},
                                  {"ad", ValueType::kInt},
                                  {"c", ValueType::kString}});
    ExpectEnginesEquivalent(plan);
  }
}

TEST(BatchEngineTest, JoinWithDuplicateKeysEquivalence) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation probe = MakeMixed(2000, seed);
    // Build side keyed on d (0..9 plus nulls): every key matches many
    // probe rows, and some build keys repeat.
    Relation build("dims", Schema({{"k", ValueType::kInt},
                                   {"label", ValueType::kString}}));
    Rng rng(seed + 1);
    for (int64_t k = 0; k < 10; ++k) {
      build.InsertUnchecked(Tuple({k, "dim#" + std::to_string(k)}));
      if (k % 3 == 0) {  // duplicate build keys fan out
        build.InsertUnchecked(Tuple({k, "dup#" + std::to_string(k)}));
      }
    }
    // A null build key: null==null matches per CompareValues.
    build.InsertUnchecked(Tuple({Value{}, std::string("null-dim")}));

    ParallelPlan plan;
    plan.probe.mem = &probe;
    ParallelJoinStage stage;
    stage.build.mem = &build;
    stage.spec = JoinSpec{0, 3};  // dims.k = probe.d
    plan.joins.push_back(std::move(stage));
    ExpectEnginesEquivalent(plan);
  }
}

TEST(BatchEngineTest, JoinWithEmptyBuildSideProducesNothing) {
  ScopedFaultSpec quiet("");
  Relation probe = MakeMixed(500, 17);
  Relation build("dims", Schema({{"k", ValueType::kInt}}));
  ParallelPlan plan;
  plan.probe.mem = &probe;
  ParallelJoinStage stage;
  stage.build.mem = &build;
  stage.spec = JoinSpec{0, 3};
  plan.joins.push_back(std::move(stage));
  ExpectEnginesEquivalent(plan, /*expect_nonempty=*/false);
}

TEST(BatchEngineTest, TwoStageJoinWithPostFilterEquivalence) {
  ScopedFaultSpec quiet("");
  Relation probe = MakeMixed(1500, 23);
  Relation d1("d1", Schema({{"k", ValueType::kInt}, {"g", ValueType::kInt}}));
  for (int64_t k = 0; k < 10; ++k) d1.InsertUnchecked(Tuple({k, k % 3}));
  Relation d2("d2", Schema({{"g", ValueType::kInt},
                            {"name", ValueType::kString}}));
  for (int64_t g = 0; g < 3; ++g) {
    d2.InsertUnchecked(Tuple({g, "g#" + std::to_string(g)}));
  }
  ParallelPlan plan;
  plan.probe.mem = &probe;
  ParallelJoinStage s1;
  s1.build.mem = &d1;
  s1.spec = JoinSpec{0, 3};  // d1.k = probe.d
  plan.joins.push_back(std::move(s1));
  // Pipeline now d1(k,g) ++ probe(a,b,c,d); join d2 on d1.g (column 1).
  ParallelJoinStage s2;
  s2.build.mem = &d2;
  s2.spec = JoinSpec{0, 1};
  plan.joins.push_back(std::move(s2));
  plan.post_filter = Gt(Col(4), Lit(Value{int64_t{20}}));  // probe.a > 20
  ExpectEnginesEquivalent(plan);
}

TEST(BatchEngineTest, AggregationOneGroupAndAllDistinct) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(2500, seed);
    // One group: no GROUP BY columns, global aggregates.
    {
      ParallelPlan plan;
      plan.probe.mem = &rel;
      plan.aggs = {{AggFunc::kCount, 0, "n"},
                   {AggFunc::kSum, 1, "sum_b"},
                   {AggFunc::kMin, 0, "min_a"},
                   {AggFunc::kMax, 1, "max_b"},
                   {AggFunc::kAvg, 1, "avg_b"}};
      ExpectEnginesEquivalent(plan);
    }
    // All-distinct: group by a near-unique expression source column so
    // almost every row is its own group.
    {
      ParallelPlan plan;
      plan.probe.mem = &rel;
      plan.project = {Col(0), Col(3), Col(1)};
      plan.project_schema = Schema({{"a", ValueType::kInt},
                                    {"d", ValueType::kInt},
                                    {"b", ValueType::kDouble}});
      plan.group_by = {0, 1};  // (a, d): many distinct pairs, null keys too
      plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 2, "s"}};
      ExpectEnginesEquivalent(plan);
    }
  }
}

TEST(BatchEngineTest, GroupByStringKeysEquivalence) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(2000, 42);
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.probe.filter = Gt(Col(0), Lit(Value{int64_t{5}}));
  plan.group_by = {2};  // string column
  plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
  ExpectEnginesEquivalent(plan);
}

TEST(BatchEngineTest, PagedProbeEquivalence) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(4000, 23);

  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::LruPolicy>();
  auto buffer = std::make_shared<storage::BufferManager>("buf", 32,
                                                         /*shards=*/4);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(policy);
  auto paged = storage::PagedRelation::Load(rel, buffer.get(), disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  ParallelPlan mem_plan;
  mem_plan.probe.mem = &rel;
  mem_plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{60}}));
  mem_plan.group_by = {3};
  mem_plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
  std::multiset<std::string> reference = Canon(SerialRows(mem_plan));

  ParallelPlan paged_plan = mem_plan;
  paged_plan.probe.mem = nullptr;
  paged_plan.probe.paged = paged->get();
  WorkerPool pool(4);
  for (size_t dop : {2u, 4u}) {
    for (ParallelEngine engine :
         {ParallelEngine::kBatch, ParallelEngine::kRow}) {
      ParallelOptions opt;
      opt.dop = dop;
      opt.pool = &pool;
      opt.engine = engine;
      opt.morsel_pages = 2;
      std::vector<Tuple> out;
      auto stats = ExecuteParallel(paged_plan, &out, opt);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(Canon(out), reference) << "dop=" << dop;
    }
  }
  EXPECT_TRUE(buffer->CheckInvariants().ok());
}

TEST(BatchEngineTest, WideGroupByFallsBackToRowEngine) {
  // 17 group-by columns exceed the batch agg table's key buffer; the
  // dispatcher must route to the row engine and still be correct.
  ScopedFaultSpec quiet("");
  Relation rel("wide", Schema({{"a", ValueType::kInt},
                               {"b", ValueType::kInt}}));
  for (int64_t i = 0; i < 200; ++i) {
    rel.InsertUnchecked(Tuple({i % 5, i}));
  }
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.group_by.assign(17, 0);  // 17 copies of column a
  plan.aggs = {{AggFunc::kSum, 1, "s"}};
  std::multiset<std::string> reference = Canon(SerialRows(plan));
  WorkerPool pool(4);
  ParallelOptions opt;
  opt.dop = 4;
  opt.pool = &pool;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Canon(out), reference);
  EXPECT_EQ(stats->batches, 0u) << "wide GROUP BY should not use batches";
}

TEST(BatchEngineTest, ErrorsPropagateFromBatchKernels) {
  ScopedFaultSpec quiet("");
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  for (int64_t i = 0; i < 100; ++i) rel.InsertUnchecked(Tuple({i % 7}));
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.project = {Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0))};
  plan.project_schema = Schema({{"q", ValueType::kInt}});
  WorkerPool pool(4);
  ParallelOptions opt;
  opt.dop = 4;
  opt.pool = &pool;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().message(), "division by zero");
}

// ---------------------------------------------------------------------------
// Paged scans: one pin per page, decoded straight into columns
// ---------------------------------------------------------------------------

/// A buffer pool over an in-memory disk, big enough to keep every page
/// of these tests resident.
struct PagedRig {
  std::shared_ptr<storage::DiskComponent> disk =
      std::make_shared<storage::DiskComponent>();
  std::shared_ptr<storage::LruPolicy> policy =
      std::make_shared<storage::LruPolicy>();
  std::shared_ptr<storage::BufferManager> buffer;

  explicit PagedRig(size_t frames = 256, size_t shards = 1) {
    buffer = std::make_shared<storage::BufferManager>("buf", frames, shards);
    buffer->FindPort("disk")->SetTarget(disk);
    buffer->FindPort("policy")->SetTarget(policy);
  }

  /// Writes `records` verbatim — no schema check, so columns may mix
  /// types and records may be malformed — and attaches a PagedRelation
  /// with `schema` over them.
  std::unique_ptr<storage::PagedRelation> Raw(
      const Schema& schema,
      const std::vector<std::vector<uint8_t>>& records) {
    storage::RecordFile file(buffer.get(), disk.get());
    for (const auto& rec : records) EXPECT_TRUE(file.Append(rec).ok());
    auto rel = storage::PagedRelation::Recover("raw", schema, buffer.get(),
                                               disk.get());
    EXPECT_TRUE(rel.ok()) << rel.status().ToString();
    return rel.ok() ? std::move(*rel) : nullptr;
  }

  int Pins() const {
    int pins = 0;
    for (storage::PageId p = 0; p < disk->page_count(); ++p) {
      pins += buffer->PinCount(p);
    }
    return pins;
  }

  void ExpectQuiescent(const std::string& where) const {
    EXPECT_EQ(Pins(), 0) << where;
    Status inv = buffer->CheckInvariants();
    EXPECT_TRUE(inv.ok()) << where << ": " << inv.ToString();
  }
};

const Schema& RawSchema() {
  static const Schema schema({{"a", ValueType::kInt},
                              {"b", ValueType::kString},
                              {"c", ValueType::kDouble}});
  return schema;
}

/// Records the schema check would reject but the codec carries: nulls
/// everywhere, empty strings, strings up to the largest record a page
/// holds, and every type in every column.
std::vector<std::vector<uint8_t>> EdgeRecords(uint64_t seed) {
  std::vector<Tuple> rows;
  rows.push_back(Tuple({Value{}, Value{}, Value{}}));
  rows.push_back(Tuple({int64_t{-1}, std::string(), 0.5}));
  rows.push_back(Tuple({std::string("int column"), 2.75, int64_t{7}}));
  rows.push_back(Tuple({1.5, int64_t{INT64_MIN}, std::string()}));
  // One value row of exactly kMaxRecord bytes (tag + u32 + payload, two
  // one-byte nulls), and one just under it.
  const size_t max_payload = storage::RecordFile::kMaxRecord - 7;
  rows.push_back(Tuple({Value{}, std::string(max_payload, 'x'), Value{}}));
  rows.push_back(
      Tuple({Value{}, std::string(max_payload - 9, 'y'), int64_t{3}}));
  Rng rng(seed);
  for (size_t i = 0; i < 700; ++i) {
    Tuple t;
    for (size_t c = 0; c < 3; ++c) {
      switch (rng.Uniform(5)) {
        case 0:
          t.values.emplace_back();
          break;
        case 1:
          t.values.emplace_back(static_cast<int64_t>(rng.Uniform(1000)) -
                                500);
          break;
        case 2:
          t.values.emplace_back(0.25 * static_cast<double>(rng.Uniform(99)));
          break;
        default:
          t.values.emplace_back(
              std::string(rng.Uniform(10) == 0 ? 900 : rng.Uniform(24),
                          static_cast<char>('a' + rng.Uniform(26))));
      }
    }
    rows.push_back(std::move(t));
  }
  std::vector<std::vector<uint8_t>> records;
  for (const Tuple& t : rows) records.push_back(storage::EncodeTuple(t));
  return records;
}

TEST(PagedDecodeTest, ColumnDecodeMatchesDecodeTupleCellForCell) {
  for (uint64_t seed : kSeeds) {
    PagedRig rig;
    std::vector<std::vector<uint8_t>> records = EdgeRecords(seed);
    auto rel = rig.Raw(RawSchema(), records);
    ASSERT_NE(rel, nullptr);
    ASSERT_EQ(rel->rows(), records.size());
    ASSERT_GT(rel->pages(), 4u);
    std::vector<Tuple> expect;
    for (const auto& rec : records) {
      auto t = storage::DecodeTuple(rec, 3);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      expect.push_back(std::move(*t));
    }

    // Batch path: every page one morsel, and the whole file as one.
    auto check_batch = [&](size_t begin, size_t end, size_t first_row,
                           size_t* rows) {
      Arena scratch;
      ColumnBatch batch;
      uint64_t raw = 0;
      ASSERT_TRUE(
          LoadPagedBatch(*rel, begin, end, &scratch, &batch, &raw).ok());
      EXPECT_EQ(raw, batch.rows);
      ASSERT_EQ(batch.ncols, 3u);
      ASSERT_LE(first_row + batch.rows, expect.size());
      for (size_t r = 0; r < batch.rows; ++r) {
        for (size_t c = 0; c < 3; ++c) {
          EXPECT_EQ(CellToValue(CellOf(batch.cols[c], r)),
                    expect[first_row + r].values[c])
              << "seed " << seed << " row " << first_row + r << " col "
              << c;
        }
      }
      *rows = batch.rows;
    };
    size_t row = 0;
    for (size_t p = 0; p < rel->pages(); ++p) {
      size_t rows = 0;
      check_batch(p, p + 1, row, &rows);
      row += rows;
    }
    EXPECT_EQ(row, expect.size());
    size_t all = 0;
    check_batch(0, rel->pages(), 0, &all);
    EXPECT_EQ(all, expect.size());

    // Row path (ReadPage / Scan) and the serial PagedSource.
    std::vector<Tuple> scanned;
    ASSERT_TRUE(rel->Scan([&](const Tuple& t) {
                     scanned.push_back(t);
                     return true;
                   })
                    .ok());
    EXPECT_EQ(scanned.size(), expect.size());
    for (size_t i = 0; i < std::min(scanned.size(), expect.size()); ++i) {
      EXPECT_TRUE(scanned[i] == expect[i]) << "seed " << seed << " row " << i;
    }
    PagedSource source(rel.get());
    std::vector<Tuple> pulled;
    ASSERT_TRUE(Execute(&source, &pulled, {}).ok());
    ASSERT_EQ(pulled.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_TRUE(pulled[i] == expect[i]) << "seed " << seed << " row " << i;
    }
    rig.ExpectQuiescent("after decode parity, seed " + std::to_string(seed));
  }
}

TEST(PagedDecodeTest, MalformedRecordsFailAlikeOnEveryPath) {
  ScopedFaultSpec quiet("");
  std::vector<uint8_t> good =
      storage::EncodeTuple(Tuple({int64_t{4}, std::string("ok"), 1.0}));
  std::vector<uint8_t> int_tag = {static_cast<uint8_t>(ValueType::kInt)};
  std::vector<uint8_t> str_tag = {static_cast<uint8_t>(ValueType::kString)};
  std::vector<uint8_t> null_tag = {static_cast<uint8_t>(ValueType::kNull)};
  struct Case {
    const char* name;
    std::vector<uint8_t> bad;
  };
  std::vector<Case> cases = {
      {"truncated tuple", {null_tag[0], null_tag[0]}},
      {"truncated u64", {int_tag[0], 1, 2, 3}},
      {"truncated u32", {null_tag[0], str_tag[0], 9, 0}},
      {"truncated string", {null_tag[0], str_tag[0], 10, 0, 0, 0, 'a'}},
      {"trailing bytes", good},
      {"unknown tag", {7, 7, 7}},
  };
  cases[4].bad.push_back(0);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Status want = storage::DecodeTuple(c.bad, 3).status();
    ASSERT_FALSE(want.ok());
    PagedRig rig;
    // The bad record sits mid-page, between good ones, on the first of
    // several pages.
    std::vector<std::vector<uint8_t>> records(20, good);
    records.push_back(c.bad);
    records.insert(records.end(), 400, good);
    auto rel = rig.Raw(RawSchema(), records);
    ASSERT_NE(rel, nullptr);
    ASSERT_GT(rel->pages(), 2u);

    auto expect_same = [&](const Status& got, const std::string& path) {
      EXPECT_EQ(got.code(), want.code()) << path << ": " << got.ToString();
      EXPECT_EQ(got.message(), want.message()) << path;
      rig.ExpectQuiescent(path);
    };

    Arena scratch;
    ColumnBatch batch;
    expect_same(
        LoadPagedBatch(*rel, 0, rel->pages(), &scratch, &batch, nullptr),
        "LoadPagedBatch");
    std::vector<Tuple> rows;
    expect_same(rel->ReadPage(0, &rows), "ReadPage");
    expect_same(rel->Scan([](const Tuple&) { return true; }), "Scan");

    ParallelPlan plan;
    plan.probe.paged = rel.get();
    plan.group_by = {0};
    plan.aggs = {{AggFunc::kCount, 0, "n"}};
    WorkerPool pool(2);
    for (size_t dop : {1u, 2u}) {
      for (ParallelEngine engine :
           {ParallelEngine::kBatch, ParallelEngine::kRow}) {
        ParallelOptions opt;
        opt.dop = dop;
        opt.pool = &pool;
        opt.engine = engine;
        opt.morsel_pages = 1;
        std::vector<Tuple> out;
        auto stats = ExecuteParallel(plan, &out, opt);
        ASSERT_FALSE(stats.ok());
        expect_same(stats.status(),
                    "dop " + std::to_string(dop) +
                        (engine == ParallelEngine::kBatch ? " batch"
                                                          : " row"));
      }
    }
  }
}

TEST(PagedDecodeTest, BufferGetsEqualPagesScannedAtEveryDop) {
  ScopedFaultSpec quiet("");
  PagedRig rig(/*frames=*/512, /*shards=*/4);
  Relation probe_rel = MakeMixed(6000, 17);
  Relation build_rel = MakeMixed(400, 42);
  auto probe = storage::PagedRelation::Load(probe_rel, rig.buffer.get(),
                                            rig.disk.get());
  auto build = storage::PagedRelation::Load(build_rel, rig.buffer.get(),
                                            rig.disk.get());
  ASSERT_TRUE(probe.ok() && build.ok());
  const size_t probe_pages = (*probe)->pages();
  const size_t build_pages = (*build)->pages();
  ASSERT_GT(probe_pages, 8u);
  ASSERT_GT(build_pages, 1u);
  ASSERT_LE(probe_pages + build_pages, 512u);  // resident: no evictions

  ParallelPlan scan_plan;
  scan_plan.probe.paged = probe->get();
  scan_plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{70}}));
  scan_plan.group_by = {3};
  scan_plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};

  ParallelPlan join_plan;
  join_plan.probe.paged = probe->get();
  ParallelJoinStage stage;
  stage.build.paged = build->get();
  stage.spec = JoinSpec{0, 0};
  join_plan.joins.push_back(std::move(stage));
  join_plan.group_by = {3};
  join_plan.aggs = {{AggFunc::kCount, 0, "n"}};

  // The same plans over the in-memory tables: paged and mem runs must
  // account the same work.
  ParallelPlan mem_scan_plan = scan_plan;
  mem_scan_plan.probe.paged = nullptr;
  mem_scan_plan.probe.mem = &probe_rel;
  ParallelPlan mem_join_plan = join_plan;
  mem_join_plan.probe.paged = nullptr;
  mem_join_plan.probe.mem = &probe_rel;
  mem_join_plan.joins[0].build.paged = nullptr;
  mem_join_plan.joins[0].build.mem = &build_rel;

  obs::Counter& work = obs::Registry::Default().GetCounter(
      "query.pexec.work_cycles");
  WorkerPool pool(4);
  struct Point {
    const ParallelPlan* plan;
    const ParallelPlan* mem_plan;
    size_t pages;
    const char* name;
  };
  for (const Point& point :
       {Point{&scan_plan, &mem_scan_plan, probe_pages, "scan+agg"},
        Point{&join_plan, &mem_join_plan, probe_pages + build_pages,
              "join+agg"}}) {
    for (size_t dop : {1u, 2u, 4u}) {
      for (ParallelEngine engine :
           {ParallelEngine::kBatch, ParallelEngine::kRow}) {
        std::string where =
            std::string(point.name) + " dop " + std::to_string(dop) +
            (engine == ParallelEngine::kBatch ? " batch" : " row");
        ParallelOptions opt;
        opt.dop = dop;
        opt.pool = &pool;
        opt.engine = engine;
        opt.morsel_pages = 3;
        std::vector<Tuple> out;
        const uint64_t gets_before = rig.buffer->stats().gets;
        const uint64_t work_before = work.value();
        auto stats = ExecuteParallel(*point.plan, &out, opt);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(rig.buffer->stats().gets - gets_before, point.pages)
            << where;
        EXPECT_FALSE(out.empty());
        rig.ExpectQuiescent(where);

        const uint64_t paged_work = work.value() - work_before;
        std::vector<Tuple> mem_out;
        ASSERT_TRUE(ExecuteParallel(*point.mem_plan, &mem_out, opt).ok());
        EXPECT_EQ(work.value() - work_before - paged_work, paged_work)
            << where;
        EXPECT_EQ(Canon(out), Canon(mem_out)) << where;
      }
    }
  }
  EXPECT_EQ(rig.buffer->stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Batch stats & profile annotations
// ---------------------------------------------------------------------------

TEST(BatchEngineTest, StatsCountBatchesAndProfileCarriesSelectivity) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(5000, 17);
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{50}}));
  plan.group_by = {3};
  plan.aggs = {{AggFunc::kCount, 0, "n"}};

  WorkerPool pool(4);
  ParallelOptions opt;
  opt.dop = 4;
  opt.pool = &pool;
  QueryProfile profile;
  opt.profile = &profile;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // 5000 rows at 1024/morsel = 5 probe batches.
  EXPECT_EQ(stats->batches, 5u);

  // The filter node carries observed selectivity; the scan node carries
  // the batch count.
  const ProfileNode* agg = &profile.root;
  ASSERT_EQ(agg->name, "aggregate");
  const ProfileNode* filter = &agg->children[0];
  ASSERT_EQ(filter->name.substr(0, 6), "filter");
  EXPECT_GT(filter->selectivity, 0.0);
  EXPECT_LT(filter->selectivity, 1.0);
  const ProfileNode* scan = &filter->children[0];
  EXPECT_EQ(scan->batches, 5u);
  EXPECT_TRUE(profile.ToText().find("selectivity=") != std::string::npos);
  EXPECT_TRUE(profile.ToJson().find("\"batches\":") != std::string::npos);
}

}  // namespace
}  // namespace dbm::query

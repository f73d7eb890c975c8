#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/join.h"
#include "query/paged_source.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace dbm::storage {
namespace {

struct Rig {
  std::shared_ptr<DiskComponent> disk = std::make_shared<DiskComponent>();
  std::shared_ptr<ReplacementPolicy> policy = std::make_shared<LruPolicy>();
  std::shared_ptr<BufferManager> buffer;

  explicit Rig(size_t frames = 4) {
    buffer = std::make_shared<BufferManager>("buf", frames);
    buffer->FindPort("disk")->SetTarget(disk);
    buffer->FindPort("policy")->SetTarget(policy);
  }
};

TEST(TupleCodecTest, RoundTripAllTypes) {
  data::Tuple t({data::Value{}, int64_t{-42}, 3.25, std::string("hello")});
  auto back = DecodeTuple(EncodeTuple(t), 4);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == t);
  // Wrong arity / truncation rejected.
  EXPECT_FALSE(DecodeTuple(EncodeTuple(t), 3).ok());  // trailing bytes
  auto bytes = EncodeTuple(t);
  bytes.pop_back();
  EXPECT_FALSE(DecodeTuple(bytes, 4).ok());
}

TEST(TupleCodecTest, UnknownValueTagRejected) {
  // A tag byte outside ValueType must fail the record, not yield a
  // short tuple that column decoders would then index past.
  auto bad = DecodeTuple({7, 7}, 2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  EXPECT_EQ(bad.status().message(), "unknown value tag");
}

TEST(PagedRelationTest, LoadScanRoundTrip) {
  Rig rig;
  data::Relation people = data::gen::People(500, 3);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ((*paged)->rows(), 500u);
  EXPECT_GT((*paged)->pages(), 3u);

  auto back = (*paged)->ToRelation();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), people.size());
  for (size_t i = 0; i < people.size(); ++i) {
    EXPECT_TRUE(back->rows()[i] == people.rows()[i]) << i;
  }
  // With a 4-frame pool the scan genuinely paged.
  EXPECT_GT(rig.buffer->stats().evictions, 0u);
}

TEST(PagedRelationTest, AppendTypeChecked) {
  Rig rig;
  data::Relation empty("t", data::Schema({{"x", data::ValueType::kInt}}));
  auto paged = PagedRelation::Load(empty, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE((*paged)->Append(data::Tuple({int64_t{1}})).ok());
  EXPECT_FALSE((*paged)->Append(data::Tuple({std::string("no")})).ok());
  EXPECT_EQ((*paged)->rows(), 1u);
}

TEST(PagedRelationTest, ReadAtCursorSemantics) {
  Rig rig;
  data::Relation people = data::gen::People(50, 5);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  auto first = (*paged)->ReadAt(0, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_TRUE(**first == people.rows()[0]);
  // Past-the-end slot signals page exhaustion, not an error.
  auto past = (*paged)->ReadAt(0, 9999);
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past->has_value());
  auto no_page = (*paged)->ReadAt(9999, 0);
  ASSERT_TRUE(no_page.ok());
  EXPECT_FALSE(no_page->has_value());
}

TEST(PagedRelationTest, VisitPagePinsOnceAndUnpinsOnEveryPath) {
  Rig rig(8);
  data::Relation people = data::gen::People(300, 5);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  const PagedRelation& rel = **paged;
  auto expect_unpinned = [&](const char* where) {
    for (PageId p = 0; p < rig.disk->page_count(); ++p) {
      EXPECT_EQ(rig.buffer->PinCount(p), 0) << where << " page " << p;
    }
    EXPECT_TRUE(rig.buffer->CheckInvariants().ok()) << where;
  };

  // One buffer get per page, every record in slot order.
  const uint64_t gets_before = rig.buffer->stats().gets;
  std::vector<data::Tuple> rows;
  size_t row = 0;
  for (size_t p = 0; p < rel.pages(); ++p) {
    ASSERT_TRUE(rel.ReadPage(p, &rows).ok());
    for (const data::Tuple& t : rows) {
      ASSERT_LT(row, people.size());
      EXPECT_TRUE(t == people.rows()[row++]);
    }
  }
  EXPECT_EQ(row, people.size());
  EXPECT_EQ(rig.buffer->stats().gets - gets_before, rel.pages());
  expect_unpinned("after a full page walk");

  // A sink failing mid-page: its error comes back, the pin is released.
  struct FailingSink {
    int rows = 0;
    void Null(size_t) {}
    void Int(size_t, int64_t) {}
    void Double(size_t, double) {}
    void String(size_t, std::string_view) {}
    Status EndRow() {
      return ++rows == 3 ? Status::Aborted("sink stop") : Status::OK();
    }
  };
  FailingSink sink;
  Status stopped = rel.VisitPage(1, sink);
  EXPECT_EQ(stopped.code(), StatusCode::kAborted);
  EXPECT_EQ(stopped.message(), "sink stop");
  EXPECT_EQ(sink.rows, 3);
  expect_unpinned("after a sink error");

  // The record-level walk too (page 0 is the relation's first page).
  RecordFile file(rig.buffer.get(), rig.disk.get());
  int seen = 0;
  Status walk = file.VisitPage(0, [&](const uint8_t*, size_t len) {
    EXPECT_GT(len, 0u);
    return ++seen == 2 ? Status::IoError("walk stop") : Status::OK();
  });
  EXPECT_EQ(walk.message(), "walk stop");
  EXPECT_EQ(seen, 2);
  expect_unpinned("after a record visitor error");

  EXPECT_EQ(rel.VisitPage(rel.pages(), sink).code(), StatusCode::kOutOfRange);
}

TEST(PagedSourceTest, QueryOverPagedDataMatchesMemSource) {
  Rig rig(3);  // tiny pool: the join must page
  data::Relation orders = data::gen::Orders(800, 60, 0.4, 7);
  data::Relation people = data::gen::People(60, 8);
  auto paged_orders =
      PagedRelation::Load(orders, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged_orders.ok());

  query::HashJoin paged_join(
      std::make_unique<query::PagedSource>(paged_orders->get()),
      std::make_unique<query::MemSource>(&people), query::JoinSpec{1, 0});
  std::vector<query::Tuple> via_paged;
  ASSERT_TRUE(query::Execute(&paged_join, &via_paged, {}).ok());

  query::HashJoin mem_join(std::make_unique<query::MemSource>(&orders),
                           std::make_unique<query::MemSource>(&people),
                           query::JoinSpec{1, 0});
  std::vector<query::Tuple> via_mem;
  ASSERT_TRUE(query::Execute(&mem_join, &via_mem, {}).ok());

  ASSERT_EQ(via_paged.size(), via_mem.size());
  std::multiset<std::string> a, b;
  for (const auto& t : via_paged) a.insert(t.ToString());
  for (const auto& t : via_mem) b.insert(t.ToString());
  EXPECT_EQ(a, b);
  EXPECT_GT(rig.buffer->stats().misses, 10u);  // real page traffic
}

}  // namespace
}  // namespace dbm::storage

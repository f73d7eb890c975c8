// A scan operator over a PagedRelation: query pulls flow through the
// getpage component, so buffer hits/misses/evictions are real for every
// query touching paged data. Each refill decodes one whole page under a
// single pin into a reused tuple buffer; no pin is held across Next().

#ifndef DBM_QUERY_PAGED_SOURCE_H_
#define DBM_QUERY_PAGED_SOURCE_H_

#include "query/operator.h"
#include "storage/paged_relation.h"

namespace dbm::query {

class PagedSource : public Operator {
 public:
  explicit PagedSource(const storage::PagedRelation* rel) : rel_(rel) {}

  const Schema& schema() const override { return rel_->schema(); }
  std::string name() const override {
    return "paged-scan(" + rel_->name() + ")";
  }
  Status Open() override {
    page_ = 0;
    rows_.clear();
    next_ = 0;
    return Status::OK();
  }
  Result<Step> Next(SimTime now) override {
    while (next_ == rows_.size()) {
      if (page_ >= rel_->pages()) return Step::End();
      DBM_RETURN_NOT_OK(rel_->ReadPage(page_++, &rows_));
      next_ = 0;
    }
    return Emit(std::move(rows_[next_++]), now);
  }
  Status Close() override { return Status::OK(); }

 private:
  const storage::PagedRelation* rel_;
  size_t page_ = 0;           // next page to decode
  std::vector<Tuple> rows_;   // the decoded page
  size_t next_ = 0;           // next row of rows_ to emit
};

}  // namespace dbm::query

#endif  // DBM_QUERY_PAGED_SOURCE_H_

#include "storage/record_file.h"

#include <cstring>

namespace dbm::storage {

namespace {

void PutU16(Page* page, size_t off, uint16_t v) {
  page->bytes[off] = static_cast<uint8_t>(v & 0xFF);
  page->bytes[off + 1] = static_cast<uint8_t>(v >> 8);
}

}  // namespace

Result<RecordId> RecordFile::Append(const std::vector<uint8_t>& record) {
  if (record.size() > kMaxRecord) {
    return Status::InvalidArgument("record too large for a page");
  }
  const size_t need = 2 + record.size();

  PageId target = kInvalidPage;
  if (!pages_.empty()) {
    PageId tail = pages_.back();
    DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(tail));
    uint16_t free_off = GetU16(*page, 2);
    bool fits = free_off + need <= kPageSize;
    DBM_RETURN_NOT_OK(buffer_->Unpin(tail, false));
    if (fits) target = tail;
  }
  if (target == kInvalidPage) {
    target = disk_->Allocate();
    DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetFreshPage(target));
    PutU16(page, 0, 0);
    PutU16(page, 2, kHeader);
    DBM_RETURN_NOT_OK(buffer_->Unpin(target, true));
    pages_.push_back(target);
  }

  DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(target));
  uint16_t count = GetU16(*page, 0);
  uint16_t free_off = GetU16(*page, 2);
  PutU16(page, free_off, static_cast<uint16_t>(record.size()));
  std::memcpy(page->bytes.data() + free_off + 2, record.data(),
              record.size());
  PutU16(page, 0, static_cast<uint16_t>(count + 1));
  PutU16(page, 2, static_cast<uint16_t>(free_off + need));
  DBM_RETURN_NOT_OK(buffer_->Unpin(target, true));
  ++record_count_;
  return RecordId{target, count};
}

Status RecordFile::Attach() {
  pages_.clear();
  record_count_ = 0;
  for (PageId pid = 0; pid < disk_->page_count(); ++pid) {
    Result<Page*> page = buffer_->GetPage(pid);
    if (!page.ok()) {
      // A torn slot (DataLoss) past the prefix ends the relation — the
      // torn-tail rule again. Anything else is a real failure.
      if (page.status().IsDataLoss()) break;
      return page.status();
    }
    uint16_t count = GetU16(**page, 0);
    uint16_t free_off = GetU16(**page, 2);
    // Validate the slot directory: lengths must chain exactly to
    // free_offset. A freshly allocated page a crash left empty
    // (count == 0) ends the prefix, as does a malformed directory.
    bool valid = count > 0 && free_off >= kHeader && free_off <= kPageSize;
    if (valid) {
      size_t off = kHeader;
      for (uint16_t s = 0; s < count; ++s) {
        if (off + 2 > free_off) {
          valid = false;
          break;
        }
        off += 2 + GetU16(**page, off);
      }
      if (off != free_off) valid = false;
    }
    DBM_RETURN_NOT_OK(buffer_->Unpin(pid, false));
    if (!valid) break;
    pages_.push_back(pid);
    record_count_ += count;
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> RecordFile::Read(const RecordId& id) {
  DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(id.page));
  uint16_t count = GetU16(*page, 0);
  if (id.slot >= count) {
    (void)buffer_->Unpin(id.page, false);
    return Status::NotFound("slot out of range");
  }
  size_t off = kHeader;
  for (uint16_t s = 0; s < id.slot; ++s) {
    off += 2 + GetU16(*page, off);
  }
  uint16_t len = GetU16(*page, off);
  std::vector<uint8_t> out(page->bytes.begin() + static_cast<long>(off + 2),
                           page->bytes.begin() +
                               static_cast<long>(off + 2 + len));
  DBM_RETURN_NOT_OK(buffer_->Unpin(id.page, false));
  return out;
}

Status RecordFile::Scan(
    const std::function<bool(const RecordId&, std::span<const uint8_t>)>&
        visitor) {
  for (PageId pid : pages_) {
    uint16_t slot = 0;
    bool stop = false;
    // After a stop the rest of the page is walked without visiting: the
    // page stays pinned for one pass either way.
    DBM_RETURN_NOT_OK(VisitPage(pid, [&](const uint8_t* rec, size_t len) {
      if (!stop) stop = !visitor(RecordId{pid, slot}, {rec, len});
      ++slot;
      return Status::OK();
    }));
    if (stop) break;
  }
  return Status::OK();
}

}  // namespace dbm::storage

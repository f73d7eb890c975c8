// A heap file of variable-length records over buffer-managed pages.
//
// Page layout: [u16 record_count][u16 free_offset][records...], each
// record prefixed with a u16 length. Records never span pages; a record
// larger than the page payload is rejected.

#ifndef DBM_STORAGE_RECORD_FILE_H_
#define DBM_STORAGE_RECORD_FILE_H_

#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "storage/buffer.h"

namespace dbm::storage {

/// Address of a record: page + slot index within the page.
struct RecordId {
  PageId page = kInvalidPage;
  uint16_t slot = 0;
  bool operator==(const RecordId& other) const {
    return page == other.page && slot == other.slot;
  }
};

class RecordFile {
 public:
  /// `buffer` must have its disk/policy ports bound; `disk` allocates the
  /// file's pages.
  RecordFile(BufferManager* buffer, DiskComponent* disk)
      : buffer_(buffer), disk_(disk) {}

  /// Appends a record, allocating a new page when the tail page is full.
  Result<RecordId> Append(const std::vector<uint8_t>& record);

  /// Re-attaches to pages already on the disk after a restart (the WAL
  /// has been replayed by then): walks page ids in order, validates each
  /// page's slot directory, and stops at the first empty or unreadable
  /// page — the relation's clean prefix. Assumes the file owns the
  /// disk's pages 0..n-1 contiguously (one relation per disk, the
  /// load-then-scan discipline).
  Status Attach();

  /// Reads one record (a point lookup: walks the slot chain to `slot`).
  Result<std::vector<uint8_t>> Read(const RecordId& id);

  /// The scan primitive: pins page `pid` once, walks its slot directory
  /// once, and calls fn(const uint8_t* rec, size_t len) -> Status for each
  /// record in slot order. The bytes point into the pinned frame and are
  /// valid only during the call. Stops at the first error `fn` returns
  /// (or at a record that overruns the page); the page is unpinned on
  /// every path.
  template <typename Fn>
  Status VisitPage(PageId pid, Fn&& fn);

  /// Visits every record in file order, one VisitPage per page. The
  /// visitor may return false to stop early.
  Status Scan(
      const std::function<bool(const RecordId&, std::span<const uint8_t>)>&
          visitor);

  size_t record_count() const { return record_count_; }
  const std::vector<PageId>& pages() const { return pages_; }

  /// Maximum record payload a page can hold.
  static constexpr size_t kMaxRecord = kPageSize - 4 - 2;

 private:
  static constexpr size_t kHeader = 4;  // u16 count + u16 free offset

  static uint16_t GetU16(const Page& page, size_t off) {
    return static_cast<uint16_t>(page.bytes[off] |
                                 (page.bytes[off + 1] << 8));
  }

  BufferManager* buffer_;
  DiskComponent* disk_;
  std::vector<PageId> pages_;
  size_t record_count_ = 0;
};

template <typename Fn>
Status RecordFile::VisitPage(PageId pid, Fn&& fn) {
  DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(pid));
  Status status;
  const uint16_t count = GetU16(*page, 0);
  size_t off = kHeader;
  for (uint16_t s = 0; s < count && status.ok(); ++s) {
    if (off + 2 > kPageSize) {
      status = Status::DataLoss("slot directory overruns the page");
      break;
    }
    const uint16_t len = GetU16(*page, off);
    if (off + 2 + len > kPageSize) {
      status = Status::DataLoss("record overruns the page");
      break;
    }
    status = fn(page->bytes.data() + off + 2, size_t{len});
    off += 2 + len;
  }
  Status unpin = buffer_->Unpin(pid, false);
  return status.ok() ? unpin : status;
}

}  // namespace dbm::storage

#endif  // DBM_STORAGE_RECORD_FILE_H_

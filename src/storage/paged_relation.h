// Relations materialised onto buffer-managed pages.
//
// The in-memory Relation is the convenient form; PagedRelation is the
// same data living in a RecordFile, so scans exercise the getpage path —
// queries run against the fine-grained storage components rather than a
// vector. Tuples are encoded per-row with the same tagged-value format
// the Relation serialiser uses.
//
// The record format lives here alone: EncodeTuple writes it and one
// decoder template, DecodeFields, reads it for every consumer — the
// Tuple decoder, and PagedRelation::VisitPage, which scans decode
// through with one pin per page, straight into whatever the caller's
// sink builds (arena columns for the batch engine, Tuples for the row
// and serial paths).

#ifndef DBM_STORAGE_PAGED_RELATION_H_
#define DBM_STORAGE_PAGED_RELATION_H_

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "data/relation.h"
#include "storage/record_file.h"

namespace dbm::storage {

/// Encodes one tuple (schema-less tagged values): per value a
/// data::ValueType tag byte, then nothing (null), a little-endian u64
/// (int; double bits) or a u32 length and the bytes (string).
std::vector<uint8_t> EncodeTuple(const data::Tuple& tuple);

/// Decodes one record of `arity` tagged values, handing each field to
/// `sink` in column order: sink.Null(col), sink.Int(col, int64_t),
/// sink.Double(col, double) or sink.String(col, std::string_view). A
/// string view points into `bytes`; copy it to keep it. Rejects a
/// truncated field, a record with fewer than `arity` values, an unknown
/// tag byte, and trailing bytes — after a failure the sink holds a
/// partial record.
template <typename Sink>
Status DecodeFields(const uint8_t* bytes, size_t len, size_t arity,
                    Sink& sink) {
  size_t pos = 0;
  auto load = [&](int width) {
    uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(bytes[pos++]) << (8 * i);
    }
    return v;
  };
  for (size_t c = 0; c < arity; ++c) {
    if (pos >= len) return Status::IoError("truncated tuple");
    switch (static_cast<data::ValueType>(bytes[pos++])) {
      case data::ValueType::kNull:
        sink.Null(c);
        break;
      case data::ValueType::kInt:
        if (len - pos < 8) return Status::IoError("truncated u64");
        sink.Int(c, static_cast<int64_t>(load(8)));
        break;
      case data::ValueType::kDouble: {
        if (len - pos < 8) return Status::IoError("truncated u64");
        uint64_t bits = load(8);
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        sink.Double(c, d);
        break;
      }
      case data::ValueType::kString: {
        if (len - pos < 4) return Status::IoError("truncated u32");
        size_t n = static_cast<size_t>(load(4));
        if (n > len - pos) return Status::IoError("truncated string value");
        sink.String(c, std::string_view(
                           reinterpret_cast<const char*>(bytes + pos), n));
        pos += n;
        break;
      }
      default:
        return Status::IoError("unknown value tag");
    }
  }
  if (pos != len) return Status::IoError("trailing bytes after tuple");
  return Status::OK();
}

/// Decodes a tuple with `arity` values (DecodeFields into data::Values).
Result<data::Tuple> DecodeTuple(const std::vector<uint8_t>& bytes,
                                size_t arity);

class PagedRelation {
 public:
  /// Bulk-loads `rel` into a fresh record file over `buffer`/`disk`.
  static Result<std::unique_ptr<PagedRelation>> Load(
      const data::Relation& rel, BufferManager* buffer,
      DiskComponent* disk);

  /// Re-attaches to a relation already persisted on `disk` — the
  /// restart path, after storage::Recover() has replayed the WAL onto
  /// the page file. Rebuilds the page list and row count from the
  /// on-disk clean prefix; `name`/`schema` come from the caller (the
  /// catalog, in a full system).
  static Result<std::unique_ptr<PagedRelation>> Recover(
      std::string name, data::Schema schema, BufferManager* buffer,
      DiskComponent* disk);

  const std::string& name() const { return name_; }
  const data::Schema& schema() const { return schema_; }
  size_t rows() const { return file_->record_count(); }
  size_t pages() const { return file_->pages().size(); }

  /// Appends one (type-checked) tuple.
  Status Append(const data::Tuple& tuple);

  /// The scan primitive: decodes every record of page `page_ordinal`
  /// under one pin, DecodeFields(record, arity, sink) then
  /// sink.EndRow() -> Status per record, stopping at the first error.
  /// String views handed to the sink point into the pinned page, which
  /// is unpinned when this returns (on every path): copy what must
  /// outlive the call.
  template <typename Sink>
  Status VisitPage(size_t page_ordinal, Sink& sink) const {
    if (page_ordinal >= file_->pages().size()) {
      return Status::OutOfRange("page ordinal past the relation");
    }
    const size_t arity = schema_.size();
    return file_->VisitPage(
        file_->pages()[page_ordinal],
        [&](const uint8_t* rec, size_t len) -> Status {
          DBM_RETURN_NOT_OK(DecodeFields(rec, len, arity, sink));
          return sink.EndRow();
        });
  }

  /// VisitPage into Tuples: replaces `*rows` with the page's tuples in
  /// slot order (the vector's storage is reused across calls). On error
  /// `*rows` is unspecified.
  Status ReadPage(size_t page_ordinal, std::vector<data::Tuple>* rows) const;

  /// Visits every tuple in order; visitor returns false to stop. No page
  /// is pinned while the visitor runs.
  Status Scan(const std::function<bool(const data::Tuple&)>& visitor) const;

  /// Point lookup: the tuple at (page ordinal, slot), or nullopt when the
  /// slot is past the page's record count or the page past the relation.
  /// Errors on malformed data only. Scans use VisitPage instead — this
  /// pins the page and walks its slot chain per call.
  Result<std::optional<data::Tuple>> ReadAt(size_t page_ordinal,
                                            uint16_t slot) const;

  /// Materialises back into an in-memory Relation.
  Result<data::Relation> ToRelation() const;

 private:
  PagedRelation(std::string name, data::Schema schema,
                std::unique_ptr<RecordFile> file)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        file_(std::move(file)) {}

  std::string name_;
  data::Schema schema_;
  std::unique_ptr<RecordFile> file_;
};

}  // namespace dbm::storage

#endif  // DBM_STORAGE_PAGED_RELATION_H_

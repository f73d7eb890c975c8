#include "storage/paged_relation.h"

#include <cstring>

namespace dbm::storage {

using data::Tuple;
using data::Value;
using data::ValueType;

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

/// Appends decoded fields to a value vector (the Tuple decoders).
struct ValueSink {
  std::vector<Value>* values;

  void Null(size_t) { values->emplace_back(); }
  void Int(size_t, int64_t v) { values->emplace_back(v); }
  void Double(size_t, double v) { values->emplace_back(v); }
  void String(size_t, std::string_view s) {
    values->emplace_back(std::string(s));
  }
};

}  // namespace

std::vector<uint8_t> EncodeTuple(const Tuple& tuple) {
  std::vector<uint8_t> out;
  for (const Value& v : tuple.values) {
    out.push_back(static_cast<uint8_t>(data::TypeOf(v)));
    switch (data::TypeOf(v)) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        PutU64(&out, static_cast<uint64_t>(std::get<int64_t>(v)));
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        double d = std::get<double>(v);
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(&out, bits);
        break;
      }
      case ValueType::kString: {
        const std::string& s = std::get<std::string>(v);
        PutU32(&out, static_cast<uint32_t>(s.size()));
        out.insert(out.end(), s.begin(), s.end());
        break;
      }
    }
  }
  return out;
}

Result<Tuple> DecodeTuple(const std::vector<uint8_t>& bytes, size_t arity) {
  Tuple tuple;
  tuple.values.reserve(arity);
  ValueSink sink{&tuple.values};
  DBM_RETURN_NOT_OK(DecodeFields(bytes.data(), bytes.size(), arity, sink));
  return tuple;
}

Result<std::unique_ptr<PagedRelation>> PagedRelation::Load(
    const data::Relation& rel, BufferManager* buffer, DiskComponent* disk) {
  auto file = std::make_unique<RecordFile>(buffer, disk);
  auto paged = std::unique_ptr<PagedRelation>(
      new PagedRelation(rel.name(), rel.schema(), std::move(file)));
  for (const Tuple& row : rel.rows()) {
    DBM_RETURN_NOT_OK(paged->Append(row));
  }
  return paged;
}

Result<std::unique_ptr<PagedRelation>> PagedRelation::Recover(
    std::string name, data::Schema schema, BufferManager* buffer,
    DiskComponent* disk) {
  auto file = std::make_unique<RecordFile>(buffer, disk);
  DBM_RETURN_NOT_OK(file->Attach());
  return std::unique_ptr<PagedRelation>(new PagedRelation(
      std::move(name), std::move(schema), std::move(file)));
}

Status PagedRelation::Append(const Tuple& tuple) {
  DBM_RETURN_NOT_OK(data::CheckTuple(schema_, tuple));
  std::vector<uint8_t> rec = EncodeTuple(tuple);
  DBM_RETURN_NOT_OK(file_->Append(rec).status());
  return Status::OK();
}

Status PagedRelation::ReadPage(size_t page_ordinal,
                               std::vector<Tuple>* rows) const {
  // Fields land in `row`; each finished record moves into `rows`.
  struct RowSink : ValueSink {
    std::vector<Tuple>* rows;
    size_t arity;

    Status EndRow() {
      rows->emplace_back(std::move(*values));
      values->clear();
      values->reserve(arity);
      return Status::OK();
    }
  };
  rows->clear();
  std::vector<Value> row;
  row.reserve(schema_.size());
  RowSink sink{{&row}, rows, schema_.size()};
  return VisitPage(page_ordinal, sink);
}

Status PagedRelation::Scan(
    const std::function<bool(const Tuple&)>& visitor) const {
  std::vector<Tuple> rows;
  for (size_t page = 0; page < pages(); ++page) {
    DBM_RETURN_NOT_OK(ReadPage(page, &rows));
    for (const Tuple& tuple : rows) {
      if (!visitor(tuple)) return Status::OK();
    }
  }
  return Status::OK();
}

Result<std::optional<data::Tuple>> PagedRelation::ReadAt(
    size_t page_ordinal, uint16_t slot) const {
  if (page_ordinal >= file_->pages().size()) {
    return std::optional<data::Tuple>{};
  }
  RecordId id{file_->pages()[page_ordinal], slot};
  auto rec = file_->Read(id);
  if (!rec.ok()) {
    if (rec.status().IsNotFound()) return std::optional<data::Tuple>{};
    return rec.status();
  }
  DBM_ASSIGN_OR_RETURN(data::Tuple tuple,
                       DecodeTuple(*rec, schema_.size()));
  return std::optional<data::Tuple>(std::move(tuple));
}

Result<data::Relation> PagedRelation::ToRelation() const {
  data::Relation rel(name_, schema_);
  DBM_RETURN_NOT_OK(Scan([&](const Tuple& t) {
    rel.InsertUnchecked(t);
    return true;
  }));
  return rel;
}

}  // namespace dbm::storage

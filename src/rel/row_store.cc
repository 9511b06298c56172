#include "rel/row_store.h"

#include <cassert>

#include "json/json_parser.h"

namespace sqlgraph {
namespace rel {

namespace {

// Copies the cells of `columns` (all of them when empty) into `*out`.
void CopyColumns(const Row& row, std::span<const int> columns, Row* out) {
  if (columns.empty()) {
    *out = row;
    return;
  }
  out->clear();
  out->reserve(columns.size());
  for (int c : columns) out->push_back(row[static_cast<size_t>(c)]);
}

// Materializes the cells of `columns` (all of them when empty) of page row
// `slot` into `*out`; only the JSON documents returned are parsed.
util::Status MaterializeRow(const DecodedPage& page, size_t slot,
                            std::span<const int> columns, Row* out) {
  const Row& cells = page.rows[slot];
  const size_t first_flag = slot * cells.size();
  out->clear();
  out->reserve(columns.empty() ? cells.size() : columns.size());
  auto take = [&](size_t c) -> util::Status {
    if (!page.json_text[first_flag + c]) {
      out->push_back(cells[c]);
      return util::Status::OK();
    }
    ASSIGN_OR_RETURN(json::JsonValue doc, json::Parse(cells[c].AsString()));
    out->emplace_back(std::move(doc));
    return util::Status::OK();
  };
  if (columns.empty()) {
    for (size_t c = 0; c < cells.size(); ++c) RETURN_NOT_OK(take(c));
  } else {
    for (int c : columns) RETURN_NOT_OK(take(static_cast<size_t>(c)));
  }
  return util::Status::OK();
}

// Whether any cell of page row `slot` still holds unparsed JSON text.
bool HasJsonText(const DecodedPage& page, size_t slot) {
  const size_t width = page.rows[slot].size();
  for (size_t c = slot * width; c < (slot + 1) * width; ++c) {
    if (page.json_text[c]) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------- Vector --

RowId VectorRowStore::Append(Row row) {
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  return rows_.size() - 1;
}

util::Status VectorRowStore::Get(RowId rid, Row* out,
                                 std::span<const int> columns) const {
  if (rid >= rows_.size() || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  CopyColumns(rows_[rid], columns, out);
  return util::Status::OK();
}

util::Status VectorRowStore::Update(RowId rid, Row row) {
  if (rid >= rows_.size() || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  rows_[rid] = std::move(row);
  return util::Status::OK();
}

util::Status VectorRowStore::Delete(RowId rid) {
  if (rid >= rows_.size() || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  live_[rid] = false;
  rows_[rid].clear();
  rows_[rid].shrink_to_fit();
  --live_count_;
  return util::Status::OK();
}

util::Status VectorRowStore::Restore(RowId rid, Row row) {
  if (rid >= rows_.size()) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  if (live_[rid]) {
    return util::Status::InvalidArgument("row " + std::to_string(rid) +
                                         " is live; Restore needs a tombstone");
  }
  rows_[rid] = std::move(row);
  live_[rid] = true;
  ++live_count_;
  return util::Status::OK();
}

bool VectorRowStore::IsLive(RowId rid) const {
  return rid < rows_.size() && live_[rid];
}

void VectorRowStore::Scan(const std::function<void(RowId, const Row&)>& visit,
                          std::span<const int> columns) const {
  Row projected;
  for (RowId rid = 0; rid < rows_.size(); ++rid) {
    if (!live_[rid]) continue;
    if (columns.empty()) {
      visit(rid, rows_[rid]);
    } else {
      CopyColumns(rows_[rid], columns, &projected);
      visit(rid, projected);
    }
  }
}

size_t VectorRowStore::SerializedBytes() const {
  size_t total = 0;
  std::string scratch;
  for (RowId rid = 0; rid < rows_.size(); ++rid) {
    if (!live_[rid]) continue;
    scratch.clear();
    EncodeRow(rows_[rid], &scratch);
    total += scratch.size();
  }
  return total;
}

// ----------------------------------------------------------------- Paged --

PagedRowStore::PagedRowStore(BufferPool* pool, size_t num_columns,
                             size_t rows_per_page)
    : pool_(pool),
      store_id_(pool->NextStoreId()),
      num_columns_(num_columns),
      rows_per_page_(rows_per_page) {
  assert(rows_per_page_ > 0);
}

void PagedRowStore::SealTailIfFull() {
  if (tail_.size() < rows_per_page_) return;
  std::string blob;
  for (const Row& r : tail_) EncodeRow(r, &blob);
  serialized_bytes_ += blob.size();
  page_blobs_.push_back(std::move(blob));
  tail_.clear();
}

RowId PagedRowStore::Append(Row row) {
  assert(row.size() == num_columns_);
  tail_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  const RowId rid = num_rows_++;
  SealTailIfFull();
  return rid;
}

std::shared_ptr<const DecodedPage> PagedRowStore::FetchPage(
    uint32_t page_index) const {
  const PageId id{store_id_, page_index};
  if (auto cached = pool_->Lookup(id)) return cached;
  // Miss: decode the blob (this is the real cost the pool budget controls).
  // JSON documents stay compact text until a Get returns them.
  const std::string& blob = page_blobs_[page_index];
  auto page = std::make_shared<DecodedPage>();
  page->rows.reserve(rows_per_page_);
  page->json_text.reserve(rows_per_page_ * num_columns_);
  size_t offset = 0;
  while (offset < blob.size()) {
    Row row;
    row.reserve(num_columns_);
    page->byte_size += 64;  // per-row overhead
    for (size_t c = 0; c < num_columns_; ++c) {
      Value v;
      bool json_text = false;
      util::Status st = DecodeValue(blob, &offset, &v, &json_text);
      // We only decode blobs this store encoded; failure is a bug, asserted
      // in debug builds and unreachable in release.
      assert(st.ok());
      (void)st;
      page->byte_size += v.ByteSize();
      page->json_text.push_back(json_text);
      row.push_back(std::move(v));
    }
    page->rows.push_back(std::move(row));
  }
  pool_->Insert(id, page);
  return page;
}

util::Status PagedRowStore::Get(RowId rid, Row* out,
                                std::span<const int> columns) const {
  if (rid >= num_rows_ || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  const size_t page_index = rid / rows_per_page_;
  if (page_index >= page_blobs_.size()) {
    // Row still in the unsealed tail.
    CopyColumns(tail_[rid - page_blobs_.size() * rows_per_page_], columns,
                out);
    return util::Status::OK();
  }
  auto page = FetchPage(static_cast<uint32_t>(page_index));
  return MaterializeRow(*page, rid % rows_per_page_, columns, out);
}

util::Status PagedRowStore::Update(RowId rid, Row row) {
  if (rid >= num_rows_ || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  return Rewrite(rid, std::move(row));
}

util::Status PagedRowStore::Rewrite(RowId rid, Row row) {
  const size_t page_index = rid / rows_per_page_;
  if (page_index >= page_blobs_.size()) {
    tail_[rid - page_blobs_.size() * rows_per_page_] = std::move(row);
    return util::Status::OK();
  }
  // Find the byte range of the row's slot by walking the rows before it.
  std::string& blob = page_blobs_[page_index];
  const size_t slot = rid % rows_per_page_;
  size_t begin = 0;
  Value skipped;
  bool json_text = false;
  for (size_t cell = 0; cell < slot * num_columns_; ++cell) {
    RETURN_NOT_OK(DecodeValue(blob, &begin, &skipped, &json_text));
  }
  size_t end = begin;
  for (size_t c = 0; c < num_columns_; ++c) {
    RETURN_NOT_OK(DecodeValue(blob, &end, &skipped, &json_text));
  }
  std::string encoded;
  EncodeRow(row, &encoded);
  serialized_bytes_ = serialized_bytes_ - (end - begin) + encoded.size();
  blob.replace(begin, end - begin, encoded);
  pool_->Invalidate(PageId{store_id_, static_cast<uint32_t>(page_index)});
  return util::Status::OK();
}

util::Status PagedRowStore::Delete(RowId rid) {
  if (rid >= num_rows_ || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  live_[rid] = false;
  --live_count_;
  return util::Status::OK();
}

util::Status PagedRowStore::Restore(RowId rid, Row row) {
  if (rid >= num_rows_) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  if (live_[rid]) {
    return util::Status::InvalidArgument("row " + std::to_string(rid) +
                                         " is live; Restore needs a tombstone");
  }
  live_[rid] = true;
  ++live_count_;
  // Deletion only flips the live bit, but the slot may since have been
  // overwritten by an unrelated Update; write the content back
  // unconditionally.
  return Rewrite(rid, std::move(row));
}

bool PagedRowStore::IsLive(RowId rid) const {
  return rid < num_rows_ && live_[rid];
}

size_t PagedRowStore::SerializedBytes() const {
  // Sealed pages are pre-accounted; the unsealed tail is encoded on demand.
  size_t total = serialized_bytes_;
  std::string scratch;
  for (const Row& row : tail_) {
    scratch.clear();
    EncodeRow(row, &scratch);
    total += scratch.size();
  }
  return total;
}

void PagedRowStore::Scan(const std::function<void(RowId, const Row&)>& visit,
                         std::span<const int> columns) const {
  RowId rid = 0;
  Row row;
  for (size_t p = 0; p < page_blobs_.size(); ++p) {
    auto page = FetchPage(static_cast<uint32_t>(p));
    for (size_t slot = 0; slot < page->rows.size(); ++slot, ++rid) {
      if (!live_[rid]) continue;
      if (columns.empty() && !HasJsonText(*page, slot)) {
        visit(rid, page->rows[slot]);
        continue;
      }
      util::Status st = MaterializeRow(*page, slot, columns, &row);
      // The page was decoded from this store's own encoding; a document
      // that fails to parse is a bug, asserted in debug builds.
      assert(st.ok());
      (void)st;
      visit(rid, row);
    }
  }
  for (const Row& tail_row : tail_) {
    if (live_[rid]) {
      if (columns.empty()) {
        visit(rid, tail_row);
      } else {
        CopyColumns(tail_row, columns, &row);
        visit(rid, row);
      }
    }
    ++rid;
  }
}

}  // namespace rel
}  // namespace sqlgraph

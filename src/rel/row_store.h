// Physical row storage. Two implementations share one interface:
//
//  * VectorRowStore — rows resident in memory; the default for tests and
//    most benchmarks.
//  * PagedRowStore — rows serialized into fixed-fanout page blobs fronted by
//    the shared BufferPool; used for the memory-sensitivity experiment and
//    for on-disk size accounting. A page miss decodes the scalar cells and
//    copies each JSON document's compact text; Get and Scan parse a
//    document only when the requested columns include it.
//
// Get and Scan take the caller's column list, so a fetch or a scan copies
// (and, paged, parses) only the columns the query reads.
//
// RowIds are dense append positions; deletion tombstones a slot, it is never
// reused (matching the paper's soft-delete design).

#ifndef SQLGRAPH_REL_ROW_STORE_H_
#define SQLGRAPH_REL_ROW_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rel/buffer_pool.h"
#include "rel/codec.h"
#include "rel/value.h"
#include "util/status.h"

namespace sqlgraph {
namespace rel {

using RowId = uint64_t;

class RowStore {
 public:
  virtual ~RowStore() = default;

  /// Appends a row; returns its RowId.
  virtual RowId Append(Row row) = 0;

  /// Copies the row at `rid` into `*out`: the cells of `columns`, in that
  /// order, or the whole row when `columns` is empty. Fails for
  /// tombstoned/bad ids.
  virtual util::Status Get(RowId rid, Row* out,
                           std::span<const int> columns = {}) const = 0;

  /// Replaces the row at `rid`.
  virtual util::Status Update(RowId rid, Row row) = 0;

  /// Tombstones the row at `rid`.
  virtual util::Status Delete(RowId rid) = 0;

  /// Resurrects a tombstoned slot with `row` (MVCC commit unwind; the
  /// inverse of Delete). Fails if `rid` is out of range or still live.
  virtual util::Status Restore(RowId rid, Row row) = 0;

  virtual bool IsLive(RowId rid) const = 0;

  /// Visits every live row in RowId order, each as the cells of `columns`
  /// (in that order) or the whole row when `columns` is empty. The
  /// reference is only valid for the duration of the callback. A paged
  /// store parses only the JSON documents among the visited columns.
  virtual void Scan(const std::function<void(RowId, const Row&)>& visit,
                    std::span<const int> columns = {}) const = 0;

  /// Number of slots ever allocated (live + tombstoned).
  virtual size_t NumSlots() const = 0;
  virtual size_t NumLive() const = 0;

  /// Serialized footprint in bytes ("size on disk").
  virtual size_t SerializedBytes() const = 0;
};

/// Memory-resident row store.
class VectorRowStore : public RowStore {
 public:
  RowId Append(Row row) override;
  util::Status Get(RowId rid, Row* out,
                   std::span<const int> columns = {}) const override;
  util::Status Update(RowId rid, Row row) override;
  util::Status Delete(RowId rid) override;
  util::Status Restore(RowId rid, Row row) override;
  bool IsLive(RowId rid) const override;
  void Scan(const std::function<void(RowId, const Row&)>& visit,
            std::span<const int> columns = {}) const override;
  size_t NumSlots() const override { return rows_.size(); }
  size_t NumLive() const override { return live_count_; }
  size_t SerializedBytes() const override;

 private:
  std::vector<Row> rows_;
  std::vector<bool> live_;
  size_t live_count_ = 0;
};

/// Page-serialized row store behind the shared buffer pool.
class PagedRowStore : public RowStore {
 public:
  /// `rows_per_page` trades decode granularity for blob count.
  PagedRowStore(BufferPool* pool, size_t num_columns,
                size_t rows_per_page = 64);

  RowId Append(Row row) override;
  util::Status Get(RowId rid, Row* out,
                   std::span<const int> columns = {}) const override;
  util::Status Update(RowId rid, Row row) override;
  util::Status Delete(RowId rid) override;
  util::Status Restore(RowId rid, Row row) override;
  bool IsLive(RowId rid) const override;
  void Scan(const std::function<void(RowId, const Row&)>& visit,
            std::span<const int> columns = {}) const override;
  size_t NumSlots() const override { return num_rows_; }
  size_t NumLive() const override { return live_count_; }
  size_t SerializedBytes() const override;

 private:
  // Fetches (decoding on miss) the page holding `page_index`.
  std::shared_ptr<const DecodedPage> FetchPage(uint32_t page_index) const;
  // Overwrites the slot of `rid` (Update/Restore): a sealed page's blob has
  // that row's bytes replaced in place, so every other row keeps its bytes
  // verbatim, and the stale decoded page is dropped from the pool.
  util::Status Rewrite(RowId rid, Row row);
  // Seals the append buffer into a blob once full.
  void SealTailIfFull();

  BufferPool* pool_;
  uint32_t store_id_;
  size_t num_columns_;
  size_t rows_per_page_;
  std::vector<std::string> page_blobs_;  // sealed, serialized pages
  std::vector<Row> tail_;                // unsealed append buffer
  std::vector<bool> live_;
  size_t num_rows_ = 0;
  size_t live_count_ = 0;
  size_t serialized_bytes_ = 0;
};

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_ROW_STORE_H_

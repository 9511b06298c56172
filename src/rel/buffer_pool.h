// Byte-budgeted LRU buffer pool over serialized pages.
//
// Paged row stores keep their rows in serialized page blobs (the "disk");
// reading a row requires the decoded page, which lives in this pool. A
// smaller budget causes more decode work per access — this is the mechanism
// the memory-sensitivity experiment (paper Fig. 8c) manipulates, instead of
// an artificial sleep. A miss decodes every scalar cell of the page but
// keeps each JSON document as its stored compact text (see DecodedPage);
// the row store parses a document only when a fetched row returns it.

#ifndef SQLGRAPH_REL_BUFFER_POOL_H_
#define SQLGRAPH_REL_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rel/value.h"
#include "util/thread_annotations.h"

namespace sqlgraph {
namespace rel {

struct PageId {
  uint32_t store_id;
  uint32_t page_index;
  bool operator==(const PageId& o) const {
    return store_id == o.store_id && page_index == o.page_index;
  }
};

struct PageIdHash {
  size_t operator()(const PageId& p) const {
    return (static_cast<size_t>(p.store_id) << 32) ^ p.page_index;
  }
};

/// A decoded page: the rows it contains plus the bytes they hold. A JSON
/// cell holds the document's stored compact text as a string Value and is
/// marked in `json_text` (row-major, one flag per cell). Pages are
/// immutable once shared, so readers need no lock.
struct DecodedPage {
  std::vector<Row> rows;
  std::vector<bool> json_text;
  size_t byte_size = 0;
};

/// \brief LRU cache of decoded pages with a byte budget.
///
/// Thread-safe; all operations take an internal mutex. Pages leaving the
/// pool (eviction, replacement, invalidation) are unlinked under the mutex
/// and destroyed after it is released, so freeing a page never stalls
/// another reader's lookup.
class BufferPool {
 public:
  explicit BufferPool(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Returns the cached decoded page or nullptr on miss.
  std::shared_ptr<const DecodedPage> Lookup(PageId id);

  /// Inserts (or replaces) a decoded page, evicting LRU pages as needed.
  void Insert(PageId id, std::shared_ptr<const DecodedPage> page);

  /// Drops a page (e.g., after a write invalidates it).
  void Invalidate(PageId id);

  /// Drops every page belonging to a store.
  void InvalidateStore(uint32_t store_id);

  /// Drops everything (used between benchmark configurations).
  void Clear();

  void set_capacity(size_t bytes);
  size_t capacity() const {
    util::MutexLock lock(&mu_);
    return capacity_;
  }

  uint64_t hits() const {
    util::MutexLock lock(&mu_);
    return hits_;
  }
  uint64_t misses() const {
    util::MutexLock lock(&mu_);
    return misses_;
  }
  uint64_t evictions() const {
    util::MutexLock lock(&mu_);
    return evictions_;
  }
  size_t cached_bytes() const {
    util::MutexLock lock(&mu_);
    return used_.Read();
  }

  /// Allocates a store id for a new paged store.
  uint32_t NextStoreId() {
    util::MutexLock lock(&mu_);
    return next_store_id_++;
  }

 private:
  struct Entry {
    PageId id;
    std::shared_ptr<const DecodedPage> page;
  };

  /// Moves LRU entries into `victims` until the budget holds; the caller
  /// drops them once `mu_` is released.
  void EvictIfNeeded(std::list<Entry>* victims) REQUIRES(mu_);
  /// Moves one entry out of the LRU list and the map into `victims`.
  void Unlink(std::list<Entry>::iterator it, std::list<Entry>* victims)
      REQUIRES(mu_);

  mutable util::Mutex mu_{util::LockRank::kBufferPool, "buffer_pool"};
  size_t capacity_ GUARDED_BY(mu_);
  // Eviction driver (cached bytes). SharedVar: scheduling point + race
  // check under the schedule explorer (util/sched.h), plain size_t
  // otherwise.
  util::sched::SharedVar<size_t> used_ GUARDED_BY(mu_){"buffer_pool.used"};
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<PageId, std::list<Entry>::iterator, PageIdHash> map_
      GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint32_t next_store_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_BUFFER_POOL_H_

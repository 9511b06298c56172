#include "rel/buffer_pool.h"

#include <iterator>

#include "obs/metrics.h"

namespace sqlgraph {
namespace rel {

namespace {
// Process-wide registry export, aggregated across pool instances; the
// per-instance hits()/misses() accessors keep their per-pool meaning.
obs::Counter* HitCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("rel.buffer_pool.hits");
  return c;
}
obs::Counter* MissCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("rel.buffer_pool.misses");
  return c;
}
obs::Counter* EvictionCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("rel.buffer_pool.evictions");
  return c;
}
}  // namespace

std::shared_ptr<const DecodedPage> BufferPool::Lookup(PageId id) {
  util::MutexLock lock(&mu_);
  auto it = map_.find(id);
  if (it == map_.end()) {
    ++misses_;
    MissCounter()->Increment();
    return nullptr;
  }
  ++hits_;
  HitCounter()->Increment();
  // Move to front of LRU list.
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->page;
}

// The write paths below declare `victims` before taking the lock: locals
// are destroyed in reverse order, so the unlinked pages are freed after
// `mu_` is released.

void BufferPool::Insert(PageId id, std::shared_ptr<const DecodedPage> page) {
  std::list<Entry> victims;
  util::MutexLock lock(&mu_);
  auto it = map_.find(id);
  if (it != map_.end()) Unlink(it->second, &victims);
  used_.Write() += page->byte_size;
  lru_.push_front(Entry{id, std::move(page)});
  map_[id] = lru_.begin();
  EvictIfNeeded(&victims);
}

void BufferPool::Invalidate(PageId id) {
  std::list<Entry> victims;
  util::MutexLock lock(&mu_);
  auto it = map_.find(id);
  if (it != map_.end()) Unlink(it->second, &victims);
}

void BufferPool::InvalidateStore(uint32_t store_id) {
  std::list<Entry> victims;
  util::MutexLock lock(&mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->id.store_id == store_id) Unlink(it, &victims);
    it = next;
  }
}

void BufferPool::Clear() {
  std::list<Entry> victims;
  util::MutexLock lock(&mu_);
  victims.swap(lru_);
  map_.clear();
  used_.Write() = 0;
  hits_ = misses_ = evictions_ = 0;
}

void BufferPool::set_capacity(size_t bytes) {
  std::list<Entry> victims;
  util::MutexLock lock(&mu_);
  capacity_ = bytes;
  EvictIfNeeded(&victims);
}

void BufferPool::Unlink(std::list<Entry>::iterator it,
                        std::list<Entry>* victims) {
  used_.Write() -= it->page->byte_size;
  map_.erase(it->id);
  victims->splice(victims->end(), lru_, it);
}

void BufferPool::EvictIfNeeded(std::list<Entry>* victims) {
  while (used_.Read() > capacity_ && !lru_.empty()) {
    Unlink(std::prev(lru_.end()), victims);
    ++evictions_;
    EvictionCounter()->Increment();
  }
}

}  // namespace rel
}  // namespace sqlgraph

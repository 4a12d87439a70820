#ifndef DFLOW_VOLCANO_BUFFER_POOL_H_
#define DFLOW_VOLCANO_BUFFER_POOL_H_

#include <list>
#include <map>
#include <memory>
#include <vector>

#include "dflow/volcano/cost_meter.h"
#include "dflow/volcano/heap_file.h"

namespace dflow::volcano {

/// The main-memory page cache of the conventional engine — the component
/// §7.4 argues a data-flow engine no longer needs. LRU replacement;
/// capacity in pages; every miss is charged to the CostMeter as a full
/// storage-to-CPU fetch.
///
/// Pages are cached in decoded form (rows), but accounting uses on-page
/// bytes, matching how real pools size frames.
class BufferPool {
 public:
  BufferPool(size_t capacity_pages, CostMeter* meter);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Decoded rows of one page, shared by the pool's frame and every scan
  /// reading it, so a scan keeps its page after the pool evicts the frame.
  using PageRows = std::shared_ptr<const DecodedPage>;

  /// Returns the decoded rows of (file, page).
  Result<PageRows> GetPage(const HeapFile* file, size_t page_index);

  size_t capacity_pages() const { return capacity_; }
  size_t resident_pages() const { return frames_.size(); }
  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t peak_resident_bytes() const { return peak_resident_bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  void Clear();

 private:
  using PageKey = std::pair<const HeapFile*, size_t>;
  struct Frame {
    PageRows rows;
    uint64_t page_bytes = 0;
    std::list<PageKey>::iterator lru_pos;
  };

  void EvictIfNeeded();

  size_t capacity_;
  CostMeter* meter_;
  std::map<PageKey, Frame> frames_;
  std::list<PageKey> lru_;  // front = most recent
  uint64_t resident_bytes_ = 0;
  uint64_t peak_resident_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace dflow::volcano

#endif  // DFLOW_VOLCANO_BUFFER_POOL_H_

#include "dflow/volcano/buffer_pool.h"

#include "dflow/common/logging.h"

namespace dflow::volcano {

BufferPool::BufferPool(size_t capacity_pages, CostMeter* meter)
    : capacity_(capacity_pages), meter_(meter) {
  DFLOW_CHECK_GT(capacity_pages, 0u);
  DFLOW_CHECK(meter != nullptr);
}

Result<BufferPool::PageRows> BufferPool::GetPage(const HeapFile* file,
                                                size_t page_index) {
  if (file == nullptr || page_index >= file->num_pages()) {
    return Status::OutOfRange("page index out of range");
  }
  const PageKey key{file, page_index};
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    ++hits_;
    lru_.erase(it->second.lru_pos);
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
    return it->second.rows;
  }
  ++misses_;
  const HeapPage& page = file->page(page_index);
  meter_->ChargePageFetch(page.byte_size());
  auto rows = std::make_shared<DecodedPage>();
  DFLOW_RETURN_NOT_OK(page.ReadRows(file->schema(), rows.get()));
  Frame frame;
  frame.rows = std::move(rows);
  frame.page_bytes = page.byte_size();
  EvictIfNeeded();
  lru_.push_front(key);
  frame.lru_pos = lru_.begin();
  resident_bytes_ += frame.page_bytes;
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
  auto [inserted, ok] = frames_.emplace(key, std::move(frame));
  (void)ok;
  return inserted->second.rows;
}

void BufferPool::EvictIfNeeded() {
  while (frames_.size() >= capacity_) {
    DFLOW_CHECK(!lru_.empty());
    const PageKey victim = lru_.back();
    lru_.pop_back();
    auto it = frames_.find(victim);
    DFLOW_CHECK(it != frames_.end());
    resident_bytes_ -= it->second.page_bytes;
    frames_.erase(it);
    ++evictions_;
  }
}

void BufferPool::Clear() {
  frames_.clear();
  lru_.clear();
  resident_bytes_ = 0;
}

}  // namespace dflow::volcano

#ifndef DFLOW_VOLCANO_HEAP_FILE_H_
#define DFLOW_VOLCANO_HEAP_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "dflow/storage/table.h"
#include "dflow/volcano/row.h"

namespace dflow::volcano {

/// Target page size of the baseline engine.
inline constexpr size_t kPageBytes = 8192;

/// The decoded rows of one page, stored flat: row i is the `width` values
/// starting at i * width, so a page costs one allocation, not one per row.
class DecodedPage {
 public:
  size_t num_rows() const { return num_rows_; }

  /// Copies row i into `row`, reusing its storage.
  void CopyRow(size_t i, Row* row) const {
    const auto first =
        values_.begin() + static_cast<std::ptrdiff_t>(i * width_);
    row->assign(first, first + static_cast<std::ptrdiff_t>(width_));
  }

 private:
  friend class HeapPage;

  size_t width_ = 0;
  size_t num_rows_ = 0;
  std::vector<Value> values_;
};

/// A slotted heap page: serialized rows plus a row count. Immutable once
/// built (the baseline serves analytics, like the data-flow engine).
class HeapPage {
 public:
  HeapPage() = default;

  size_t num_rows() const { return num_rows_; }
  uint64_t byte_size() const { return bytes_.size(); }

  /// Appends a row if it fits in the page budget (always accepts the first
  /// row so oversized rows still land somewhere). Returns false when full.
  bool TryAppend(const Schema& schema, const Row& row);

  /// Decodes all rows on the page.
  Status ReadRows(const Schema& schema, DecodedPage* rows) const;

 private:
  size_t num_rows_ = 0;
  std::vector<uint8_t> bytes_;
};

/// A paged row-major file materialized from a columnar Table: the storage
/// format of the conventional engine ("these databases still run as if
/// they accessed local storage", §2.1).
class HeapFile {
 public:
  /// Converts a table into pages.
  static Result<HeapFile> FromTable(const Table& table);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_pages() const { return pages_.size(); }
  uint64_t num_rows() const { return num_rows_; }
  const HeapPage& page(size_t i) const { return pages_[i]; }
  uint64_t total_bytes() const;

 private:
  HeapFile() = default;

  std::string name_;
  Schema schema_;
  std::vector<HeapPage> pages_;
  uint64_t num_rows_ = 0;
};

}  // namespace dflow::volcano

#endif  // DFLOW_VOLCANO_HEAP_FILE_H_

#ifndef DFLOW_VOLCANO_ROW_H_
#define DFLOW_VOLCANO_ROW_H_

#include <vector>

#include "dflow/common/result.h"
#include "dflow/encode/byte_io.h"
#include "dflow/types/schema.h"
#include "dflow/types/value.h"

namespace dflow::volcano {

/// The tuple-at-a-time unit of the baseline engine. Deliberately the
/// classic representation — a materialized value array per row — because
/// the baseline exists to embody the architecture the paper argues against.
using Row = std::vector<Value>;

/// Serializes a row against a schema: per column a null byte, then the
/// fixed-width value or a length-prefixed string.
void SerializeRow(const Schema& schema, const Row& row, ByteWriter* w);

/// Reads one row back.
Status DeserializeRow(const Schema& schema, ByteReader* r, Row* row);

/// Reads one row back, appending its values to `values`.
Status AppendDeserializedRow(const Schema& schema, ByteReader* r,
                             std::vector<Value>* values);

/// On-page size of a row (what SerializeRow would write).
uint64_t SerializedRowBytes(const Schema& schema, const Row& row);

}  // namespace dflow::volcano

#endif  // DFLOW_VOLCANO_ROW_H_

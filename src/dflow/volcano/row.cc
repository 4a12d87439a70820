#include "dflow/volcano/row.h"

#include "dflow/common/logging.h"

namespace dflow::volcano {

void SerializeRow(const Schema& schema, const Row& row, ByteWriter* w) {
  DFLOW_CHECK_EQ(schema.num_fields(), row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    const Value& v = row[c];
    w->PutU8(v.is_null() ? 1 : 0);
    if (v.is_null()) continue;
    switch (schema.field(c).type) {
      case DataType::kBool:
        w->PutU8(v.bool_value() ? 1 : 0);
        break;
      case DataType::kInt32:
        w->PutI32(v.int32_value());
        break;
      case DataType::kDate32:
        w->PutI32(v.date32_value());
        break;
      case DataType::kInt64:
        w->PutI64(v.int64_value());
        break;
      case DataType::kDouble:
        w->PutDouble(v.double_value());
        break;
      case DataType::kString:
        w->PutString(v.string_value());
        break;
    }
  }
}

Status DeserializeRow(const Schema& schema, ByteReader* r, Row* row) {
  row->clear();
  row->reserve(schema.num_fields());
  return AppendDeserializedRow(schema, r, row);
}

Status AppendDeserializedRow(const Schema& schema, ByteReader* r,
                             std::vector<Value>* values) {
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    uint8_t null_byte = 0;
    DFLOW_RETURN_NOT_OK(r->GetU8(&null_byte));
    const DataType type = schema.field(c).type;
    if (null_byte) {
      values->push_back(Value::Null(type));
      continue;
    }
    switch (type) {
      case DataType::kBool: {
        uint8_t v = 0;
        DFLOW_RETURN_NOT_OK(r->GetU8(&v));
        values->push_back(Value::Bool(v != 0));
        break;
      }
      case DataType::kInt32: {
        int32_t v = 0;
        DFLOW_RETURN_NOT_OK(r->GetI32(&v));
        values->push_back(Value::Int32(v));
        break;
      }
      case DataType::kDate32: {
        int32_t v = 0;
        DFLOW_RETURN_NOT_OK(r->GetI32(&v));
        values->push_back(Value::Date32(v));
        break;
      }
      case DataType::kInt64: {
        int64_t v = 0;
        DFLOW_RETURN_NOT_OK(r->GetI64(&v));
        values->push_back(Value::Int64(v));
        break;
      }
      case DataType::kDouble: {
        double v = 0;
        DFLOW_RETURN_NOT_OK(r->GetDouble(&v));
        values->push_back(Value::Double(v));
        break;
      }
      case DataType::kString: {
        std::string s;
        DFLOW_RETURN_NOT_OK(r->GetString(&s));
        values->push_back(Value::String(std::move(s)));
        break;
      }
    }
  }
  return Status::OK();
}

uint64_t SerializedRowBytes(const Schema& schema, const Row& row) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < row.size(); ++c) {
    bytes += 1;  // null byte
    if (row[c].is_null()) continue;
    const DataType type = schema.field(c).type;
    if (type == DataType::kString) {
      bytes += 4 + row[c].string_value().size();
    } else {
      bytes += FixedWidthBytes(type);
    }
  }
  return bytes;
}

}  // namespace dflow::volcano

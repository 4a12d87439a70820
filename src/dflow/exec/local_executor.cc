#include "dflow/exec/local_executor.h"

namespace dflow {

Result<std::vector<DataChunk>> RunLocalPipeline(
    std::vector<DataChunk> inputs, const std::vector<Operator*>& ops) {
  std::vector<DataChunk> current = std::move(inputs);
  for (Operator* op : ops) {
    if (op == nullptr) return Status::InvalidArgument("null operator");
    std::vector<DataChunk> next;
    for (DataChunk& chunk : current) {
      DFLOW_RETURN_NOT_OK(op->Push(std::move(chunk), &next));
    }
    DFLOW_RETURN_NOT_OK(op->Finish(&next));
    current = std::move(next);
  }
  return current;
}

uint64_t TotalRows(const std::vector<DataChunk>& chunks) {
  uint64_t rows = 0;
  for (const DataChunk& c : chunks) rows += c.num_rows();
  return rows;
}

uint64_t TotalBytes(const std::vector<DataChunk>& chunks) {
  uint64_t bytes = 0;
  for (const DataChunk& c : chunks) bytes += c.ByteSize();
  return bytes;
}

DataChunk ConcatChunks(const std::vector<DataChunk>& chunks) {
  if (chunks.empty()) return DataChunk();
  DataChunk out;
  for (size_t c = 0; c < chunks[0].num_columns(); ++c) {
    out.AddColumn(ColumnVector(chunks[0].column(c).type()));
  }
  for (const DataChunk& chunk : chunks) out.Append(chunk);
  return out;
}

}  // namespace dflow

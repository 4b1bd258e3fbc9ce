#include "storage/encode/frozen.h"

namespace fungusdb::encode {
namespace {

constexpr uint64_t kMaxRows = uint64_t{1} << 26;  // snapshot bound

/// Positions encoded as value 0 in a 0/1 RLE vector.
uint64_t CountZeros(const RleBytes& rle) {
  uint64_t zeros = 0;
  uint64_t prev = 0;
  for (size_t i = 0; i < rle.values.size(); ++i) {
    if (rle.values[i] == 0) zeros += rle.ends[i] - prev;
    prev = rle.ends[i];
  }
  return zeros;
}

Status ValidateBitRuns(const RleBytes& rle, uint64_t num_rows,
                       const char* what) {
  if (rle.count() != num_rows) {
    return Status::ParseError(std::string(what) + ": length mismatch");
  }
  for (const uint8_t v : rle.values) {
    if (v > 1) {
      return Status::ParseError(std::string(what) + ": non-bit run value");
    }
  }
  return Status::OK();
}

}  // namespace

size_t FrozenColumn::HeapBytes() const {
  size_t bytes = validity.HeapBytes();
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      bytes += ints.HeapBytes();
      break;
    case DataType::kFloat64:
      bytes += doubles.capacity() * sizeof(double);
      break;
    case DataType::kString:
      bytes += strings.HeapBytes();
      break;
    case DataType::kBool:
      bytes += bools.HeapBytes();
      break;
  }
  return bytes;
}

template <typename Writer>
void FrozenColumn::Serialize(Writer& out) const {
  out.WriteU8(static_cast<uint8_t>(type));
  out.WriteU64(null_count);
  out.WriteU64(plain_bytes);
  SerializeRleBytes(validity, out);
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      ints.Serialize(out);
      break;
    case DataType::kFloat64:
      out.WriteU64(doubles.size());
      for (const double v : doubles) out.WriteDouble(v);
      break;
    case DataType::kString:
      strings.Serialize(out);
      break;
    case DataType::kBool:
      SerializeRleBytes(bools, out);
      break;
  }
}

Result<FrozenColumn> FrozenColumn::Deserialize(BufferReader& in,
                                               uint64_t num_rows) {
  FrozenColumn col;
  FUNGUSDB_ASSIGN_OR_RETURN(uint8_t tag, in.ReadU8());
  if (tag > static_cast<uint8_t>(DataType::kTimestamp)) {
    return Status::ParseError("frozen column: unknown type tag");
  }
  col.type = static_cast<DataType>(tag);
  FUNGUSDB_ASSIGN_OR_RETURN(col.null_count, in.ReadU64());
  FUNGUSDB_ASSIGN_OR_RETURN(col.plain_bytes, in.ReadU64());
  FUNGUSDB_ASSIGN_OR_RETURN(col.validity, DeserializeRleBytes(in));
  FUNGUSDB_RETURN_IF_ERROR(
      ValidateBitRuns(col.validity, num_rows, "frozen column validity"));
  if (col.null_count != CountZeros(col.validity)) {
    return Status::ParseError("frozen column: null count mismatch");
  }
  uint64_t payload_rows = 0;
  switch (col.type) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      FUNGUSDB_ASSIGN_OR_RETURN(col.ints, PackedInts::Deserialize(in));
      payload_rows = col.ints.count;
      break;
    }
    case DataType::kFloat64: {
      FUNGUSDB_ASSIGN_OR_RETURN(uint64_t n, in.ReadU64());
      if (n > kMaxRows) {
        return Status::ParseError("frozen column: implausible length");
      }
      col.doubles.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        FUNGUSDB_ASSIGN_OR_RETURN(double v, in.ReadDouble());
        col.doubles.push_back(v);
      }
      payload_rows = n;
      break;
    }
    case DataType::kString: {
      FUNGUSDB_ASSIGN_OR_RETURN(col.strings, DictStrings::Deserialize(in));
      payload_rows = col.strings.count();
      break;
    }
    case DataType::kBool: {
      FUNGUSDB_ASSIGN_OR_RETURN(col.bools, DeserializeRleBytes(in));
      for (const uint8_t v : col.bools.values) {
        if (v > 1) {
          return Status::ParseError("frozen column: non-bit bool run");
        }
      }
      payload_rows = col.bools.count();
      break;
    }
  }
  if (payload_rows != num_rows) {
    return Status::ParseError("frozen column: payload length mismatch");
  }
  return col;
}

size_t FrozenSegment::MemoryUsage() const {
  size_t bytes = sizeof(FrozenSegment) + ts.HeapBytes() + alive.HeapBytes() +
                 freshness_raw.capacity() * sizeof(double) +
                 columns.capacity() * sizeof(FrozenColumn);
  for (const FrozenColumn& col : columns) bytes += col.HeapBytes();
  return bytes;
}

template <typename Writer>
void FrozenSegment::Serialize(Writer& out) const {
  out.WriteU64(num_rows);
  out.WriteU64(plain_bytes);
  ts.Serialize(out);
  out.WriteBool(uniform_freshness);
  if (uniform_freshness) {
    out.WriteDouble(uniform_value);
  } else {
    out.WriteU64(freshness_raw.size());
    for (const double f : freshness_raw) out.WriteDouble(f);
  }
  SerializeRleBytes(alive, out);
  out.WriteU64(columns.size());
  for (const FrozenColumn& col : columns) col.Serialize(out);
}

Result<FrozenSegment> FrozenSegment::Deserialize(BufferReader& in) {
  FrozenSegment seg;
  FUNGUSDB_ASSIGN_OR_RETURN(seg.num_rows, in.ReadU64());
  if (seg.num_rows == 0 || seg.num_rows > kMaxRows) {
    return Status::ParseError("frozen segment: implausible row count");
  }
  FUNGUSDB_ASSIGN_OR_RETURN(seg.plain_bytes, in.ReadU64());
  FUNGUSDB_ASSIGN_OR_RETURN(seg.ts, PackedInts::Deserialize(in));
  if (seg.ts.count != seg.num_rows) {
    return Status::ParseError("frozen segment: ts length mismatch");
  }
  FUNGUSDB_ASSIGN_OR_RETURN(seg.uniform_freshness, in.ReadBool());
  if (seg.uniform_freshness) {
    FUNGUSDB_ASSIGN_OR_RETURN(seg.uniform_value, in.ReadDouble());
  } else {
    FUNGUSDB_ASSIGN_OR_RETURN(uint64_t n, in.ReadU64());
    if (n != seg.num_rows) {
      return Status::ParseError("frozen segment: freshness length mismatch");
    }
    seg.freshness_raw.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      FUNGUSDB_ASSIGN_OR_RETURN(double f, in.ReadDouble());
      seg.freshness_raw.push_back(f);
    }
  }
  FUNGUSDB_ASSIGN_OR_RETURN(seg.alive, DeserializeRleBytes(in));
  FUNGUSDB_RETURN_IF_ERROR(
      ValidateBitRuns(seg.alive, seg.num_rows, "frozen segment alive"));
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t num_columns, in.ReadU64());
  if (num_columns > 4096) {
    return Status::ParseError("frozen segment: implausible column count");
  }
  seg.columns.reserve(num_columns);
  for (uint64_t c = 0; c < num_columns; ++c) {
    FUNGUSDB_ASSIGN_OR_RETURN(FrozenColumn col,
                              FrozenColumn::Deserialize(in, seg.num_rows));
    seg.columns.push_back(std::move(col));
  }
  seg.checksum = seg.ComputeChecksum();
  return seg;
}

uint32_t FrozenSegment::ComputeChecksum() const {
  Crc32Writer crc;
  Serialize(crc);
  return crc.checksum();
}

template void FrozenColumn::Serialize(BufferWriter&) const;
template void FrozenColumn::Serialize(Crc32Writer&) const;
template void FrozenSegment::Serialize(BufferWriter&) const;
template void FrozenSegment::Serialize(Crc32Writer&) const;

}  // namespace fungusdb::encode

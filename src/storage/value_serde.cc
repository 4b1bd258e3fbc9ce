#include "storage/value_serde.h"

namespace fungusdb {
namespace {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagFloat64 = 2;
constexpr uint8_t kTagString = 3;
constexpr uint8_t kTagBool = 4;
constexpr uint8_t kTagTimestamp = 5;

uint8_t TypeTag(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return kTagInt64;
    case DataType::kFloat64:
      return kTagFloat64;
    case DataType::kString:
      return kTagString;
    case DataType::kBool:
      return kTagBool;
    case DataType::kTimestamp:
      return kTagTimestamp;
  }
  return kTagNull;
}

Result<DataType> TagType(uint8_t tag) {
  switch (tag) {
    case kTagInt64:
      return DataType::kInt64;
    case kTagFloat64:
      return DataType::kFloat64;
    case kTagString:
      return DataType::kString;
    case kTagBool:
      return DataType::kBool;
    case kTagTimestamp:
      return DataType::kTimestamp;
    default:
      return Status::ParseError("unknown type tag " + std::to_string(tag));
  }
}

}  // namespace

void WriteValue(BufferWriter& out, const Value& value) {
  if (value.is_null()) {
    out.WriteU8(kTagNull);
    return;
  }
  out.WriteU8(TypeTag(value.type()));
  switch (value.type()) {
    case DataType::kInt64:
      out.WriteI64(value.AsInt64());
      break;
    case DataType::kFloat64:
      out.WriteDouble(value.AsFloat64());
      break;
    case DataType::kString:
      out.WriteString(value.AsString());
      break;
    case DataType::kBool:
      out.WriteBool(value.AsBool());
      break;
    case DataType::kTimestamp:
      out.WriteI64(value.AsTimestamp());
      break;
  }
}

Result<Value> ReadValue(BufferReader& in) {
  FUNGUSDB_ASSIGN_OR_RETURN(uint8_t tag, in.ReadU8());
  if (tag == kTagNull) return Value::Null();
  FUNGUSDB_ASSIGN_OR_RETURN(DataType type, TagType(tag));
  switch (type) {
    case DataType::kInt64: {
      FUNGUSDB_ASSIGN_OR_RETURN(int64_t v, in.ReadI64());
      return Value::Int64(v);
    }
    case DataType::kFloat64: {
      FUNGUSDB_ASSIGN_OR_RETURN(double v, in.ReadDouble());
      return Value::Float64(v);
    }
    case DataType::kString: {
      FUNGUSDB_ASSIGN_OR_RETURN(std::string v, in.ReadString());
      return Value::String(std::move(v));
    }
    case DataType::kBool: {
      FUNGUSDB_ASSIGN_OR_RETURN(bool v, in.ReadBool());
      return Value::Bool(v);
    }
    case DataType::kTimestamp: {
      FUNGUSDB_ASSIGN_OR_RETURN(int64_t v, in.ReadI64());
      return Value::TimestampVal(v);
    }
  }
  return Status::Internal("unhandled tag");
}

void WriteSchema(BufferWriter& out, const Schema& schema) {
  out.WriteU64(schema.num_fields());
  for (const Field& f : schema.fields()) {
    out.WriteString(f.name);
    out.WriteU8(TypeTag(f.type));
    out.WriteBool(f.nullable);
  }
}

Result<Schema> ReadSchema(BufferReader& in) {
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t count, in.ReadU64());
  // A field takes at least 10 bytes (name length, type tag, nullable
  // flag): a larger count is corrupt, and must not size the reserve.
  if (count > in.remaining() / 10) {
    return Status::ParseError("schema field count exceeds the input");
  }
  std::vector<Field> fields;
  fields.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Field f;
    FUNGUSDB_ASSIGN_OR_RETURN(f.name, in.ReadString());
    FUNGUSDB_ASSIGN_OR_RETURN(uint8_t tag, in.ReadU8());
    FUNGUSDB_ASSIGN_OR_RETURN(f.type, TagType(tag));
    FUNGUSDB_ASSIGN_OR_RETURN(f.nullable, in.ReadBool());
    fields.push_back(std::move(f));
  }
  return Schema::Make(std::move(fields));
}

}  // namespace fungusdb

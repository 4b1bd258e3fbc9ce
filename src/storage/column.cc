#include "storage/column.h"

#include <functional>

namespace fungusdb {

std::unique_ptr<Column> MakeColumn(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return std::make_unique<Int64Column>();
    case DataType::kFloat64:
      return std::make_unique<Float64Column>();
    case DataType::kString:
      return std::make_unique<StringColumn>();
    case DataType::kBool:
      return std::make_unique<BoolColumn>();
    case DataType::kTimestamp:
      return std::make_unique<TimestampColumn>();
  }
  return nullptr;
}

namespace internal_column {

std::vector<bool> ValidBits(const uint8_t* valid, size_t n,
                            size_t* null_count) {
  size_t nulls = 0;
  for (size_t i = 0; i < n; ++i) nulls += valid[i] == 0 ? 1 : 0;
  *null_count = nulls;
  std::vector<bool> bits = CellVector<bool>(n);
  if (nulls == 0) {
    bits.flip();
  } else {
    for (size_t i = 0; i < n; ++i) bits[i] = valid[i] != 0;
  }
  return bits;
}

}  // namespace internal_column

std::optional<uint32_t> FindDictionaryCode(
    const std::vector<std::string>& dict, std::string_view needle) {
  for (size_t i = 0; i < dict.size(); ++i) {
    if (dict[i] == needle) return static_cast<uint32_t>(i);
  }
  return std::nullopt;
}

StringColumn::StringColumn(std::vector<std::string> dict,
                           std::vector<uint32_t> codes, const uint8_t* valid)
    : codes_(std::move(codes)), dict_(std::move(dict)) {
  valid_ = internal_column::ValidBits(valid, codes_.size(), &null_count_);
}

void StringColumn::Append(const Value& value) {
  if (value.is_null()) {
    codes_.push_back(Intern(std::string_view()));
    valid_.push_back(false);
    ++null_count_;
  } else {
    AppendTyped(value.AsString());
  }
}

void StringColumn::AppendTyped(std::string_view v) {
  codes_.push_back(Intern(v));
  valid_.push_back(true);
}

Value StringColumn::GetValue(size_t pos) const {
  assert(pos < codes_.size());
  if (!valid_[pos]) return Value::Null();
  return Value::String(dict_[codes_[pos]]);
}

uint32_t StringColumn::Intern(std::string_view s) {
  assert(index_.size() == dict_.size() && "append to a sealed column");
  bool inserted = false;
  const uint32_t code = index_.FindOrInsert(
      std::hash<std::string_view>{}(s),
      [&](uint32_t c) { return dict_[c] == s; }, &inserted);
  if (inserted) dict_.emplace_back(s);
  return code;
}

size_t StringColumn::MemoryUsage() const {
  size_t bytes = codes_.capacity() * sizeof(uint32_t) +
                 valid_.capacity() / 8 +
                 dict_.capacity() * sizeof(std::string) +
                 index_.MemoryUsage();
  for (const std::string& s : dict_) bytes += s.capacity();
  return bytes;
}

}  // namespace fungusdb

#ifndef FUNGUSDB_COMMON_BUFFER_IO_H_
#define FUNGUSDB_COMMON_BUFFER_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"

namespace fungusdb {

/// Append-only little-endian binary encoder used by the snapshot,
/// journal and wire formats. Fixed-width integers, IEEE doubles, and
/// length-prefixed byte strings.
class BufferWriter {
 public:
  BufferWriter() = default;

  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }

  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// Length-prefixed (u64) byte string.
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    buffer_.append(s.data(), s.size());
  }

  /// Overwrites the u64 written at byte `pos` — a length prefix written
  /// as a placeholder before the bytes it counts.
  void PatchU64(size_t pos, uint64_t v) {
    std::memcpy(buffer_.data() + pos, &v, sizeof(v));
  }

  /// Capacity for `bytes` more, when the caller knows the size ahead.
  void Reserve(size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  void WriteRaw(const void* data, size_t len) {
    buffer_.append(static_cast<const char*>(data), len);
  }

  std::string buffer_;
};

/// Bounds-checked decoder over a byte span: snapshots, journal entries
/// and wire payloads. No read walks past the end, so corrupt or
/// truncated input surfaces as a Status error rather than undefined
/// behaviour. The reads are inline. Each comes in two forms: Read(x)
/// returns false on a short read, leaves the position where it was and
/// builds no Status (error() builds it afterwards), for decoders on a
/// hot path; ReadU32() and the like return a Result.
class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  /// A fixed-width little-endian value; a bool is one byte, nonzero
  /// meaning true.
  template <typename T>
    requires std::is_arithmetic_v<T>
  bool Read(T& value) {
    if (remaining() < sizeof(T)) [[unlikely]] return Short(sizeof(T));
    if constexpr (std::is_same_v<T, bool>) {
      value = data_[pos_] != 0;
    } else {
      std::memcpy(&value, data_.data() + pos_, sizeof(T));
    }
    pos_ += sizeof(T);
    return true;
  }

  /// A u64 length, then that many bytes.
  bool Read(std::string& value) {
    uint64_t len = 0;
    if (!Read(len)) return false;
    if (remaining() < len) [[unlikely]] return Short(len);
    value.assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  /// Why the last Read failed: OutOfRange "truncated: need N bytes, have
  /// M".
  [[gnu::cold]] Status error() const;

  Result<uint8_t> ReadU8() { return ReadAs<uint8_t>(); }
  Result<uint32_t> ReadU32() { return ReadAs<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadAs<uint64_t>(); }
  Result<int64_t> ReadI64() { return ReadAs<int64_t>(); }
  Result<double> ReadDouble() { return ReadAs<double>(); }
  Result<bool> ReadBool() { return ReadAs<bool>(); }
  Result<std::string> ReadString() { return ReadAs<std::string>(); }

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  bool Short(uint64_t needed) {
    short_of_ = needed;
    return false;
  }

  template <typename T>
  Result<T> ReadAs() {
    T value{};
    if (!Read(value)) return error();
    return value;
  }

  std::string_view data_;
  size_t pos_ = 0;
  uint64_t short_of_ = 0;  // bytes the last failed Read needed
};

}  // namespace fungusdb

#endif  // FUNGUSDB_COMMON_BUFFER_IO_H_

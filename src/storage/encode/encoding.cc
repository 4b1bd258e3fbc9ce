#include "storage/encode/encoding.h"

#include <algorithm>
#include <unordered_map>

namespace fungusdb::encode {
namespace {

/// Rows-per-segment is capped at 1 << 26 by the snapshot validators;
/// encoded spans inherit the same plausibility bound.
constexpr uint64_t kMaxCount = uint64_t{1} << 26;

uint32_t BitsFor(uint64_t v) {
  uint32_t bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

}  // namespace

namespace internal_crc {
namespace {

/// Eight bytes as a little-endian word. Assembled from bytes, so the
/// load is alignment-safe on any host; it compiles to one move on x86.
uint64_t LoadLe64(const uint8_t* p) {
  return uint64_t{p[0]} | uint64_t{p[1]} << 8 | uint64_t{p[2]} << 16 |
         uint64_t{p[3]} << 24 | uint64_t{p[4]} << 32 | uint64_t{p[5]} << 40 |
         uint64_t{p[6]} << 48 | uint64_t{p[7]} << 56;
}

}  // namespace

uint32_t Update(uint32_t crc, const uint8_t* data, size_t len) {
  const auto& t = kTables.t;
  for (; len >= 16; data += 16, len -= 16) {
    const uint64_t a = LoadLe64(data) ^ crc;
    const uint64_t b = LoadLe64(data + 8);
    crc = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^
          t[13][(a >> 16) & 0xFF] ^ t[12][(a >> 24) & 0xFF] ^
          t[11][(a >> 32) & 0xFF] ^ t[10][(a >> 40) & 0xFF] ^
          t[9][(a >> 48) & 0xFF] ^ t[8][a >> 56] ^ t[7][b & 0xFF] ^
          t[6][(b >> 8) & 0xFF] ^ t[5][(b >> 16) & 0xFF] ^
          t[4][(b >> 24) & 0xFF] ^ t[3][(b >> 32) & 0xFF] ^
          t[2][(b >> 40) & 0xFF] ^ t[1][(b >> 48) & 0xFF] ^ t[0][b >> 56];
  }
  if (len >= 8) {
    const uint64_t a = LoadLe64(data) ^ crc;
    crc = t[7][a & 0xFF] ^ t[6][(a >> 8) & 0xFF] ^ t[5][(a >> 16) & 0xFF] ^
          t[4][(a >> 24) & 0xFF] ^ t[3][(a >> 32) & 0xFF] ^
          t[2][(a >> 40) & 0xFF] ^ t[1][(a >> 48) & 0xFF] ^ t[0][a >> 56];
    data += 8;
    len -= 8;
  }
  for (; len > 0; ++data, --len) crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  return crc;
}

}  // namespace internal_crc

PackedInts PackedInts::Pack(const int64_t* data, size_t n) {
  PackedInts out;
  out.count = n;
  if (n == 0) return out;
  int64_t lo = data[0];
  for (size_t i = 1; i < n; ++i) lo = std::min(lo, data[i]);
  out.base = lo;
  uint64_t max_delta = 0;
  for (size_t i = 0; i < n; ++i) {
    // Wrapping subtraction in unsigned space is exact for two's
    // complement: delta = data[i] - lo fits uint64 for any int64 pair.
    const uint64_t delta =
        static_cast<uint64_t>(data[i]) - static_cast<uint64_t>(lo);
    max_delta = std::max(max_delta, delta);
  }
  out.max_delta = max_delta;
  out.bit_width = BitsFor(max_delta);
  if (out.bit_width == 0) return out;  // all values equal base
  out.words.assign(WordsFor(n, out.bit_width), 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t delta =
        static_cast<uint64_t>(data[i]) - static_cast<uint64_t>(lo);
    const size_t bit = i * out.bit_width;
    const size_t word = bit >> 6;
    const size_t shift = bit & 63;
    out.words[word] |= delta << shift;
    if (shift + out.bit_width > 64) {
      out.words[word + 1] |= delta >> (64 - shift);
    }
  }
  return out;
}

template <typename Writer>
void PackedInts::Serialize(Writer& out) const {
  out.WriteI64(base);
  out.WriteU32(bit_width);
  out.WriteU64(count);
  out.WriteU64(max_delta);
  out.WriteU64(words.size());
  for (const uint64_t w : words) out.WriteU64(w);
}

Result<PackedInts> PackedInts::Deserialize(BufferReader& in) {
  PackedInts out;
  FUNGUSDB_ASSIGN_OR_RETURN(out.base, in.ReadI64());
  FUNGUSDB_ASSIGN_OR_RETURN(out.bit_width, in.ReadU32());
  FUNGUSDB_ASSIGN_OR_RETURN(out.count, in.ReadU64());
  FUNGUSDB_ASSIGN_OR_RETURN(out.max_delta, in.ReadU64());
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t num_words, in.ReadU64());
  if (out.bit_width > 64) {
    return Status::ParseError("packed ints: bit width over 64");
  }
  if (out.count > kMaxCount) {
    return Status::ParseError("packed ints: implausible count");
  }
  if (out.bit_width < 64 && (out.max_delta >> out.bit_width) != 0) {
    return Status::ParseError("packed ints: max delta exceeds bit width");
  }
  if (num_words != WordsFor(out.count, out.bit_width)) {
    return Status::ParseError("packed ints: word count mismatch");
  }
  out.words.reserve(num_words);
  for (uint64_t i = 0; i < num_words; ++i) {
    FUNGUSDB_ASSIGN_OR_RETURN(uint64_t w, in.ReadU64());
    out.words.push_back(w);
  }
  return out;
}

namespace {

template <typename V, typename Writer, typename WriteFn>
void SerializeRle(const RleRuns<V>& rle, Writer& out, WriteFn&& write_value) {
  out.WriteU64(rle.values.size());
  for (size_t i = 0; i < rle.values.size(); ++i) {
    write_value(rle.values[i]);
    out.WriteU64(rle.ends[i]);
  }
}

template <typename V, typename ReadFn>
Result<RleRuns<V>> DeserializeRle(BufferReader& in, ReadFn&& read_value) {
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t runs, in.ReadU64());
  if (runs > kMaxCount) {
    return Status::ParseError("rle: implausible run count");
  }
  RleRuns<V> out;
  out.values.reserve(runs);
  out.ends.reserve(runs);
  uint64_t prev_end = 0;
  for (uint64_t i = 0; i < runs; ++i) {
    FUNGUSDB_ASSIGN_OR_RETURN(V value, read_value());
    FUNGUSDB_ASSIGN_OR_RETURN(uint64_t end, in.ReadU64());
    if (end <= prev_end || end > kMaxCount) {
      return Status::ParseError("rle: run ends not strictly ascending");
    }
    // Adjacent runs with equal values would be a non-canonical encoding:
    // Pack never emits them, and canonical bytes are what the per-block
    // checksum covers.
    if (i > 0 && out.values.back() == value) {
      return Status::ParseError("rle: adjacent runs share a value");
    }
    out.values.push_back(value);
    out.ends.push_back(end);
    prev_end = end;
  }
  return out;
}

}  // namespace

template <typename Writer>
void SerializeRleBytes(const RleBytes& rle, Writer& out) {
  SerializeRle(rle, out, [&](uint8_t v) { out.WriteU8(v); });
}

Result<RleBytes> DeserializeRleBytes(BufferReader& in) {
  return DeserializeRle<uint8_t>(in, [&] { return in.ReadU8(); });
}

template <typename Writer>
void SerializeRleCodes(const RleCodes& rle, Writer& out) {
  SerializeRle(rle, out, [&](uint32_t v) { out.WriteU32(v); });
}

Result<RleCodes> DeserializeRleCodes(BufferReader& in) {
  return DeserializeRle<uint32_t>(in, [&] { return in.ReadU32(); });
}

DictStrings DictStrings::Pack(const std::vector<std::string>& data) {
  DictStrings out;
  std::unordered_map<std::string, uint32_t> index;
  std::vector<uint32_t> stream;
  stream.reserve(data.size());
  for (const std::string& s : data) {
    auto [it, inserted] =
        index.emplace(s, static_cast<uint32_t>(out.dict.size()));
    if (inserted) out.dict.push_back(s);
    stream.push_back(it->second);
  }
  out.codes = RleCodes::Pack(stream.data(), stream.size());
  return out;
}

template <typename Writer>
void DictStrings::Serialize(Writer& out) const {
  out.WriteU64(dict.size());
  for (const std::string& s : dict) out.WriteString(s);
  SerializeRleCodes(codes, out);
}

Result<DictStrings> DictStrings::Deserialize(BufferReader& in) {
  DictStrings out;
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t dict_size, in.ReadU64());
  if (dict_size > kMaxCount) {
    return Status::ParseError("dict: implausible dictionary size");
  }
  out.dict.reserve(dict_size);
  for (uint64_t i = 0; i < dict_size; ++i) {
    FUNGUSDB_ASSIGN_OR_RETURN(std::string s, in.ReadString());
    out.dict.push_back(std::move(s));
  }
  FUNGUSDB_ASSIGN_OR_RETURN(out.codes, DeserializeRleCodes(in));
  for (const uint32_t code : out.codes.values) {
    if (code >= out.dict.size()) {
      return Status::ParseError("dict: code out of dictionary range");
    }
  }
  return out;
}

// The two writers every serializer runs over: bytes for snapshots and
// tests, a running CRC for block checksums.
template void PackedInts::Serialize(BufferWriter&) const;
template void PackedInts::Serialize(Crc32Writer&) const;
template void SerializeRleBytes(const RleBytes&, BufferWriter&);
template void SerializeRleBytes(const RleBytes&, Crc32Writer&);
template void SerializeRleCodes(const RleCodes&, BufferWriter&);
template void SerializeRleCodes(const RleCodes&, Crc32Writer&);
template void DictStrings::Serialize(BufferWriter&) const;
template void DictStrings::Serialize(Crc32Writer&) const;

}  // namespace fungusdb::encode

#ifndef FUNGUSDB_STORAGE_ENCODE_ENCODING_H_
#define FUNGUSDB_STORAGE_ENCODE_ENCODING_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer_io.h"
#include "common/result.h"

/// Cold-tier encodings for frozen segments (DESIGN.md §15). Every codec
/// here is lossless and position-addressable: `Get(i)` reproduces the
/// exact bits the plain vector held, so a freeze/thaw round trip is
/// observationally invisible. Serialization goes through
/// BufferWriter/BufferReader (bounds-checked, no raw framing) and doubles
/// as the snapshot-v3 block format.
namespace fungusdb::encode {

namespace internal_crc {

/// Slicing tables for CRC-32 (IEEE 802.3, reflected polynomial
/// 0xEDB88320): `t[0]` is the classic bytewise table, and `t[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes. Independent lookups,
/// one per byte of a 4-, 8- or 16-byte block, advance the CRC by the
/// whole block in one dependent step instead of one per byte.
struct Tables {
  uint32_t t[16][256];
};

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables.t[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; ++n) {
    for (int k = 1; k < 16; ++k) {
      const uint32_t prev = tables.t[k - 1][n];
      tables.t[k][n] = (prev >> 8) ^ tables.t[0][prev & 0xFF];
    }
  }
  return tables;
}

inline constexpr Tables kTables = MakeTables();

/// The reflected CRC register `crc` (not yet inverted) advanced over
/// `data[0, len)`: sixteen bytes per step, then eight, then bytewise.
uint32_t Update(uint32_t crc, const uint8_t* data, size_t len);

}  // namespace internal_crc

/// The running CRC-32 of the bytes a BufferWriter would hold, without
/// keeping them. It has BufferWriter's Write* methods, so a serializer
/// templated over its writer (FrozenSegment::Serialize) checksums its
/// canonical bytes in one streaming pass, with one definition of the
/// bytes for both. A fixed-width field advances the CRC in one slicing
/// step on its little-endian value (BufferWriter's layout), so nothing
/// is staged in memory.
class Crc32Writer {
 public:
  void WriteU8(uint8_t v) {
    crc_ = internal_crc::kTables.t[0][(crc_ ^ v) & 0xFF] ^ (crc_ >> 8);
  }
  void WriteU32(uint32_t v) {
    const uint32_t x = crc_ ^ v;
    const auto& t = internal_crc::kTables.t;
    crc_ = t[3][x & 0xFF] ^ t[2][(x >> 8) & 0xFF] ^ t[1][(x >> 16) & 0xFF] ^
           t[0][x >> 24];
  }
  void WriteU64(uint64_t v) {
    const uint64_t x = crc_ ^ v;
    const auto& t = internal_crc::kTables.t;
    crc_ = t[7][x & 0xFF] ^ t[6][(x >> 8) & 0xFF] ^ t[5][(x >> 16) & 0xFF] ^
           t[4][(x >> 24) & 0xFF] ^ t[3][(x >> 32) & 0xFF] ^
           t[2][(x >> 40) & 0xFF] ^ t[1][(x >> 48) & 0xFF] ^ t[0][x >> 56];
  }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v) { WriteU64(std::bit_cast<uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// Length-prefixed (u64) byte string, as BufferWriter::WriteString.
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    crc_ = internal_crc::Update(
        crc_, reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// CRC-32 of every byte written so far.
  uint32_t checksum() const { return crc_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t crc_ = 0xFFFFFFFFu;
};

static_assert(std::endian::native == std::endian::little,
              "Crc32Writer mirrors BufferWriter's little-endian layout");

/// CRC-32 (IEEE 802.3, reflected) over a byte span. Used as the
/// per-block integrity checksum for encoded segments, both in memory
/// (the `encoded-segment` fsck rule re-derives it) and on disk
/// (snapshot v3 verifies each block before decoding).
inline uint32_t Crc32(const uint8_t* data, size_t len) {
  return internal_crc::Update(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

inline uint32_t Crc32(std::string_view bytes) {
  return Crc32(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

/// Frame-of-reference + bit-packing for int64 spans (`__ts`, int64 and
/// timestamp columns): stores `min` once and each value's delta from it
/// in exactly `bit_width` bits, little-endian within 64-bit words.
/// Random access is O(1) — a delta spans at most two words.
struct PackedInts {
  int64_t base = 0;
  uint32_t bit_width = 0;  // bits per delta, 0 when all values equal base
  uint64_t count = 0;
  uint64_t max_delta = 0;  // largest stored delta; must fit bit_width
  std::vector<uint64_t> words;

  static PackedInts Pack(const int64_t* data, size_t n);

  int64_t Get(size_t i) const {
    assert(i < count);
    return Extract(i * bit_width);
  }

  void Decode(size_t begin, size_t n, int64_t* out) const {
    assert(begin + n <= count);
    size_t bit = begin * bit_width;
    for (size_t i = 0; i < n; ++i, bit += bit_width) out[i] = Extract(bit);
  }

  /// The value whose delta starts at bit `bit` of `words`: the one
  /// definition of the packing layout that Get and Decode share.
  int64_t Extract(size_t bit) const {
    if (bit_width == 0) return base;
    const size_t word = bit >> 6;
    const size_t shift = bit & 63;
    uint64_t delta = words[word] >> shift;
    if (shift + bit_width > 64) {
      delta |= words[word + 1] << (64 - shift);
    }
    if (bit_width < 64) delta &= (uint64_t{1} << bit_width) - 1;
    return static_cast<int64_t>(static_cast<uint64_t>(base) + delta);
  }

  /// Writes the canonical bytes to a BufferWriter or a Crc32Writer.
  template <typename Writer>
  void Serialize(Writer& out) const;
  static Result<PackedInts> Deserialize(BufferReader& in);

  /// Heap bytes; the owner counts sizeof(PackedInts).
  size_t HeapBytes() const { return words.capacity() * sizeof(uint64_t); }

  /// Words a well-formed encoding of `count` deltas occupies.
  static uint64_t WordsFor(uint64_t count, uint32_t bit_width) {
    return (count * bit_width + 63) / 64;
  }
};

/// Run-length encoding over a value type with O(log runs) random access
/// via cumulative run ends. The workhorse for the liveness vector,
/// validity bitmaps, bool columns (V = uint8_t) and dictionary code
/// streams (V = uint32_t) — all of which are long constant runs on cold
/// data.
template <typename V>
struct RleRuns {
  std::vector<V> values;       // one entry per run
  std::vector<uint64_t> ends;  // cumulative exclusive ends, ascending

  uint64_t count() const { return ends.empty() ? 0 : ends.back(); }

  static RleRuns Pack(const V* data, size_t n) {
    RleRuns out;
    // Count the runs first: one compare per element buys exact-size
    // vectors instead of a doubling series of reallocations.
    size_t runs = n > 0 ? 1 : 0;
    for (size_t k = 1; k < n; ++k) runs += data[k] != data[k - 1] ? 1 : 0;
    out.values.reserve(runs);
    out.ends.reserve(runs);
    size_t i = 0;
    while (i < n) {
      size_t j = i + 1;
      while (j < n && data[j] == data[i]) ++j;
      out.values.push_back(data[i]);
      out.ends.push_back(j);
      i = j;
    }
    return out;
  }

  /// Index of the run containing position `i`.
  size_t RunOf(size_t i) const {
    assert(i < count());
    size_t lo = 0;
    size_t hi = ends.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (ends[mid] <= i) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  V Get(size_t i) const { return values[RunOf(i)]; }

  void Decode(size_t begin, size_t n, V* out) const {
    assert(begin + n <= count());
    size_t run = RunOf(begin);
    size_t pos = begin;
    size_t emitted = 0;
    while (emitted < n) {
      const size_t run_end = ends[run];
      while (pos < run_end && emitted < n) {
        out[emitted++] = values[run];
        ++pos;
      }
      ++run;
    }
  }

  /// True when any position in [begin, begin + n) holds a value other
  /// than V{} (e.g. any live row in an alive vector). O(runs touched).
  bool AnyNonZero(size_t begin, size_t n) const {
    if (n == 0) return false;
    assert(begin + n <= count());
    size_t run = RunOf(begin);
    const size_t limit = begin + n;
    size_t pos = begin;
    while (pos < limit) {
      if (values[run] != V{}) return true;
      pos = ends[run];
      ++run;
    }
    return false;
  }

  /// Heap bytes; the owner counts sizeof(RleRuns).
  size_t HeapBytes() const {
    return values.capacity() * sizeof(V) +
           ends.capacity() * sizeof(uint64_t);
  }
};

using RleBytes = RleRuns<uint8_t>;
using RleCodes = RleRuns<uint32_t>;

template <typename Writer>
void SerializeRleBytes(const RleBytes& rle, Writer& out);
Result<RleBytes> DeserializeRleBytes(BufferReader& in);
template <typename Writer>
void SerializeRleCodes(const RleCodes& rle, Writer& out);
Result<RleCodes> DeserializeRleCodes(BufferReader& in);

/// Dictionary + RLE for string columns: unique payloads in
/// first-appearance order, the per-row code stream run-length encoded.
/// Null rows code the "" dictionary entry — the validity bitmap, kept
/// by the enclosing column, is what distinguishes them. The plain tier
/// (StringColumn) keeps the same dictionary and codes unpacked, so
/// freezing packs its code runs and Pack is the reference it matches.
struct DictStrings {
  std::vector<std::string> dict;
  RleCodes codes;

  static DictStrings Pack(const std::vector<std::string>& data);

  uint64_t count() const { return codes.count(); }

  const std::string& Get(size_t i) const { return dict[codes.Get(i)]; }

  template <typename Writer>
  void Serialize(Writer& out) const;
  static Result<DictStrings> Deserialize(BufferReader& in);

  /// Heap bytes; the owner counts sizeof(DictStrings).
  size_t HeapBytes() const {
    size_t bytes = codes.HeapBytes() + dict.capacity() * sizeof(std::string);
    for (const std::string& s : dict) bytes += s.capacity();
    return bytes;
  }
};

}  // namespace fungusdb::encode

#endif  // FUNGUSDB_STORAGE_ENCODE_ENCODING_H_

#ifndef FUNGUSDB_STORAGE_ENCODE_ENCODING_H_
#define FUNGUSDB_STORAGE_ENCODE_ENCODING_H_

#include <cassert>
#include <cstdint>
#include <string>
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

/// CRC-32 (IEEE 802.3, reflected) over a byte span. Used as the
/// per-block integrity checksum for encoded segments, both in memory
/// (the `encoded-segment` fsck rule re-derives it) and on disk
/// (snapshot v3 verifies each block before decoding).
uint32_t Crc32(const uint8_t* data, size_t len);

inline uint32_t Crc32(const std::string& bytes) {
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
    if (bit_width == 0) return base;
    const size_t bit = i * bit_width;
    const size_t word = bit >> 6;
    const size_t shift = bit & 63;
    uint64_t delta = words[word] >> shift;
    if (shift + bit_width > 64) {
      delta |= words[word + 1] << (64 - shift);
    }
    if (bit_width < 64) delta &= (uint64_t{1} << bit_width) - 1;
    return static_cast<int64_t>(static_cast<uint64_t>(base) + delta);
  }

  void Decode(size_t begin, size_t n, int64_t* out) const {
    assert(begin + n <= count);
    for (size_t i = 0; i < n; ++i) out[i] = Get(begin + i);
  }

  void Serialize(BufferWriter& out) const;
  static Result<PackedInts> Deserialize(BufferReader& in);

  size_t MemoryUsage() const {
    return words.capacity() * sizeof(uint64_t) + sizeof(PackedInts);
  }

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
  size_t num_runs() const { return values.size(); }

  static RleRuns Pack(const V* data, size_t n) {
    RleRuns out;
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

  size_t MemoryUsage() const {
    return values.capacity() * sizeof(V) +
           ends.capacity() * sizeof(uint64_t) + sizeof(RleRuns);
  }
};

using RleBytes = RleRuns<uint8_t>;
using RleCodes = RleRuns<uint32_t>;

void SerializeRleBytes(const RleBytes& rle, BufferWriter& out);
Result<RleBytes> DeserializeRleBytes(BufferReader& in);
void SerializeRleCodes(const RleCodes& rle, BufferWriter& out);
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

  void Serialize(BufferWriter& out) const;
  static Result<DictStrings> Deserialize(BufferReader& in);

  size_t MemoryUsage() const {
    size_t bytes = sizeof(DictStrings) + codes.MemoryUsage();
    for (const std::string& s : dict) bytes += s.capacity() + sizeof(s);
    return bytes;
  }
};

}  // namespace fungusdb::encode

#endif  // FUNGUSDB_STORAGE_ENCODE_ENCODING_H_

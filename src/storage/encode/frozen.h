#ifndef FUNGUSDB_STORAGE_ENCODE_FROZEN_H_
#define FUNGUSDB_STORAGE_ENCODE_FROZEN_H_

#include <cstdint>
#include <vector>

#include "common/buffer_io.h"
#include "common/result.h"
#include "storage/datatype.h"
#include "storage/encode/encoding.h"

namespace fungusdb::encode {

/// One user column of a frozen segment: a validity bitmap (RLE) plus a
/// type-specific payload holding the raw cell values — including the
/// `T{}` slots null cells store in the plain representation, so a thaw
/// reproduces the plain column bit for bit.
struct FrozenColumn {
  DataType type = DataType::kInt64;
  uint64_t null_count = 0;
  RleBytes validity;  // 1 = valid cell, 0 = null

  // Exactly one payload is populated, selected by `type`.
  PackedInts ints;              // kInt64 / kTimestamp: FOR + bit-packing
  std::vector<double> doubles;  // kFloat64: raw passthrough
  DictStrings strings;          // kString: dictionary + RLE codes
  RleBytes bools;               // kBool: RLE

  /// Heap bytes the plain TypedColumn held at freeze time — the
  /// numerator of the per-column compression ratio bench_t1 reports.
  uint64_t plain_bytes = 0;

  bool IsNull(size_t off) const { return validity.Get(off) == 0; }

  /// Heap bytes; the owner counts sizeof(FrozenColumn).
  size_t HeapBytes() const;
  void Serialize(BufferWriter& out) const;
  static Result<FrozenColumn> Deserialize(BufferReader& in,
                                          uint64_t num_rows);
};

/// The compact cold-tier image of a full segment (DESIGN.md §15):
/// FOR-packed insertion timestamps, a uniform-value fast path for the
/// freshness vector (lazy decay keeps cold segments' live freshness
/// uniform), RLE liveness, and one FrozenColumn per user column. The
/// canonical `Serialize` byte stream doubles as the snapshot-v3 block
/// payload; `checksum` is its CRC-32, re-derived by the
/// `encoded-segment` fsck rule to catch in-memory corruption.
struct FrozenSegment {
  uint64_t num_rows = 0;
  PackedInts ts;

  /// Every live row stores the same freshness (`uniform_value`); dead
  /// rows store exactly 0.0 by the storage invariant, so liveness alone
  /// reconstructs the vector. When the segment's live freshness is not
  /// uniform, `freshness_raw` keeps the full vector instead.
  bool uniform_freshness = true;
  double uniform_value = 0.0;
  std::vector<double> freshness_raw;  // empty when uniform

  RleBytes alive;  // 1 = live
  std::vector<FrozenColumn> columns;

  /// Total heap bytes of the plain representation at freeze time.
  uint64_t plain_bytes = 0;

  /// CRC-32 of the canonical Serialize() bytes. Maintained in memory
  /// (recomputed when pending decay materializes in place); not part of
  /// the serialized payload itself.
  uint32_t checksum = 0;

  bool IsLive(size_t off) const { return alive.Get(off) != 0; }

  double StoredFreshness(size_t off) const {
    if (alive.Get(off) == 0) return 0.0;
    return uniform_freshness ? uniform_value : freshness_raw[off];
  }

  /// sizeof(FrozenSegment) plus every heap byte it owns, each counted
  /// once.
  size_t MemoryUsage() const;

  /// Canonical payload bytes (checksum excluded).
  void Serialize(BufferWriter& out) const;
  static Result<FrozenSegment> Deserialize(BufferReader& in);

  /// CRC-32 of the current canonical payload.
  uint32_t ComputeChecksum() const;
};

}  // namespace fungusdb::encode

#endif  // FUNGUSDB_STORAGE_ENCODE_FROZEN_H_

#ifndef FUNGUSDB_VERIFY_CORRUPTOR_H_
#define FUNGUSDB_VERIFY_CORRUPTOR_H_

#include <cstdint>

#include "common/status.h"
#include "storage/table.h"

namespace fungusdb {

/// Deliberately breaks storage invariants, bypassing every guard the
/// normal mutators enforce. This is the seeder behind the fsck test
/// fixtures and `funguscheck` demos: each method plants exactly the
/// corruption one invariant-checker rule exists to catch, so tests can
/// assert detection with precise coordinates. Friend of Table and
/// Segment; never use it outside tests and verification tooling.
class TestCorruptor {
 public:
  /// Writes `raw` straight into the freshness vector of a live row —
  /// no clamping, no kill at zero. Caught by `freshness-range`.
  static Status CorruptFreshness(Table& table, RowId row, double raw);

  /// Flips a dead row's alive flag back on, leaving its freshness at 0
  /// and all counters stale. Caught by `resurrected-row` (row-precise)
  /// plus the live-count accounting rules.
  static Status ResurrectRow(Table& table, RowId row);

  /// Adds one to the table's live-row counter without touching any
  /// segment. Caught by `live-count` and `row-accounting`.
  static void MiscountLiveRows(Table& table);

  /// Appends a phantom null cell to one user column so its length no
  /// longer matches the segment's row count. Caught by `column-length`.
  static Status OverfillColumn(Table& table, uint64_t seg_no, size_t col);

  /// Stales the segment's zone map: narrows the insertion-time bounds
  /// past the stored rows so the pruning planner would wrongly skip the
  /// segment. Requires a non-empty segment. Caught by `zone-map-bounds`.
  static Status StaleZoneMap(Table& table, uint64_t seg_no);

  /// Flips a low bit of a frozen segment's encoded timestamp block
  /// (the packed words, or the frame base when the span packs to zero
  /// width) without refreshing the block checksum — the in-memory
  /// image no longer hashes to what freeze recorded. Requires a frozen
  /// segment. Caught by `encoded-segment` (checksum arm).
  static Status CorruptFrozenChecksum(Table& table, uint64_t seg_no);

  /// Rewrites the first dictionary-code run of a frozen string column
  /// to a code one past the dictionary, then refreshes the checksum so
  /// only the range violation remains. Requires a frozen segment and a
  /// string column at `col`. Caught by `encoded-segment` (dictionary
  /// arm).
  static Status CorruptFrozenDictionaryCode(Table& table, uint64_t seg_no,
                                            size_t col);

  /// Drops the last dictionary-code run of a frozen string column, so
  /// its code stream spans fewer rows than the segment, then refreshes
  /// the checksum. Requires a frozen segment and a string column at
  /// `col`. Caught by `encoded-segment` (span arm).
  static Status TruncateFrozenStringCodes(Table& table, uint64_t seg_no,
                                          size_t col);

  /// Which arm of the `string-dictionary` rule CorruptStringDictionary
  /// trips.
  enum class DictionaryDamage {
    kCodeOutOfRange,  // the first cell's code set one past the dictionary
    kDuplicateEntry,  // the last cell repointed at a copy of its payload
    kNullNotEmpty,    // the first null cell repointed at a non-"" payload
  };

  /// Breaks the dictionary coding of plain string column `col` of a
  /// segment, bypassing the append index. Requires a plain segment with
  /// rows, a string column at `col` and, for kNullNotEmpty, a null cell
  /// in it. Caught by `string-dictionary`.
  static Status CorruptStringDictionary(Table& table, uint64_t seg_no,
                                        size_t col, DictionaryDamage damage);

  /// Folds a pending decrement large enough to drive the segment's
  /// effective freshness floor below zero — the deferred death a
  /// correct fold can never produce — and stamps a decay epoch ahead
  /// of the table's tick counter. Requires a live row in the segment.
  /// Caught by `decay-epoch` (both the epoch-ordering and the
  /// deferred-death arm).
  static Status CorruptPendingDecay(Table& table, uint64_t seg_no);
};

}  // namespace fungusdb

#endif  // FUNGUSDB_VERIFY_CORRUPTOR_H_

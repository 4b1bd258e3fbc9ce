#ifndef FUNGUSDB_STORAGE_TABLE_H_
#define FUNGUSDB_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "storage/schema.h"
#include "storage/segment.h"
#include "storage/value.h"

namespace fungusdb {

/// Globally-unique, never-reused tuple identifier: the position of the
/// tuple in the table's append sequence. Row ids are totally ordered by
/// insertion time — the paper's time axis — so "direct neighbouring
/// tuples" (EGI) are exactly adjacent row ids.
using RowId = uint64_t;

struct TableOptions {
  /// Tuples per segment; segments are the unit of space reclamation.
  size_t rows_per_segment = 4096;

  /// Maintain a per-tuple access counter (needed by ImportanceFungus).
  bool track_access = false;

  /// Fold provably-uniform decay ticks into per-segment pending
  /// decrements instead of rewriting rows (DESIGN.md §14). Observable
  /// state is bit-identical either way — this is purely an execution
  /// strategy, so it is a runtime knob, NOT serialized in snapshots or
  /// the journal. Off exists for differential testing and bisection.
  bool lazy_decay = true;

  /// Freeze a full segment into the compact encoded cold tier once this
  /// many decay ticks pass without a mutating touch (DESIGN.md §15).
  /// 0 disables freezing. Like lazy_decay this is purely a
  /// representation strategy — observable state is bit-identical with
  /// freezing on or off — so it is a runtime knob, NOT serialized.
  /// Ignored when track_access is set (hot access counters pin the
  /// plain representation).
  uint64_t freeze_after_idle_ticks = 0;
};

/// Point-in-time storage-tier accounting for one table. Reported by
/// `\storage`, the rot report and the fungusdb.storage.* metrics.
struct StorageStats {
  uint64_t total_segments = 0;
  uint64_t frozen_segments = 0;
  /// Heap bytes the frozen segments hold now (encoded form).
  uint64_t encoded_bytes = 0;
  /// Heap bytes the same segments held in plain form at freeze time.
  uint64_t plain_bytes_before = 0;
  /// Cumulative freeze / mutating-touch-thaw counts.
  uint64_t segments_frozen_total = 0;
  uint64_t thaw_count = 0;
};

/// The paper's relation R(t, f, A1..An): an append-only, insertion-ordered
/// columnar table whose tuples carry an insertion timestamp `t` and a
/// freshness `f` in (0, 1]. Fungi decrease freshness; a tuple whose
/// freshness reaches 0 is discarded (tombstoned, and its segment freed
/// once fully dead).
///
/// The table owns its segments in one map ordered by segment number
/// (== time order), which serves RowId routing, time-axis iteration and
/// persistence alike, and keeps the live / killed / lazy-decay / tier
/// counters beside it.
///
/// Threading contract: every mutator runs on the writer thread inside
/// its exclusive epoch section (core/epoch.h); nothing mutates a table
/// concurrently.
///
/// Snapshot-read visibility: the table itself carries no versioning —
/// concurrent readers (core/session.h) are made safe purely by the
/// epoch scheme in core/epoch.h. The single writer mutates only inside
/// an exclusive write section, and every tick-shaped unit of mutation
/// ends with an epoch publication; a reader's pin excludes the writer
/// for the pin's duration, so any traversal of segments, tombstones and
/// freshness values under one pin observes one published epoch — never
/// a half-applied tick. Code reading table state off the writer thread
/// without a pin is a bug, whatever race detectors say.
class Table {
 public:
  Table(std::string name, Schema schema, TableOptions options = {});

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const TableOptions& options() const { return options_; }

  /// Adjusts the freeze-after-idle runtime knob post-construction
  /// (0 disables freezing). Writer-thread-only, like every structural
  /// mutation; takes effect on the next decay tick.
  void set_freeze_after_idle_ticks(uint64_t ticks) {
    options_.freeze_after_idle_ticks = ticks;
  }

  /// Appends one tuple with insertion time `now` and freshness 1.0.
  /// Validates arity, types, and nullability against the schema.
  Result<RowId> Append(const std::vector<Value>& values, Timestamp now);

  /// Total tuples ever appended (== next RowId).
  uint64_t total_appended() const { return next_row_; }

  /// Currently live tuples — the extent of R.
  uint64_t live_rows() const { return live_rows_; }

  /// Tuples discarded so far (by fungi or consuming queries).
  uint64_t rows_killed() const { return rows_killed_; }

  /// True if the row id was appended and its segment still exists.
  bool Contains(RowId row) const;

  /// True if the tuple exists and has freshness > 0.
  bool IsLive(RowId row) const;

  /// Freshness in [0, 1]; 0 for dead or reclaimed tuples.
  double Freshness(RowId row) const;

  /// Sets freshness (clamped to [0, 1]); freshness 0 discards the tuple.
  Status SetFreshness(RowId row, double f);

  /// Decreases freshness by `delta` (>= 0); discards at 0.
  Status DecayFreshness(RowId row, double delta);

  /// Discards the tuple immediately (consuming queries, retention).
  Status Kill(RowId row);

  /// Kill / DecayFreshness on every live row of segment `seg_no` in one
  /// call, with exactly their results (freshness, liveness, counters,
  /// thaw and materialization accounting) but one segment lookup, at
  /// most one thaw and one materialization. Rows that died are appended
  /// to `killed` in insertion order. Return the live rows touched; a
  /// segment with none (or absent) is left untouched. DecaySegment's
  /// `delta` is >= 0.
  uint64_t KillSegment(uint64_t seg_no, std::vector<RowId>* killed);
  uint64_t DecaySegment(uint64_t seg_no, double delta,
                        std::vector<RowId>* killed);

  /// Insertion time `t`. Fails on reclaimed rows.
  Result<Timestamp> InsertTime(RowId row) const;

  /// Cell accessor for user column `col`. Works on live and dead (but
  /// not reclaimed) tuples; fungi never alter attribute values.
  Result<Value> GetValue(RowId row, size_t col) const;

  /// Accessor by column name; also resolves `__ts` and `__freshness`.
  Result<Value> GetValueByName(RowId row, const std::string& name) const;

  /// Oldest / newest live tuple, if any.
  std::optional<RowId> OldestLive() const;
  std::optional<RowId> NewestLive() const;

  /// Nearest live neighbour along the time axis, if any.
  std::optional<RowId> PrevLive(RowId row) const;
  std::optional<RowId> NextLive(RowId row) const;

  /// Calls fn(RowId) for every live tuple in insertion order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const auto& [seg_no, seg] : segments_) {
      if (seg->live_count() == 0) continue;
      const size_t n = seg->num_rows();
      for (size_t off = 0; off < n; ++off) {
        if (seg->IsLive(off)) fn(seg->first_row() + off);
      }
    }
  }

  /// Calls fn(const Segment&) for every segment holding at least one
  /// live tuple, in insertion order. The fast scan path in the query
  /// engine uses this to read typed columns directly instead of going
  /// through per-row id resolution.
  template <typename Fn>
  void ForEachLiveSegment(Fn&& fn) const {
    for (const auto& [seg_no, seg] : segments_) {
      if (seg->live_count() == 0) continue;
      fn(static_cast<const Segment&>(*seg));
    }
  }

  /// Segments with at least one live tuple, in insertion order — the
  /// morsel list for parallel scans. Pointers stay valid until the next
  /// structural mutation (Append / reclamation).
  std::vector<const Segment*> LiveSegments() const;

  /// Materializes the live row ids in insertion order.
  std::vector<RowId> LiveRows() const;

  /// Bumps the access counter (no-op unless options().track_access).
  void RecordAccess(RowId row);
  uint32_t AccessCount(RowId row) const;

  /// Frees full segments with zero live tuples. Returns segments freed.
  /// This is FungusDB's compaction: reclaimed rows stop counting toward
  /// MemoryUsage() and Contains() becomes false for them.
  uint64_t ReclaimDeadSegments();

  /// Recomputes every segment's zone map exactly (O(rows)); tightens
  /// bounds that incremental widening left loose (snapshot/journal
  /// load). Materializes pending decay first — a recount must describe
  /// what rows actually hold — and counts as a mutating touch.
  void RecomputeZoneMaps();

  /// Number of segments currently held (live or partially dead).
  size_t num_segments() const { return segments_.size(); }

  // --- Lazy decay (DESIGN.md §14). ---

  /// Advances the table's tick epoch. Called by the scheduler once per
  /// decay tick over this table, before the fungus runs; folds stamp
  /// the advanced value into the segments they cover.
  void AdvanceDecayEpoch() { ++decay_epoch_; }

  /// Ticks folded or accounted so far (every segment's decay_epoch is
  /// <= this — the `decay-epoch` fsck rule).
  uint64_t decay_epoch() const { return decay_epoch_; }

  /// Folds `delta` as a uniform decrement over segment `seg_no` when
  /// lazy decay is enabled and the segment proves it safe (see
  /// Segment::CanFoldUniformDecay). Returns whether it folded; on false
  /// the caller decays row by row.
  bool TryFoldUniformDecay(uint64_t seg_no, double delta);

  /// Applies all pending decrements everywhere (snapshot write, tests).
  /// Returns live rows rewritten.
  size_t MaterializePendingDecay();

  /// Cumulative live-row rewrites performed by lazy materialization
  /// (the price actually paid for deferred ticks).
  uint64_t rows_materialized() const { return rows_materialized_; }

  // --- Tiered storage (DESIGN.md §15). ---

  /// Freezes cold full segments into the encoded tier, oldest first. A
  /// segment is cold when at least `min_idle_epochs` ticks passed since
  /// its last mutating touch (append, per-row write, thaw — uniform
  /// folds do not reset the clock). At most `max_segments` freeze per
  /// call (the bench uses the cap to build exact frozen fractions).
  /// Returns segments frozen.
  size_t FreezeColdSegments(uint64_t min_idle_epochs,
                            size_t max_segments = SIZE_MAX);

  /// Current + cumulative tier accounting.
  StorageStats GetStorageStats() const;

  /// Heap bytes held by all current segments.
  size_t MemoryUsage() const;

  /// The segments, keyed and ordered by segment number (first_row /
  /// rows_per_segment, so iteration is insertion order and reclaimed
  /// ranges are simply absent). For persistence and verification
  /// walkers; regular callers use the iteration helpers above.
  const std::map<uint64_t, std::unique_ptr<Segment>>& segments() const {
    return segments_;
  }

 private:
  // Seeds deliberate corruption for fsck tests (verify/corruptor.h).
  friend class TestCorruptor;

  /// Segment holding `row`, with its offset, or nullptr if reclaimed
  /// or out of range.
  Segment* FindSegment(RowId row, size_t* offset) const;

  /// Thaws `seg` if frozen and stamps the touch epoch either way, then
  /// applies its pending decrements (a per-row write works in stored
  /// space) — the prologue of every mutator.
  void TouchForWrite(Segment* seg);

  /// Live segment `seg_no` after TouchForWrite, or nullptr when it is
  /// absent or holds no live row (nothing to touch).
  Segment* TouchLiveSegment(uint64_t seg_no);

  /// FindSegment, then TouchForWrite on the segment found.
  Segment* TouchRow(RowId row, size_t* offset);

  /// Counts rows a mutator killed.
  void NoteKilled(uint64_t rows) {
    live_rows_ -= rows;
    rows_killed_ += rows;
  }

  std::string name_;
  Schema schema_;
  TableOptions options_;
  std::map<uint64_t, std::unique_ptr<Segment>> segments_;
  RowId next_row_ = 0;
  uint64_t live_rows_ = 0;
  uint64_t rows_killed_ = 0;
  // Tick counter for lazy decay: advanced once per decay tick; folds
  // stamp it into segments.
  uint64_t decay_epoch_ = 0;
  uint64_t rows_materialized_ = 0;
  uint64_t segments_frozen_ = 0;
  uint64_t thaw_count_ = 0;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_STORAGE_TABLE_H_

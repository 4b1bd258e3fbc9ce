#ifndef FUNGUSDB_STORAGE_SHARD_H_
#define FUNGUSDB_STORAGE_SHARD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/annotations.h"
#include "common/clock.h"
#include "common/status.h"
#include "storage/segment.h"

namespace fungusdb {

using RowId = uint64_t;

/// One partition of a Table along the time axis. Segments — each a
/// contiguous insertion range — are dealt to shards round-robin by
/// segment number, so every shard owns a set of disjoint time ranges
/// spread evenly across the whole axis. That keeps temporally-biased
/// work (EGI seeds old data hardest) balanced across shards instead of
/// piling onto whichever shard holds the oldest range.
///
/// Threading contract: during a parallel phase each shard is mutated by
/// at most one worker (the one that claimed it), and no thread reads
/// another shard's state while any shard is being mutated. All
/// table-level structure changes (Append, reclamation) happen on the
/// coordinator thread between parallel phases. The shard itself
/// therefore needs no locks.
class Shard {
 public:
  Shard(uint32_t shard_id, size_t rows_per_segment)
      : shard_id_(shard_id), rows_per_segment_(rows_per_segment) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  Shard(Shard&&) = default;
  Shard& operator=(Shard&&) = default;

  uint32_t shard_id() const { return shard_id_; }

  /// Live tuples in this shard.
  uint64_t live_rows() const { return live_rows_; }

  /// Tuples of this shard discarded so far.
  uint64_t rows_killed() const { return rows_killed_; }

  size_t num_segments() const { return segments_.size(); }

  /// Segment holding `row` with its in-segment offset, or nullptr if the
  /// row was reclaimed, never appended, or routed to another shard.
  Segment* FindSegment(RowId row, size_t* offset) const;

  /// True if `row` belongs to this shard and is live.
  bool IsLive(RowId row) const {
    size_t off;
    Segment* seg = FindSegment(row, &off);
    return seg != nullptr && seg->IsLive(off);
  }

  /// Calls fn(RowId) for every live tuple of this shard in insertion
  /// order.
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

  /// Segment for `seg_no`, creating it if absent (Append path). Also
  /// materializes the segment's pending decay: appending is a mutating
  /// touch, and a new row must not inherit decrements from ticks that
  /// predate it.
  Segment* GetOrCreateSegment(uint64_t seg_no, const Schema& schema,
                              bool track_access);

  /// Notes one appended row (Append goes through the segment directly).
  void NoteAppend() { ++live_rows_; }

  // --- Lazy decay (DESIGN.md §14). ---

  /// Advances the shard's tick epoch. Coordinator thread, once per
  /// decay tick over the owning table, before any plan or apply work.
  void AdvanceDecayEpoch() { ++decay_epoch_; }

  /// Ticks folded or accounted so far (every segment's decay_epoch is
  /// <= this — the `decay-epoch` fsck rule).
  uint64_t decay_epoch() const { return decay_epoch_; }

  /// Folds `delta` as a uniform decrement over every live row of
  /// segment `seg_no` if the segment proves that safe (see
  /// Segment::CanFoldUniformDecay). Returns whether it folded; on
  /// false the caller decays row by row.
  FUNGUS_REQUIRES_APPLY_PHASE bool TryFoldUniformDecay(uint64_t seg_no,
                                                       double delta);

  /// Applies every segment's pending decrements (snapshot write, fsck
  /// entry). Returns live rows rewritten.
  size_t MaterializeAllPending();

  /// Cumulative live-row rewrites performed by lazy materialization
  /// (the price actually paid for deferred ticks).
  uint64_t rows_materialized() const { return rows_materialized_; }

  // --- Tiered storage (DESIGN.md §15). ---

  /// Freezes cold full segments into the compact encoded tier. A
  /// segment is cold when at least `min_idle_epochs` ticks passed since
  /// its last mutating touch (append, per-row write, thaw — uniform
  /// folds do not reset the clock). At most `max_segments` freeze per
  /// call; oldest first. Returns segments frozen.
  FUNGUS_REQUIRES_APPLY_PHASE size_t FreezeColdSegments(
      uint64_t min_idle_epochs, size_t max_segments);

  /// Cumulative freezes / mutating-touch thaws performed by this shard.
  uint64_t segments_frozen() const { return segments_frozen_; }
  uint64_t thaw_count() const { return thaw_count_; }

  // --- Per-row mutators (update shard-local counters only). ---
  //
  // FUNGUS_REQUIRES_APPLY_PHASE: these mutate shard state without a
  // lock, so they may only run on the coordinator thread or inside the
  // apply phase of a parallel tick (one worker per shard). The lint
  // pass enforces the caller allowlist.

  /// Sets freshness (clamped to [0, 1]); 0 discards the tuple.
  FUNGUS_REQUIRES_APPLY_PHASE Status SetFreshness(RowId row, double f);

  /// Decreases freshness by `delta` >= 0; discards at 0.
  FUNGUS_REQUIRES_APPLY_PHASE Status DecayFreshness(RowId row, double delta);

  /// Discards the tuple immediately.
  FUNGUS_REQUIRES_APPLY_PHASE Status Kill(RowId row);

  // --- Segment-granular mutators: Kill / DecayFreshness on every live
  // row of segment `seg_no`, with exactly their results (freshness,
  // liveness, counters, thaw and materialization accounting) but one
  // segment lookup, at most one thaw and one materialization. Rows
  // killed are appended to `killed` in insertion order. Return the live
  // rows touched; a segment with none (or absent) is left untouched. ---

  FUNGUS_REQUIRES_APPLY_PHASE uint64_t KillSegment(
      uint64_t seg_no, std::vector<RowId>* killed);

  /// `delta` >= 0.
  FUNGUS_REQUIRES_APPLY_PHASE uint64_t DecaySegment(
      uint64_t seg_no, double delta, std::vector<RowId>* killed);

  // --- Shard-local navigation along the time axis. ---

  std::optional<RowId> OldestLive() const;
  std::optional<RowId> NewestLive() const;

  /// Nearest live row of THIS shard at or after / at or before `row`
  /// (used by per-shard age-biased seed sampling).
  std::optional<RowId> NextLiveInShard(RowId row) const;
  std::optional<RowId> PrevLiveInShard(RowId row) const;

  /// Frees full segments with zero live tuples. `removed` (optional)
  /// receives the freed segment numbers so the table can drop them from
  /// its routing map. Returns segments freed.
  uint64_t ReclaimDeadSegments(std::vector<uint64_t>* removed);

  /// Recomputes every segment's zone map exactly, tightening bounds
  /// that lazy widening left loose (snapshot/journal load, compaction).
  /// Materializes pending decay first — a recount must describe what
  /// rows actually hold.
  void RecomputeZoneMaps() {
    for (auto& [seg_no, seg] : segments_) {
      // A recount is a mutating touch: RecomputeZoneMap thaws a frozen
      // segment internally; account for it here.
      if (seg->is_frozen()) {
        ++thaw_count_;
        seg->set_last_touch_epoch(decay_epoch_);
      }
      rows_materialized_ += seg->MaterializePendingDecay(decay_epoch_);
      seg->RecomputeZoneMap();
    }
  }

  /// Ordered (by segment number == time order) access for iteration,
  /// persistence and tests.
  const std::map<uint64_t, std::unique_ptr<Segment>>& segments() const {
    return segments_;
  }

  size_t MemoryUsage() const;

 private:
  // Seeds deliberate corruption for fsck tests (verify/corruptor.h).
  friend class TestCorruptor;

  uint32_t shard_id_;
  size_t rows_per_segment_;
  // Keyed by global segment number; ordered, so shard iteration follows
  // the time axis.
  std::map<uint64_t, std::unique_ptr<Segment>> segments_;
  uint64_t live_rows_ = 0;
  uint64_t rows_killed_ = 0;
  // Tick counter for lazy decay: advanced once per decay tick by the
  // coordinator; folds stamp it into segments. Plan/apply workers only
  // read it.
  uint64_t decay_epoch_ = 0;
  uint64_t rows_materialized_ = 0;
  uint64_t segments_frozen_ = 0;
  uint64_t thaw_count_ = 0;

  /// Thaws `seg` if frozen and stamps the touch epoch either way, then
  /// applies its pending decrements (a per-row write works in stored
  /// space) — the prologue of every mutator.
  void TouchForWrite(Segment* seg) {
    if (seg->is_frozen()) {
      seg->Thaw();
      ++thaw_count_;
    }
    seg->set_last_touch_epoch(decay_epoch_);
    rows_materialized_ += seg->MaterializePendingDecay(decay_epoch_);
  }

  /// Live segment `seg_no` after TouchForWrite, or nullptr when it is
  /// absent or holds no live row (nothing to touch).
  Segment* TouchLiveSegment(uint64_t seg_no);

  /// Counts rows a mutator killed.
  void NoteKilled(uint64_t rows) {
    live_rows_ -= rows;
    rows_killed_ += rows;
  }
};

}  // namespace fungusdb

#endif  // FUNGUSDB_STORAGE_SHARD_H_

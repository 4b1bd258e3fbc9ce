#ifndef FUNGUSDB_FUNGUS_FUNGUS_H_
#define FUNGUSDB_FUNGUS_FUNGUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "storage/table.h"

namespace fungusdb {

/// Outcome of one fungus application (one clock tick).
struct DecayStats {
  uint64_t tuples_touched = 0;    // freshness updates applied (folds
                                  // count their covered live rows — the
                                  // tick logically decayed them)
  uint64_t tuples_killed = 0;     // tuples whose freshness reached 0
  uint64_t seeds_planted = 0;     // new infections (EGI-style fungi)
  uint64_t segments_skipped = 0;  // segments bypassed via zone maps
  uint64_t segments_folded = 0;   // uniform decays folded as pending
                                  // decrements instead of row rewrites
  uint64_t rows_materialized = 0; // deferred decrements later applied
                                  // to rows (the lazy path's true cost;
                                  // filled in by the scheduler)

  /// Accounts one segment-granular call that touched `touched` live
  /// rows and killed `killed` of them, as that many per-row calls would.
  void NoteSegmentRows(uint64_t touched, uint64_t killed) {
    tuples_touched += touched;
    tuples_killed += killed;
  }

  DecayStats& operator+=(const DecayStats& other) {
    tuples_touched += other.tuples_touched;
    tuples_killed += other.tuples_killed;
    seeds_planted += other.seeds_planted;
    segments_skipped += other.segments_skipped;
    segments_folded += other.segments_folded;
    rows_materialized += other.rows_materialized;
    return *this;
  }
};

/// Mutation interface handed to a fungus during one tick. All freshness
/// changes flow through the context so the scheduler can observe which
/// tuples died this tick (their attribute values remain readable until
/// segment reclamation — that window is where the Kitchen cooks them).
class DecayContext {
 public:
  DecayContext(Table* table, Timestamp now);

  Table& table() { return *table_; }
  const Table& table() const { return *table_; }
  Timestamp now() const { return now_; }

  /// Decreases freshness by `delta` >= 0; the tuple dies at 0.
  /// Silently ignores rows that are already dead or reclaimed.
  void Decay(RowId row, double delta);

  /// Sets freshness outright (clamped to [0, 1]; 0 kills).
  void SetFreshness(RowId row, double f);

  /// Kills the tuple immediately.
  void Kill(RowId row);

  /// Decreases every live row of segment `seg_no` by the same `delta`.
  /// Folds the decrement as segment metadata when the table allows it
  /// (lazy decay on and the segment proves no death possible — DESIGN.md
  /// §14), otherwise decrements every live row in one call
  /// (Table::DecaySegment); observable state and stats are those of
  /// Decay() on each live row either way. A fungus must not mix this
  /// with per-row ops against the same segment in one tick.
  void DecaySegmentUniform(uint64_t seg_no, const Segment& seg,
                           double delta);

  /// Kill() on every live row of segment `seg_no`, in one call. Same
  /// no-mixing rule as DecaySegmentUniform.
  void KillSegment(uint64_t seg_no);

  /// Records a seed planted (bookkeeping only).
  void NoteSeed() { ++stats_.seeds_planted; }

  /// Records one segment bypassed whole because its zone map proved the
  /// tick cannot change it (bookkeeping only).
  void NoteSegmentSkipped() { ++stats_.segments_skipped; }

  /// Tuples killed during this tick, in kill order.
  const std::vector<RowId>& killed() const { return killed_; }

  const DecayStats& stats() const { return stats_; }

 private:
  Table* table_;
  Timestamp now_;
  std::vector<RowId> killed_;
  DecayStats stats_;
};

/// A data fungus: the decay operator applied to a relation on each tick
/// of the periodic clock `T` (the paper's first natural law). A fungus
/// decides *what* to decay, *how*, and at what *rate*; the Table enforces
/// that freshness only moves downward through fungi and that tuples are
/// discarded exactly when freshness reaches zero.
///
/// Implementations may keep per-table state (e.g. EGI's infection set)
/// but must tolerate tuples dying or being reclaimed between ticks.
class Fungus {
 public:
  virtual ~Fungus() = default;

  Fungus(const Fungus&) = delete;
  Fungus& operator=(const Fungus&) = delete;

  /// Stable identifier, e.g. "egi", "retention".
  virtual std::string_view name() const = 0;

  /// Applies one decay step at ctx.now().
  virtual void Tick(DecayContext& ctx) = 0;

  /// Human-readable parameterization, e.g. "retention(7d)".
  virtual std::string Describe() const = 0;

  /// Drops any per-table state (used when a table is rebuilt).
  virtual void Reset() {}

 protected:
  Fungus() = default;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_FUNGUS_H_

#ifndef FUNGUSDB_FUNGUS_FUNGUS_H_
#define FUNGUSDB_FUNGUS_FUNGUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
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

/// One planned freshness action against a row of a single shard,
/// recorded during the read-only planning phase of a parallel tick and
/// applied by the scheduler after the barrier.
struct ShardAction {
  enum class Op : uint8_t { kDecay, kSet, kKill };

  RowId row = 0;
  Op op = Op::kDecay;
  double amount = 0.0;  // delta for kDecay, target freshness for kSet
};

/// One planned action against every live row of one segment of a
/// single shard: a uniform decrement folded as a pending decrement (the
/// segment proved foldable at plan time, so no row is written), the
/// same decrement applied to every live row, or a kill of every live
/// row. The apply worker makes one segment-granular call for each.
struct SegmentAction {
  enum class Op : uint8_t { kFold, kDecay, kKill };

  uint64_t seg_no = 0;
  Op op = Op::kFold;
  double delta = 0.0;  // kFold and kDecay
};

/// Everything one shard's planner produced for one tick.
struct ShardPlan {
  std::vector<ShardAction> actions;  // own-shard rows, in plan order
  std::vector<SegmentAction> segments;  // own-shard segments, plan order
  uint64_t seeds_planted = 0;
  uint64_t segments_skipped = 0;  // segments bypassed via zone maps
};

/// Planning context for one (tick, shard) pair of a parallel decay tick.
///
/// The sharded tick is a strict two-phase protocol: during planning the
/// whole table is frozen — PlanShard may *read* any shard (so EGI can
/// look across shard boundaries for time-axis neighbours) but records
/// mutations here instead of applying them, and may only target rows of
/// its own shard (cross-shard effects go through fungus-private state
/// merged in FinishShardedTick). After a barrier the scheduler applies
/// every shard's plan with one worker per shard, so writes are disjoint
/// and outcomes are independent of thread count by construction.
class ShardPlanContext {
 public:
  ShardPlanContext(const Table* table, uint32_t shard_id, Timestamp now,
                   uint64_t tick_index);

  const Table& table() const { return *table_; }
  const Shard& shard() const { return table_->shard(shard_id_); }
  uint32_t shard_id() const { return shard_id_; }
  Timestamp now() const { return now_; }

  /// Ticks this attachment has executed before this one; combined with
  /// the shard id it identifies the RNG stream.
  uint64_t tick_index() const { return tick_index_; }

  /// Deterministic per-(tick, shard) stream seed derived from the
  /// fungus's own base seed: SplitSeed(SplitSeed(base, tick), shard).
  uint64_t StreamSeed(uint64_t base_seed) const;

  /// Plans a freshness decrease by `delta` >= 0 (dies at 0).
  /// Ignores rows that are dead at plan time. `row` must belong to this
  /// shard.
  void Decay(RowId row, double delta);

  /// Plans setting freshness outright (clamped to [0, 1]; 0 kills).
  void SetFreshness(RowId row, double f);

  /// Plans an immediate kill.
  void Kill(RowId row);

  /// Plans a uniform decrement over every live row of segment `seg_no`
  /// (which must belong to this shard): a fold when the table allows it,
  /// otherwise a decrement of every live row — the apply phase then
  /// produces bit-identical state either way. Same contract as
  /// DecayContext::DecaySegmentUniform: no mixing with per-row ops
  /// against the same segment in one tick.
  void DecaySegmentUniform(uint64_t seg_no, const Segment& seg,
                           double delta);

  /// Plans a kill of every live row of segment `seg_no` (same contract).
  void KillSegment(uint64_t seg_no);

  /// Records a seed planted (bookkeeping only).
  void NoteSeed() { ++plan_.seeds_planted; }

  /// Records one segment bypassed whole because its zone map proved the
  /// tick cannot change it (bookkeeping only).
  void NoteSegmentSkipped() { ++plan_.segments_skipped; }

  ShardPlan TakePlan() { return std::move(plan_); }

 private:
  void Record(RowId row, ShardAction::Op op, double amount);

  const Table* table_;
  uint32_t shard_id_;
  Timestamp now_;
  uint64_t tick_index_;
  ShardPlan plan_;
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

  // --- Sharded (parallel) tick protocol. ---
  //
  // When SupportsShardedTick() is true and the table has more than one
  // shard, the scheduler runs BeginShardedTick (serial), then PlanShard
  // once per shard (possibly concurrently), applies the recorded plans
  // (one worker per shard), and finishes with FinishShardedTick (serial,
  // receiving the tick's merged death list in insertion order).
  // PlanShard must be read-only apart from the context and state keyed
  // by its own shard id; any RNG use must flow through streams derived
  // from ShardPlanContext::StreamSeed so outcomes depend only on the
  // (seed, tick, shard) triple, never on thread scheduling.

  /// True when the fungus implements the per-shard planning protocol.
  virtual bool SupportsShardedTick() const { return false; }

  /// Serial prologue: compute whole-tick values, size per-shard state.
  virtual void BeginShardedTick(const Table& table, Timestamp now) {
    (void)table;
    (void)now;
  }

  /// Plans one shard's share of the tick (see class comment above).
  virtual void PlanShard(ShardPlanContext& ctx) { (void)ctx; }

  /// Serial epilogue after all plans were applied; `killed` holds every
  /// row that died this tick, sorted by RowId (== insertion order).
  virtual void FinishShardedTick(const Table& table,
                                 const std::vector<RowId>& killed) {
    (void)table;
    (void)killed;
  }

  /// Human-readable parameterization, e.g. "retention(7d)".
  virtual std::string Describe() const = 0;

  /// Drops any per-table state (used when a table is rebuilt).
  virtual void Reset() {}

 protected:
  Fungus() = default;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_FUNGUS_H_

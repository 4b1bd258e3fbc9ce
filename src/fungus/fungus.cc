#include "fungus/fungus.h"

#include <cassert>

namespace fungusdb {

ShardPlanContext::ShardPlanContext(const Table* table, uint32_t shard_id,
                                   Timestamp now, uint64_t tick_index)
    : table_(table),
      shard_id_(shard_id),
      now_(now),
      tick_index_(tick_index) {}

uint64_t ShardPlanContext::StreamSeed(uint64_t base_seed) const {
  return SplitSeed(SplitSeed(base_seed, tick_index_), shard_id_);
}

void ShardPlanContext::Record(RowId row, ShardAction::Op op,
                              double amount) {
  assert(table_->ShardIdOf(row) == shard_id_ &&
         "planned action targets a foreign shard");
  // Rows dead at plan time stay untouched (matches DecayContext, which
  // silently ignores dead rows). Liveness is stable during planning —
  // nothing mutates the table until every planner passed the barrier.
  if (!table_->shard(shard_id_).IsLive(row)) return;
  plan_.actions.push_back(ShardAction{row, op, amount});
}

void ShardPlanContext::Decay(RowId row, double delta) {
  Record(row, ShardAction::Op::kDecay, delta);
}

void ShardPlanContext::SetFreshness(RowId row, double f) {
  Record(row, ShardAction::Op::kSet, f);
}

void ShardPlanContext::Kill(RowId row) {
  Record(row, ShardAction::Op::kKill, 0.0);
}

void ShardPlanContext::DecaySegmentUniform(uint64_t seg_no,
                                           const Segment& seg,
                                           double delta) {
  assert(table_->ShardIdOf(seg.first_row()) == shard_id_ &&
         "planned fold targets a foreign shard");
  // Foldability is stable between here and the apply phase: nothing
  // mutates the table until every planner passed the barrier, and the
  // apply worker handles a shard's segment actions before its row
  // actions.
  const bool fold =
      table_->options().lazy_decay && seg.CanFoldUniformDecay(delta);
  plan_.segments.push_back(SegmentAction{
      seg_no, fold ? SegmentAction::Op::kFold : SegmentAction::Op::kDecay,
      delta});
}

void ShardPlanContext::KillSegment(uint64_t seg_no) {
  assert(table_->ShardIdOf(seg_no * table_->options().rows_per_segment) ==
             shard_id_ &&
         "planned kill targets a foreign shard");
  plan_.segments.push_back(
      SegmentAction{seg_no, SegmentAction::Op::kKill, 0.0});
}

DecayContext::DecayContext(Table* table, Timestamp now)
    : table_(table), now_(now) {}

void DecayContext::Decay(RowId row, double delta) {
  if (!table_->IsLive(row)) return;
  ++stats_.tuples_touched;
  const uint64_t killed_before = table_->rows_killed();
  // Cannot fail for live rows; a failure means storage invariants broke.
  FUNGUSDB_CHECK_OK(table_->DecayFreshness(row, delta));
  if (table_->rows_killed() > killed_before) {
    killed_.push_back(row);
    ++stats_.tuples_killed;
  }
}

void DecayContext::SetFreshness(RowId row, double f) {
  if (!table_->IsLive(row)) return;
  ++stats_.tuples_touched;
  const uint64_t killed_before = table_->rows_killed();
  FUNGUSDB_CHECK_OK(table_->SetFreshness(row, f));
  if (table_->rows_killed() > killed_before) {
    killed_.push_back(row);
    ++stats_.tuples_killed;
  }
}

void DecayContext::Kill(RowId row) {
  if (!table_->IsLive(row)) return;
  ++stats_.tuples_touched;
  FUNGUSDB_CHECK_OK(table_->Kill(row));
  killed_.push_back(row);
  ++stats_.tuples_killed;
}

void DecayContext::DecaySegmentUniform(uint64_t seg_no, const Segment& seg,
                                       double delta) {
  if (table_->TryFoldUniformDecay(seg_no, delta)) {
    // The fold's no-death proof covers exactly the live rows, so the
    // eager path would have touched live_count() rows and killed none —
    // count the same, keeping stats mode-independent.
    stats_.tuples_touched += seg.live_count();
    ++stats_.segments_folded;
    return;
  }
  const size_t killed_before = killed_.size();
  const uint64_t touched = table_->DecaySegment(seg_no, delta, &killed_);
  stats_.NoteSegmentRows(touched, killed_.size() - killed_before);
}

void DecayContext::KillSegment(uint64_t seg_no) {
  const uint64_t killed = table_->KillSegment(seg_no, &killed_);
  stats_.NoteSegmentRows(killed, killed);
}

}  // namespace fungusdb

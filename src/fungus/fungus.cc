#include "fungus/fungus.h"

namespace fungusdb {

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

#include "storage/shard.h"

#include <cassert>

namespace fungusdb {

Segment* Shard::FindSegment(RowId row, size_t* offset) const {
  const uint64_t seg_no = row / rows_per_segment_;
  auto it = segments_.find(seg_no);
  if (it == segments_.end()) return nullptr;
  const size_t off = row - it->second->first_row();
  if (off >= it->second->num_rows()) return nullptr;
  *offset = off;
  return it->second.get();
}

Segment* Shard::GetOrCreateSegment(uint64_t seg_no, const Schema& schema,
                                   bool track_access) {
  auto it = segments_.find(seg_no);
  if (it == segments_.end()) {
    it = segments_
             .emplace(seg_no, std::make_unique<Segment>(
                                  schema, seg_no * rows_per_segment_,
                                  rows_per_segment_, track_access))
             .first;
  }
  // Appends only land in non-full segments, which are never frozen —
  // stamping the touch epoch is all the freeze policy needs here.
  it->second->set_last_touch_epoch(decay_epoch_);
  rows_materialized_ += it->second->MaterializePendingDecay(decay_epoch_);
  return it->second.get();
}

size_t Shard::FreezeColdSegments(uint64_t min_idle_epochs,
                                 size_t max_segments) {
  size_t frozen = 0;
  for (auto& [seg_no, seg] : segments_) {
    if (frozen >= max_segments) break;
    if (!seg->can_freeze()) continue;
    if (decay_epoch_ - seg->last_touch_epoch() < min_idle_epochs) continue;
    seg->Freeze();
    ++frozen;
  }
  segments_frozen_ += frozen;
  return frozen;
}

bool Shard::TryFoldUniformDecay(uint64_t seg_no, double delta) {
  auto it = segments_.find(seg_no);
  if (it == segments_.end()) return false;
  Segment& seg = *it->second;
  if (!seg.CanFoldUniformDecay(delta)) return false;
  seg.FoldUniformDecay(delta, decay_epoch_);
  return true;
}

size_t Shard::MaterializeAllPending() {
  size_t rows = 0;
  for (auto& [seg_no, seg] : segments_) {
    rows += seg->MaterializePendingDecay(decay_epoch_);
  }
  rows_materialized_ += rows;
  return rows;
}

Status Shard::SetFreshness(RowId row, double f) {
  size_t off;
  Segment* seg = FindSegment(row, &off);
  if (seg == nullptr) {
    return Status::NotFound("row " + std::to_string(row) + " not present");
  }
  TouchForWrite(seg);
  if (!seg->IsLive(off)) {
    return Status::FailedPrecondition("row " + std::to_string(row) +
                                      " is already dead");
  }
  if (seg->SetFreshness(off, f)) NoteKilled(1);
  return Status::OK();
}

Status Shard::DecayFreshness(RowId row, double delta) {
  if (delta < 0.0) {
    return Status::InvalidArgument("decay delta must be >= 0");
  }
  size_t off;
  Segment* seg = FindSegment(row, &off);
  if (seg == nullptr) {
    return Status::NotFound("row " + std::to_string(row) + " not present");
  }
  TouchForWrite(seg);
  if (!seg->IsLive(off)) {
    return Status::FailedPrecondition("row " + std::to_string(row) +
                                      " is already dead");
  }
  if (seg->SetFreshness(off, seg->Freshness(off) - delta)) NoteKilled(1);
  return Status::OK();
}

Status Shard::Kill(RowId row) {
  size_t off;
  Segment* seg = FindSegment(row, &off);
  if (seg == nullptr) {
    return Status::NotFound("row " + std::to_string(row) + " not present");
  }
  // Kill() leaves other rows' stored freshness alone, but the segment's
  // zone bounds and live set change — thaw if frozen, and keep the
  // invariant that a mutated segment holds no pending decay.
  TouchForWrite(seg);
  if (seg->Kill(off)) NoteKilled(1);
  return Status::OK();
}

Segment* Shard::TouchLiveSegment(uint64_t seg_no) {
  auto it = segments_.find(seg_no);
  if (it == segments_.end() || it->second->live_count() == 0) return nullptr;
  TouchForWrite(it->second.get());
  return it->second.get();
}

uint64_t Shard::KillSegment(uint64_t seg_no, std::vector<RowId>* killed) {
  Segment* seg = TouchLiveSegment(seg_no);
  if (seg == nullptr) return 0;
  const uint64_t dead = seg->KillAllLive(killed);
  NoteKilled(dead);
  return dead;
}

uint64_t Shard::DecaySegment(uint64_t seg_no, double delta,
                             std::vector<RowId>* killed) {
  assert(delta >= 0.0);
  Segment* seg = TouchLiveSegment(seg_no);
  if (seg == nullptr) return 0;
  const uint64_t touched = seg->live_count();
  NoteKilled(seg->DecayAllLive(delta, killed));
  return touched;
}

std::optional<RowId> Shard::OldestLive() const {
  for (const auto& [seg_no, seg] : segments_) {
    if (seg->live_count() == 0) continue;
    const size_t n = seg->num_rows();
    for (size_t off = 0; off < n; ++off) {
      if (seg->IsLive(off)) return seg->first_row() + off;
    }
  }
  return std::nullopt;
}

std::optional<RowId> Shard::NewestLive() const {
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    const Segment& seg = *it->second;
    if (seg.live_count() == 0) continue;
    for (size_t off = seg.num_rows(); off > 0; --off) {
      if (seg.IsLive(off - 1)) return seg.first_row() + off - 1;
    }
  }
  return std::nullopt;
}

std::optional<RowId> Shard::NextLiveInShard(RowId row) const {
  const uint64_t seg_no = row / rows_per_segment_;
  for (auto it = segments_.lower_bound(seg_no); it != segments_.end();
       ++it) {
    const Segment& seg = *it->second;
    if (seg.live_count() == 0) continue;
    const size_t n = seg.num_rows();
    size_t off = row > seg.first_row() ? row - seg.first_row() : 0;
    for (; off < n; ++off) {
      if (seg.IsLive(off)) return seg.first_row() + off;
    }
  }
  return std::nullopt;
}

std::optional<RowId> Shard::PrevLiveInShard(RowId row) const {
  const uint64_t seg_no = row / rows_per_segment_;
  auto it = segments_.upper_bound(seg_no);
  while (it != segments_.begin()) {
    --it;
    const Segment& seg = *it->second;
    if (seg.live_count() == 0 || seg.first_row() > row) continue;
    const size_t start = std::min<uint64_t>(row - seg.first_row(),
                                            seg.num_rows() - 1);
    for (size_t off = start + 1; off > 0; --off) {
      if (seg.IsLive(off - 1)) return seg.first_row() + off - 1;
    }
  }
  return std::nullopt;
}

uint64_t Shard::ReclaimDeadSegments(std::vector<uint64_t>* removed) {
  uint64_t freed = 0;
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->second->full() && it->second->live_count() == 0) {
      if (removed != nullptr) removed->push_back(it->first);
      it = segments_.erase(it);
      ++freed;
    } else {
      ++it;
    }
  }
  return freed;
}

size_t Shard::MemoryUsage() const {
  size_t bytes = sizeof(Shard);
  for (const auto& [seg_no, seg] : segments_) bytes += seg->MemoryUsage();
  return bytes;
}

}  // namespace fungusdb

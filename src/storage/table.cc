#include "storage/table.h"

#include <algorithm>
#include <cassert>

namespace fungusdb {
namespace {

Status NotPresent(RowId row) {
  return Status::NotFound("row " + std::to_string(row) + " not present");
}

Status AlreadyDead(RowId row) {
  return Status::FailedPrecondition("row " + std::to_string(row) +
                                    " is already dead");
}

}  // namespace

Table::Table(std::string name, Schema schema, TableOptions options)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options) {
  assert(options_.rows_per_segment > 0);
}

Result<RowId> Table::Append(const std::vector<Value>& values, Timestamp now) {
  if (values.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) + " does not match " +
        "schema arity " + std::to_string(schema_.num_fields()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const Field& f = schema_.field(i);
    if (values[i].is_null()) {
      if (!f.nullable) {
        return Status::InvalidArgument("null value for non-nullable field '" +
                                       f.name + "'");
      }
    } else if (values[i].type() != f.type) {
      return Status::TypeMismatch(
          "value of type " + std::string(DataTypeName(values[i].type())) +
          " for field '" + f.name + "' of type " +
          std::string(DataTypeName(f.type)));
    }
  }

  const RowId row = next_row_;
  const uint64_t seg_no = row / options_.rows_per_segment;
  std::unique_ptr<Segment>& slot = segments_[seg_no];
  if (slot == nullptr) {
    slot = std::make_unique<Segment>(
        schema_, seg_no * options_.rows_per_segment,
        options_.rows_per_segment, options_.track_access);
  }
  // Appending is a mutating touch, and a new row must not inherit
  // decrements from ticks that predate it. Appends only land in
  // non-full segments, which are never frozen — stamping the touch
  // epoch is all the freeze policy needs here.
  slot->set_last_touch_epoch(decay_epoch_);
  rows_materialized_ += slot->MaterializePendingDecay(decay_epoch_);
  slot->Append(values, now);
  ++live_rows_;
  ++next_row_;
  return row;
}

Segment* Table::FindSegment(RowId row, size_t* offset) const {
  if (row >= next_row_) return nullptr;
  const uint64_t seg_no = row / options_.rows_per_segment;
  auto it = segments_.find(seg_no);
  if (it == segments_.end()) return nullptr;
  const size_t off = row - it->second->first_row();
  if (off >= it->second->num_rows()) return nullptr;
  *offset = off;
  return it->second.get();
}

void Table::TouchForWrite(Segment* seg) {
  if (seg->is_frozen()) {
    seg->Thaw();
    ++thaw_count_;
  }
  seg->set_last_touch_epoch(decay_epoch_);
  rows_materialized_ += seg->MaterializePendingDecay(decay_epoch_);
}

Segment* Table::TouchRow(RowId row, size_t* offset) {
  Segment* seg = FindSegment(row, offset);
  if (seg != nullptr) TouchForWrite(seg);
  return seg;
}

Segment* Table::TouchLiveSegment(uint64_t seg_no) {
  auto it = segments_.find(seg_no);
  if (it == segments_.end() || it->second->live_count() == 0) return nullptr;
  TouchForWrite(it->second.get());
  return it->second.get();
}

bool Table::Contains(RowId row) const {
  size_t off;
  return FindSegment(row, &off) != nullptr;
}

bool Table::IsLive(RowId row) const {
  size_t off;
  Segment* seg = FindSegment(row, &off);
  return seg != nullptr && seg->IsLive(off);
}

double Table::Freshness(RowId row) const {
  size_t off;
  Segment* seg = FindSegment(row, &off);
  return seg == nullptr ? 0.0 : seg->Freshness(off);
}

Status Table::SetFreshness(RowId row, double f) {
  size_t off;
  Segment* seg = TouchRow(row, &off);
  if (seg == nullptr) return NotPresent(row);
  if (!seg->IsLive(off)) return AlreadyDead(row);
  if (seg->SetFreshness(off, f)) NoteKilled(1);
  return Status::OK();
}

Status Table::DecayFreshness(RowId row, double delta) {
  if (delta < 0.0) {
    return Status::InvalidArgument("decay delta must be >= 0");
  }
  size_t off;
  Segment* seg = TouchRow(row, &off);
  if (seg == nullptr) return NotPresent(row);
  if (!seg->IsLive(off)) return AlreadyDead(row);
  if (seg->SetFreshness(off, seg->Freshness(off) - delta)) NoteKilled(1);
  return Status::OK();
}

Status Table::Kill(RowId row) {
  // Kill() leaves other rows' stored freshness alone, but the segment's
  // zone bounds and live set change — thaw if frozen, and keep the
  // invariant that a mutated segment holds no pending decay.
  size_t off;
  Segment* seg = TouchRow(row, &off);
  if (seg == nullptr) return NotPresent(row);
  if (seg->Kill(off)) NoteKilled(1);
  return Status::OK();
}

uint64_t Table::KillSegment(uint64_t seg_no, std::vector<RowId>* killed) {
  Segment* seg = TouchLiveSegment(seg_no);
  if (seg == nullptr) return 0;
  const uint64_t dead = seg->KillAllLive(killed);
  NoteKilled(dead);
  return dead;
}

uint64_t Table::DecaySegment(uint64_t seg_no, double delta,
                             std::vector<RowId>* killed) {
  assert(delta >= 0.0);
  Segment* seg = TouchLiveSegment(seg_no);
  if (seg == nullptr) return 0;
  const uint64_t touched = seg->live_count();
  NoteKilled(seg->DecayAllLive(delta, killed));
  return touched;
}

Result<Timestamp> Table::InsertTime(RowId row) const {
  size_t off;
  Segment* seg = FindSegment(row, &off);
  if (seg == nullptr) return NotPresent(row);
  return seg->InsertTime(off);
}

Result<Value> Table::GetValue(RowId row, size_t col) const {
  if (col >= schema_.num_fields()) {
    return Status::OutOfRange("column index " + std::to_string(col) +
                              " out of range");
  }
  size_t off;
  Segment* seg = FindSegment(row, &off);
  if (seg == nullptr) return NotPresent(row);
  return seg->GetValue(off, col);
}

Result<Value> Table::GetValueByName(RowId row,
                                    const std::string& name) const {
  if (name == kTimestampColumnName) {
    FUNGUSDB_ASSIGN_OR_RETURN(Timestamp t, InsertTime(row));
    return Value::TimestampVal(t);
  }
  if (name == kFreshnessColumnName) {
    if (!Contains(row)) return NotPresent(row);
    return Value::Float64(Freshness(row));
  }
  auto idx = schema_.FindField(name);
  if (!idx.has_value()) {
    return Status::NotFound("no column named '" + name + "'");
  }
  return GetValue(row, *idx);
}

std::optional<RowId> Table::OldestLive() const {
  for (const auto& [seg_no, seg] : segments_) {
    if (seg->live_count() == 0) continue;
    const size_t n = seg->num_rows();
    for (size_t off = 0; off < n; ++off) {
      if (seg->IsLive(off)) return seg->first_row() + off;
    }
  }
  return std::nullopt;
}

std::optional<RowId> Table::NewestLive() const {
  for (auto it = segments_.rbegin(); it != segments_.rend();
       ++it) {
    const Segment& seg = *it->second;
    if (seg.live_count() == 0) continue;
    for (size_t off = seg.num_rows(); off > 0; --off) {
      if (seg.IsLive(off - 1)) return seg.first_row() + off - 1;
    }
  }
  return std::nullopt;
}

std::optional<RowId> Table::PrevLive(RowId row) const {
  if (row == 0 || next_row_ == 0) return std::nullopt;
  RowId cursor = std::min<RowId>(row, next_row_) - 1;
  // Walk segments in descending order starting at cursor's segment.
  uint64_t seg_no = cursor / options_.rows_per_segment;
  auto it = segments_.upper_bound(seg_no);
  while (it != segments_.begin()) {
    --it;
    const Segment& seg = *it->second;
    if (seg.live_count() > 0 && seg.first_row() <= cursor) {
      size_t start =
          std::min<uint64_t>(cursor - seg.first_row(), seg.num_rows() - 1);
      for (size_t off = start + 1; off > 0; --off) {
        if (seg.IsLive(off - 1)) return seg.first_row() + off - 1;
      }
    }
  }
  return std::nullopt;
}

std::optional<RowId> Table::NextLive(RowId row) const {
  const RowId cursor = row + 1;
  if (cursor >= next_row_) return std::nullopt;
  const uint64_t seg_no = cursor / options_.rows_per_segment;
  for (auto it = segments_.lower_bound(seg_no);
       it != segments_.end(); ++it) {
    const Segment& seg = *it->second;
    if (seg.live_count() == 0) continue;
    const size_t n = seg.num_rows();
    size_t off = cursor > seg.first_row() ? cursor - seg.first_row() : 0;
    for (; off < n; ++off) {
      if (seg.IsLive(off)) return seg.first_row() + off;
    }
  }
  return std::nullopt;
}

std::vector<const Segment*> Table::LiveSegments() const {
  std::vector<const Segment*> out;
  out.reserve(segments_.size());
  for (const auto& [seg_no, seg] : segments_) {
    if (seg->live_count() > 0) out.push_back(seg.get());
  }
  return out;
}

std::vector<RowId> Table::LiveRows() const {
  std::vector<RowId> out;
  out.reserve(live_rows());
  ForEachLive([&out](RowId row) { out.push_back(row); });
  return out;
}

void Table::RecordAccess(RowId row) {
  size_t off;
  Segment* seg = FindSegment(row, &off);
  if (seg != nullptr) seg->RecordAccess(off);
}

uint32_t Table::AccessCount(RowId row) const {
  size_t off;
  Segment* seg = FindSegment(row, &off);
  return seg == nullptr ? 0 : seg->AccessCount(off);
}

bool Table::TryFoldUniformDecay(uint64_t seg_no, double delta) {
  if (!options_.lazy_decay) return false;
  auto it = segments_.find(seg_no);
  if (it == segments_.end()) return false;
  Segment& seg = *it->second;
  if (!seg.CanFoldUniformDecay(delta)) return false;
  seg.FoldUniformDecay(delta, decay_epoch_);
  return true;
}

size_t Table::MaterializePendingDecay() {
  size_t rows = 0;
  for (auto& [seg_no, seg] : segments_) {
    rows += seg->MaterializePendingDecay(decay_epoch_);
  }
  rows_materialized_ += rows;
  return rows;
}

void Table::RecomputeZoneMaps() {
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

size_t Table::FreezeColdSegments(uint64_t min_idle_epochs,
                                 size_t max_segments) {
  if (options_.track_access) return 0;
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

StorageStats Table::GetStorageStats() const {
  StorageStats stats;
  stats.total_segments = segments_.size();
  stats.segments_frozen_total = segments_frozen_;
  stats.thaw_count = thaw_count_;
  for (const auto& [seg_no, seg] : segments_) {
    if (!seg->is_frozen()) continue;
    ++stats.frozen_segments;
    stats.encoded_bytes += seg->MemoryUsage();
    stats.plain_bytes_before += seg->frozen().plain_bytes;
  }
  return stats;
}

uint64_t Table::ReclaimDeadSegments() {
  return std::erase_if(segments_, [](const auto& entry) {
    return entry.second->full() && entry.second->live_count() == 0;
  });
}

size_t Table::MemoryUsage() const {
  size_t bytes = sizeof(Table);
  for (const auto& [seg_no, seg] : segments_) bytes += seg->MemoryUsage();
  return bytes;
}

}  // namespace fungusdb

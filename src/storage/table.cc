#include "storage/table.h"

#include <cassert>

namespace fungusdb {

Table::Table(std::string name, Schema schema, TableOptions options)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options) {
  assert(options_.rows_per_segment > 0);
  if (options_.num_shards == 0) options_.num_shards = 1;
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.emplace_back(static_cast<uint32_t>(s),
                         options_.rows_per_segment);
  }
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
  Shard& shard = ShardFor(row);
  Segment* seg =
      shard.GetOrCreateSegment(seg_no, schema_, options_.track_access);
  segment_index_[seg_no] = seg;
  seg->Append(values, now);
  shard.NoteAppend();
  ++next_row_;
  return row;
}

uint64_t Table::live_rows() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.live_rows();
  return total;
}

uint64_t Table::rows_killed() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.rows_killed();
  return total;
}

Segment* Table::FindSegment(RowId row, size_t* offset) const {
  if (row >= next_row_) return nullptr;
  const uint64_t seg_no = row / options_.rows_per_segment;
  auto it = segment_index_.find(seg_no);
  if (it == segment_index_.end()) return nullptr;
  const size_t off = row - it->second->first_row();
  if (off >= it->second->num_rows()) return nullptr;
  *offset = off;
  return it->second;
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
  if (row >= next_row_) {
    return Status::NotFound("row " + std::to_string(row) + " not present");
  }
  return ShardFor(row).SetFreshness(row, f);
}

Status Table::DecayFreshness(RowId row, double delta) {
  if (row >= next_row_) {
    return Status::NotFound("row " + std::to_string(row) + " not present");
  }
  return ShardFor(row).DecayFreshness(row, delta);
}

Status Table::Kill(RowId row) {
  if (row >= next_row_) {
    return Status::NotFound("row " + std::to_string(row) + " not present");
  }
  return ShardFor(row).Kill(row);
}

uint64_t Table::KillSegment(uint64_t seg_no, std::vector<RowId>* killed) {
  return shards_[ShardIdOfSegment(seg_no)].KillSegment(seg_no, killed);
}

uint64_t Table::DecaySegment(uint64_t seg_no, double delta,
                             std::vector<RowId>* killed) {
  return shards_[ShardIdOfSegment(seg_no)].DecaySegment(seg_no, delta, killed);
}

Result<Timestamp> Table::InsertTime(RowId row) const {
  size_t off;
  Segment* seg = FindSegment(row, &off);
  if (seg == nullptr) {
    return Status::NotFound("row " + std::to_string(row) + " not present");
  }
  return seg->InsertTime(off);
}

Result<Value> Table::GetValue(RowId row, size_t col) const {
  if (col >= schema_.num_fields()) {
    return Status::OutOfRange("column index " + std::to_string(col) +
                              " out of range");
  }
  size_t off;
  Segment* seg = FindSegment(row, &off);
  if (seg == nullptr) {
    return Status::NotFound("row " + std::to_string(row) + " not present");
  }
  return seg->GetValue(off, col);
}

Result<Value> Table::GetValueByName(RowId row,
                                    const std::string& name) const {
  if (name == kTimestampColumnName) {
    FUNGUSDB_ASSIGN_OR_RETURN(Timestamp t, InsertTime(row));
    return Value::TimestampVal(t);
  }
  if (name == kFreshnessColumnName) {
    if (!Contains(row)) {
      return Status::NotFound("row " + std::to_string(row) + " not present");
    }
    return Value::Float64(Freshness(row));
  }
  auto idx = schema_.FindField(name);
  if (!idx.has_value()) {
    return Status::NotFound("no column named '" + name + "'");
  }
  return GetValue(row, *idx);
}

std::optional<RowId> Table::OldestLive() const {
  for (const auto& [seg_no, seg] : segment_index_) {
    if (seg->live_count() == 0) continue;
    const size_t n = seg->num_rows();
    for (size_t off = 0; off < n; ++off) {
      if (seg->IsLive(off)) return seg->first_row() + off;
    }
  }
  return std::nullopt;
}

std::optional<RowId> Table::NewestLive() const {
  for (auto it = segment_index_.rbegin(); it != segment_index_.rend();
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
  auto it = segment_index_.upper_bound(seg_no);
  while (it != segment_index_.begin()) {
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
  for (auto it = segment_index_.lower_bound(seg_no);
       it != segment_index_.end(); ++it) {
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
  out.reserve(segment_index_.size());
  for (const auto& [seg_no, seg] : segment_index_) {
    if (seg->live_count() > 0) out.push_back(seg);
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
  Shard& shard = shards_[ShardIdOfSegment(seg_no)];
  return shard.TryFoldUniformDecay(seg_no, delta);
}

size_t Table::MaterializePendingDecay() {
  size_t rows = 0;
  for (Shard& shard : shards_) rows += shard.MaterializeAllPending();
  return rows;
}

uint64_t Table::rows_materialized() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.rows_materialized();
  return total;
}

size_t Table::FreezeColdSegments(uint64_t min_idle_epochs,
                                 size_t max_segments) {
  if (options_.track_access) return 0;
  size_t frozen = 0;
  for (Shard& shard : shards_) {
    if (frozen >= max_segments) break;
    frozen += shard.FreezeColdSegments(min_idle_epochs,
                                       max_segments - frozen);
  }
  return frozen;
}

StorageStats Table::GetStorageStats() const {
  StorageStats stats;
  stats.total_segments = segment_index_.size();
  for (const Shard& shard : shards_) {
    stats.segments_frozen_total += shard.segments_frozen();
    stats.thaw_count += shard.thaw_count();
    for (const auto& [seg_no, seg] : shard.segments()) {
      if (!seg->is_frozen()) continue;
      ++stats.frozen_segments;
      stats.encoded_bytes += seg->MemoryUsage();
      stats.plain_bytes_before += seg->frozen().plain_bytes;
    }
  }
  return stats;
}

uint64_t Table::ReclaimDeadSegments() {
  uint64_t freed = 0;
  std::vector<uint64_t> removed;
  for (Shard& shard : shards_) {
    removed.clear();
    freed += shard.ReclaimDeadSegments(&removed);
    for (uint64_t seg_no : removed) segment_index_.erase(seg_no);
  }
  return freed;
}

size_t Table::MemoryUsage() const {
  size_t bytes = sizeof(Table);
  for (const Shard& shard : shards_) bytes += shard.MemoryUsage();
  return bytes;
}

}  // namespace fungusdb

#include "verify/corruptor.h"

#include <optional>

namespace fungusdb {
namespace {

Status NoSuchRow(RowId row) {
  return Status::NotFound("row " + std::to_string(row) + " not present");
}

Status NoSuchSegment(uint64_t seg_no) {
  return Status::NotFound("segment " + std::to_string(seg_no) +
                          " not present");
}

}  // namespace

Status TestCorruptor::CorruptFreshness(Table& table, RowId row,
                                       double raw) {
  size_t off;
  Segment* seg = table.FindSegment(row, &off);
  if (seg == nullptr) return NoSuchRow(row);
  if (!seg->IsLive(off)) {
    return Status::FailedPrecondition(
        "row " + std::to_string(row) + " is dead; corrupt a live one");
  }
  if (seg->is_frozen()) {
    return Status::FailedPrecondition(
        "row " + std::to_string(row) +
        " is frozen; this seeder writes the plain freshness vector");
  }
  seg->freshness_[off] = raw;
  return Status::OK();
}

Status TestCorruptor::ResurrectRow(Table& table, RowId row) {
  size_t off;
  Segment* seg = table.FindSegment(row, &off);
  if (seg == nullptr) return NoSuchRow(row);
  if (seg->IsLive(off)) {
    return Status::FailedPrecondition(
        "row " + std::to_string(row) + " is live; resurrect a dead one");
  }
  if (seg->is_frozen()) {
    return Status::FailedPrecondition(
        "row " + std::to_string(row) +
        " is frozen; this seeder writes the plain alive vector");
  }
  seg->alive_[off] = 1;  // freshness stays 0, counters stay stale
  return Status::OK();
}

void TestCorruptor::MiscountLiveRows(Table& table) { ++table.live_rows_; }

Status TestCorruptor::OverfillColumn(Table& table, uint64_t seg_no,
                                     size_t col) {
  auto it = table.segments_.find(seg_no);
  if (it == table.segments_.end()) return NoSuchSegment(seg_no);
  Segment& seg = *it->second;
  if (col >= seg.columns_.size()) {
    return Status::OutOfRange("column " + std::to_string(col) +
                              " out of range");
  }
  seg.columns_[col]->Append(Value::Null());
  return Status::OK();
}

Status TestCorruptor::StaleZoneMap(Table& table, uint64_t seg_no) {
  auto it = table.segments_.find(seg_no);
  if (it == table.segments_.end()) return NoSuchSegment(seg_no);
  Segment& seg = *it->second;
  if (seg.num_rows() == 0) {
    return Status::FailedPrecondition(
        "segment " + std::to_string(seg_no) +
        " is empty; stale a populated one");
  }
  // Shrink the ts interval past every stored row — the exact staleness
  // a missed widening (or a buggy recount) would leave behind.
  seg.zone_map_.min_ts = seg.InsertTime(0) + 1;
  seg.zone_map_.max_ts = seg.InsertTime(0);
  return Status::OK();
}

Status TestCorruptor::CorruptFrozenChecksum(Table& table, uint64_t seg_no) {
  auto it = table.segments_.find(seg_no);
  if (it == table.segments_.end()) return NoSuchSegment(seg_no);
  Segment& seg = *it->second;
  if (!seg.is_frozen()) {
    return Status::FailedPrecondition(
        "segment " + std::to_string(seg_no) +
        " is not frozen; corrupt a frozen one");
  }
  encode::FrozenSegment& fz = *seg.frozen_;
  // Flip one bit of the encoded payload, deliberately leaving
  // fz.checksum at the value freeze recorded — the precise signature
  // of a block rotting in memory (or a buggy in-place rewrite that
  // forgot to rehash).
  if (!fz.ts.words.empty()) {
    fz.ts.words[0] ^= 1;
  } else {
    fz.ts.base ^= 1;
  }
  return Status::OK();
}

Status TestCorruptor::CorruptFrozenDictionaryCode(Table& table,
                                                  uint64_t seg_no,
                                                  size_t col) {
  auto it = table.segments_.find(seg_no);
  if (it == table.segments_.end()) return NoSuchSegment(seg_no);
  Segment& seg = *it->second;
  if (!seg.is_frozen()) {
    return Status::FailedPrecondition(
        "segment " + std::to_string(seg_no) +
        " is not frozen; corrupt a frozen one");
  }
  encode::FrozenSegment& fz = *seg.frozen_;
  if (col >= fz.columns.size()) {
    return Status::OutOfRange("column " + std::to_string(col) +
                              " out of range");
  }
  encode::FrozenColumn& fc = fz.columns[col];
  if (fc.type != DataType::kString) {
    return Status::FailedPrecondition(
        "column " + std::to_string(col) +
        " is not a string column; dictionary codes live only there");
  }
  if (fc.strings.codes.values.empty()) {
    return Status::FailedPrecondition(
        "column " + std::to_string(col) + " has no encoded rows");
  }
  fc.strings.codes.values[0] =
      static_cast<uint32_t>(fc.strings.dict.size());
  // Rehash so the checksum arm stays quiet and the fsck violation
  // pinpoints the dictionary-range breach alone.
  fz.checksum = fz.ComputeChecksum();
  return Status::OK();
}

Status TestCorruptor::TruncateFrozenStringCodes(Table& table,
                                                uint64_t seg_no,
                                                size_t col) {
  auto it = table.segments_.find(seg_no);
  if (it == table.segments_.end()) return NoSuchSegment(seg_no);
  Segment& seg = *it->second;
  if (!seg.is_frozen()) {
    return Status::FailedPrecondition(
        "segment " + std::to_string(seg_no) +
        " is not frozen; corrupt a frozen one");
  }
  encode::FrozenSegment& fz = *seg.frozen_;
  if (col >= fz.columns.size() ||
      fz.columns[col].type != DataType::kString) {
    return Status::FailedPrecondition("column " + std::to_string(col) +
                                      " is not a string column");
  }
  encode::RleCodes& codes = fz.columns[col].strings.codes;
  if (codes.values.empty()) {
    return Status::FailedPrecondition(
        "column " + std::to_string(col) + " has no encoded rows");
  }
  codes.values.pop_back();
  codes.ends.pop_back();
  fz.checksum = fz.ComputeChecksum();
  return Status::OK();
}

Status TestCorruptor::CorruptStringDictionary(Table& table, uint64_t seg_no,
                                              size_t col,
                                              DictionaryDamage damage) {
  auto it = table.segments_.find(seg_no);
  if (it == table.segments_.end()) return NoSuchSegment(seg_no);
  Segment& seg = *it->second;
  if (seg.is_frozen()) {
    return Status::FailedPrecondition(
        "segment " + std::to_string(seg_no) +
        " is frozen; corrupt a plain one");
  }
  if (col >= seg.columns_.size() ||
      seg.columns_[col]->type() != DataType::kString) {
    return Status::FailedPrecondition("column " + std::to_string(col) +
                                      " is not a string column");
  }
  StringColumn& strings = static_cast<StringColumn&>(*seg.columns_[col]);
  if (strings.codes_.empty()) {
    return Status::FailedPrecondition("column " + std::to_string(col) +
                                      " has no rows");
  }
  switch (damage) {
    case DictionaryDamage::kCodeOutOfRange:
      strings.codes_[0] = static_cast<uint32_t>(strings.dict_.size());
      break;
    case DictionaryDamage::kDuplicateEntry: {
      // Same payload, second code: the cell reads the same but a code
      // compare against the first copy no longer finds it.
      const std::string payload = strings.dict_[strings.codes_.back()];
      strings.codes_.back() = static_cast<uint32_t>(strings.dict_.size());
      strings.dict_.push_back(payload);
      break;
    }
    case DictionaryDamage::kNullNotEmpty: {
      size_t off = 0;
      while (off < strings.size() && !strings.IsNull(off)) ++off;
      if (off == strings.size()) {
        return Status::FailedPrecondition("column " + std::to_string(col) +
                                          " has no null cell");
      }
      std::optional<uint32_t> code;
      for (size_t c = 0; c < strings.dict_.size() && !code; ++c) {
        if (!strings.dict_[c].empty()) code = static_cast<uint32_t>(c);
      }
      if (!code) {
        code = static_cast<uint32_t>(strings.dict_.size());
        strings.dict_.push_back("phantom");
      }
      strings.codes_[off] = *code;
      break;
    }
  }
  return Status::OK();
}

Status TestCorruptor::CorruptPendingDecay(Table& table, uint64_t seg_no) {
  auto it = table.segments_.find(seg_no);
  if (it == table.segments_.end()) return NoSuchSegment(seg_no);
  Segment& seg = *it->second;
  if (seg.live_count() == 0) {
    return Status::FailedPrecondition(
        "segment " + std::to_string(seg_no) +
        " has no live rows; corrupt a live one");
  }
  // A decrement of 2.0 exceeds any legal freshness, so the effective
  // floor goes negative — the fold predicate would have refused it.
  seg.pending_decay_.push_back(2.0);
  seg.decay_epoch_ = table.decay_epoch() + 1;
  return Status::OK();
}

}  // namespace fungusdb

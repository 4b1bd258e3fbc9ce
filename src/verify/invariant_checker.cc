#include "verify/invariant_checker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "common/string_util.h"

namespace fungusdb::verify {
namespace {

/// Collects violations with the cap applied once, so every check site
/// stays one line.
class Collector {
 public:
  Collector(Report* report, size_t cap) : report_(report), cap_(cap) {}

  void Add(Violation v) {
    if (report_->violations.size() >= cap_) {
      report_->truncated = true;
      return;
    }
    report_->violations.push_back(std::move(v));
  }

 private:
  Report* report_;
  size_t cap_;
};

Violation Make(std::string invariant, const std::string& table,
               std::string detail, int64_t shard = -1,
               int64_t segment = -1, int64_t row = -1,
               int64_t column = -1) {
  Violation v;
  v.invariant = std::move(invariant);
  v.table = table;
  v.shard = shard;
  v.segment = segment;
  v.row = row;
  v.column = column;
  v.detail = std::move(detail);
  return v;
}

/// True when `p` is a well-formed FOR encoding: the declared bit width
/// is storable, max_delta fits it, the word count matches, and no
/// stored delta escapes max_delta (the header's stated range — an
/// escaped delta decodes a value outside it).
bool PackedIntsWellFormed(const encode::PackedInts& p) {
  if (p.bit_width > 64) return false;
  if (p.bit_width == 0) {
    if (p.max_delta != 0) return false;
  } else if (p.bit_width < 64 && (p.max_delta >> p.bit_width) != 0) {
    return false;
  }
  if (p.words.size() != encode::PackedInts::WordsFor(p.count, p.bit_width)) {
    return false;
  }
  for (uint64_t i = 0; i < p.count; ++i) {
    const uint64_t delta = static_cast<uint64_t>(p.Get(i)) -
                           static_cast<uint64_t>(p.base);
    if (delta > p.max_delta) return false;
  }
  return true;
}

/// The `encoded-segment` rule body: audits one frozen segment's
/// encoded image (stream lengths, FOR bounds, dictionary code range,
/// block checksum) without thawing it.
void CheckFrozenImage(const Segment& seg, const std::string& name,
                      int64_t s, int64_t sno, Collector& out) {
  const encode::FrozenSegment& fz = seg.frozen();
  const uint64_t rows = fz.num_rows;
  if (fz.ts.count != rows || fz.alive.count() != rows ||
      (!fz.uniform_freshness && fz.freshness_raw.size() != rows)) {
    out.Add(Make("encoded-segment", name,
                 "encoded system streams span ts " +
                     std::to_string(fz.ts.count) + ", alive " +
                     std::to_string(fz.alive.count()) + ", freshness " +
                     std::to_string(fz.uniform_freshness
                                        ? rows
                                        : fz.freshness_raw.size()) +
                     " for " + std::to_string(rows) + " rows",
                 s, sno));
  }
  if (!PackedIntsWellFormed(fz.ts)) {
    out.Add(Make("encoded-segment", name,
                 "FOR-packed __ts span violates its declared bit "
                 "width / max delta",
                 s, sno));
  }
  for (size_t c = 0; c < fz.columns.size(); ++c) {
    const encode::FrozenColumn& fc = fz.columns[c];
    uint64_t payload_rows = rows;
    switch (fc.type) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        payload_rows = fc.ints.count;
        if (!PackedIntsWellFormed(fc.ints)) {
          out.Add(Make("encoded-segment", name,
                       "FOR-packed column violates its declared bit "
                       "width / max delta",
                       s, sno, -1, static_cast<int64_t>(c)));
        }
        break;
      case DataType::kFloat64:
        payload_rows = fc.doubles.size();
        break;
      case DataType::kString: {
        payload_rows = fc.strings.count();
        const uint32_t dict_size =
            static_cast<uint32_t>(fc.strings.dict.size());
        for (const uint32_t code : fc.strings.codes.values) {
          if (code >= dict_size) {
            out.Add(Make("encoded-segment", name,
                         "dictionary code " + std::to_string(code) +
                             " escapes a dictionary of " +
                             std::to_string(dict_size) + " entries",
                         s, sno, -1, static_cast<int64_t>(c)));
            break;
          }
        }
        break;
      }
      case DataType::kBool:
        payload_rows = fc.bools.count();
        break;
    }
    if (fc.validity.count() != rows || payload_rows != rows) {
      out.Add(Make("encoded-segment", name,
                   "encoded column spans validity " +
                       std::to_string(fc.validity.count()) + ", payload " +
                       std::to_string(payload_rows) + " for " +
                       std::to_string(rows) + " rows",
                   s, sno, -1, static_cast<int64_t>(c)));
    }
  }
  const uint32_t derived = fz.ComputeChecksum();
  if (derived != fz.checksum) {
    out.Add(Make("encoded-segment", name,
                 "stored block checksum " + std::to_string(fz.checksum) +
                     " != re-derived " + std::to_string(derived) +
                     " (encoded block corrupted in memory)",
                 s, sno));
  }
}

/// Whether `runs` decodes to exactly `rows` values.
template <typename V>
bool RunsSpan(const encode::RleRuns<V>& runs, uint64_t rows) {
  return runs.count() == rows && runs.values.size() == runs.ends.size();
}

/// The `string-dictionary` rule body: audits the dictionary coding of
/// every string column, on either tier. Codes must index the
/// dictionary; entries must be distinct (a repeated payload hides the
/// rows coded to its second copy from a code compare, which probes the
/// first); and a null cell must hold the code of "" (the rule freezing
/// relies on to pack codes as they are, DictStrings::Pack's output).
/// A frozen column's code range is the `encoded-segment` rule's, so
/// only the plain tier reports it here.
void CheckStringDictionaries(const Segment& seg, const std::string& name,
                             int64_t s, int64_t sno, Collector& out) {
  const size_t rows = seg.num_rows();
  std::vector<uint32_t> scratch(rows);
  std::vector<uint8_t> nulls(rows);
  for (size_t c = 0; c < seg.num_columns(); ++c) {
    // A column of the wrong length is `column-length`'s to report, and
    // a frozen stream that does not span the segment `encoded-segment`'s
    // (decoding it would read past its runs).
    if (seg.column_type(c) != DataType::kString ||
        seg.column_size(c) != rows) {
      continue;
    }
    if (seg.is_frozen()) {
      const encode::FrozenColumn& fc = seg.frozen().columns[c];
      if (!RunsSpan(fc.strings.codes, rows) || !RunsSpan(fc.validity, rows)) {
        continue;
      }
    }
    auto add = [&](std::string detail, int64_t row) {
      out.Add(Make("string-dictionary", name, std::move(detail), s, sno, row,
                   static_cast<int64_t>(c)));
    };
    const std::vector<std::string>& dict = seg.StringDictionary(c);
    std::unordered_set<std::string_view> seen;
    for (size_t code = 0; code < dict.size(); ++code) {
      if (!seen.insert(dict[code]).second) {
        add("dictionary entry " + std::to_string(code) + " repeats \"" +
                dict[code] + "\"",
            -1);
        break;
      }
    }
    const uint32_t* codes = seg.DecodeStringCodes(c, 0, rows, scratch.data());
    seg.DecodeNulls(c, 0, rows, nulls.data());
    for (size_t off = 0; off < rows; ++off) {
      const int64_t row = static_cast<int64_t>(seg.first_row() + off);
      if (codes[off] >= dict.size()) {
        if (!seg.is_frozen()) {
          add("dictionary code " + std::to_string(codes[off]) +
                  " escapes a dictionary of " + std::to_string(dict.size()) +
                  " entries",
              row);
        }
        break;
      }
      if (nulls[off] != 0 && !dict[codes[off]].empty()) {
        add("null cell holds the code of \"" + dict[codes[off]] +
                "\", not of \"\"",
            row);
        break;
      }
    }
  }
}

}  // namespace

std::string Violation::ToString() const {
  std::ostringstream os;
  os << "table '" << table << "'";
  if (shard >= 0) os << " shard " << shard;
  if (segment >= 0) os << " segment " << segment;
  if (row >= 0) os << " row " << row;
  if (column >= 0) os << " column " << column;
  os << ": " << invariant << ": " << detail;
  return os.str();
}

void Report::Merge(Report other) {
  tables_checked += other.tables_checked;
  segments_checked += other.segments_checked;
  rows_checked += other.rows_checked;
  truncated = truncated || other.truncated;
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

std::string Report::ToString() const {
  std::ostringstream os;
  os << "fsck: " << tables_checked << " table(s), " << segments_checked
     << " segment(s), " << rows_checked << " row(s) checked — ";
  if (ok()) {
    os << "no violations\n";
    return os.str();
  }
  os << violations.size() << " violation(s)";
  if (truncated) os << " (list truncated)";
  os << "\n";
  for (const Violation& v : violations) {
    os << "  " << v.ToString() << "\n";
  }
  return os.str();
}

Status Report::ToStatus() const {
  if (ok()) return Status::OK();
  return Status::Internal(
      "invariant check failed (" + std::to_string(violations.size()) +
      (truncated ? "+" : "") + " violation(s)); first: " +
      violations.front().ToString());
}

Report InvariantChecker::CheckTable(const Table& table) const {
  Report report;
  report.tables_checked = 1;
  Collector out(&report, options_.max_violations);

  const std::string& name = table.name();
  const size_t num_shards = table.num_shards();
  const size_t rows_per_segment = table.options().rows_per_segment;
  const size_t num_fields = table.schema().num_fields();
  const uint64_t total_appended = table.total_appended();

  // --- Per-shard walk: ownership, segment structure, per-row state. ---
  uint64_t counted_live_total = 0;
  size_t counted_segments = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const Shard& shard = table.shard(s);
    uint64_t shard_live_from_segments = 0;
    for (const auto& [seg_no, seg_owner] : shard.segments()) {
      const Segment& seg = *seg_owner;
      ++report.segments_checked;
      ++counted_segments;
      const int64_t sno = static_cast<int64_t>(seg_no);
      const size_t num_rows = seg.num_rows();
      report.rows_checked += num_rows;

      // shard-round-robin: segments are dealt round-robin by number.
      if (seg_no % num_shards != s) {
        out.Add(Make("shard-round-robin", name,
                     "segment belongs to shard " +
                         std::to_string(seg_no % num_shards) +
                         " but is owned by shard " + std::to_string(s),
                     static_cast<int64_t>(s), sno));
      }
      // segment-alignment: first_row derives from the segment number.
      if (seg.first_row() != seg_no * rows_per_segment) {
        out.Add(Make("segment-alignment", name,
                     "first_row " + std::to_string(seg.first_row()) +
                         " != seg_no * rows_per_segment " +
                         std::to_string(seg_no * rows_per_segment),
                     static_cast<int64_t>(s), sno));
      }
      // segment-capacity: fixed capacity, never overfilled.
      if (seg.capacity() != rows_per_segment || num_rows > seg.capacity()) {
        out.Add(Make("segment-capacity", name,
                     "capacity " + std::to_string(seg.capacity()) +
                         ", rows " + std::to_string(num_rows) +
                         ", rows_per_segment " +
                         std::to_string(rows_per_segment),
                     static_cast<int64_t>(s), sno));
      }
      // append-bound: no segment may extend past the append cursor.
      if (seg.first_row() + num_rows > total_appended) {
        out.Add(Make("append-bound", name,
                     "segment ends at row " +
                         std::to_string(seg.first_row() + num_rows) +
                         " but only " + std::to_string(total_appended) +
                         " rows were ever appended",
                     static_cast<int64_t>(s), sno));
      }
      // routing-index (forward): the table's index knows this segment.
      auto idx = table.segment_index().find(seg_no);
      if (idx == table.segment_index().end() || idx->second != &seg) {
        out.Add(Make("routing-index", name,
                     idx == table.segment_index().end()
                         ? "segment missing from table routing index"
                         : "routing index points at a different segment",
                     static_cast<int64_t>(s), sno));
      }
      // system-vector-length: ts/freshness/alive move in lockstep on
      // the plain tier; a frozen segment must have released them all
      // (the encoded image is then the only representation).
      const size_t expected_vec = seg.is_frozen() ? 0 : num_rows;
      if (seg.freshness_vector_size() != expected_vec ||
          seg.alive_vector_size() != expected_vec) {
        out.Add(Make("system-vector-length", name,
                     "rows " + std::to_string(num_rows) + " (" +
                         (seg.is_frozen() ? "frozen" : "plain") +
                         "), freshness " +
                         std::to_string(seg.freshness_vector_size()) +
                         ", alive " +
                         std::to_string(seg.alive_vector_size()),
                     static_cast<int64_t>(s), sno));
      }
      // access-tracking: counter vector present iff tracking is on.
      const size_t expected_access =
          table.options().track_access ? num_rows : 0;
      if (seg.tracks_access() != table.options().track_access ||
          seg.access_vector_size() != expected_access) {
        out.Add(Make("access-tracking", name,
                     "access vector has " +
                         std::to_string(seg.access_vector_size()) +
                         " entries, expected " +
                         std::to_string(expected_access),
                     static_cast<int64_t>(s), sno));
      }
      // column-length / column-type: every user column matches the
      // schema and holds exactly one cell per row. The accessors here
      // are tier-independent — a frozen segment answers from its
      // encoded image without thawing.
      if (seg.num_columns() != num_fields) {
        out.Add(Make("column-length", name,
                     "segment holds " + std::to_string(seg.num_columns()) +
                         " columns for a schema of " +
                         std::to_string(num_fields),
                     static_cast<int64_t>(s), sno));
      }
      const size_t checkable_cols = std::min(seg.num_columns(), num_fields);
      for (size_t c = 0; c < checkable_cols; ++c) {
        if (seg.column_size(c) != num_rows) {
          out.Add(Make("column-length", name,
                       "column has " + std::to_string(seg.column_size(c)) +
                           " cells for " + std::to_string(num_rows) +
                           " rows",
                       static_cast<int64_t>(s), sno, -1,
                       static_cast<int64_t>(c)));
        }
        if (seg.column_type(c) != table.schema().field(c).type) {
          out.Add(Make("column-type", name,
                       std::string("column type ") +
                           std::string(DataTypeName(seg.column_type(c))) +
                           " != schema type " +
                           std::string(DataTypeName(
                               table.schema().field(c).type)),
                       static_cast<int64_t>(s), sno, -1,
                       static_cast<int64_t>(c)));
        }
      }
      // encoded-segment: a frozen segment's encoded image must be
      // internally consistent — every encoded stream spans exactly
      // num_rows, FOR-packed spans honour their declared bit width and
      // max delta (the range the header states), dictionary codes stay
      // inside the dictionary, and the canonical bytes still hash to the
      // stored block checksum.
      if (seg.is_frozen()) {
        CheckFrozenImage(seg, name, static_cast<int64_t>(s), sno, out);
      }
      // string-dictionary: both tiers code strings into a dictionary of
      // distinct payloads, nulls on the "" code.
      CheckStringDictionaries(seg, name, static_cast<int64_t>(s), sno, out);
      // Per-row: freshness range, liveness agreement, time ordering;
      // exact bound recount for the zone-map audit below.
      size_t recounted_live = 0;
      Timestamp prev_ts = 0;
      Timestamp exact_min_ts = std::numeric_limits<Timestamp>::max();
      Timestamp exact_max_ts = std::numeric_limits<Timestamp>::min();
      double exact_min_f = std::numeric_limits<double>::infinity();
      double exact_max_f = -std::numeric_limits<double>::infinity();
      const size_t walkable =
          seg.is_frozen()
              ? num_rows
              : std::min({num_rows, seg.freshness_vector_size(),
                          seg.alive_vector_size()});
      for (size_t off = 0; off < walkable; ++off) {
        const RowId row = seg.first_row() + off;
        const double f = seg.Freshness(off);
        if (seg.IsLive(off)) {
          ++recounted_live;
          exact_min_f = std::min(exact_min_f, f);
          exact_max_f = std::max(exact_max_f, f);
          if (f == 0.0) {
            out.Add(Make("resurrected-row", name,
                         "row is flagged live but its freshness is 0 "
                         "(dead tuple resurrected)",
                         static_cast<int64_t>(s), sno,
                         static_cast<int64_t>(row)));
          } else if (f < 0.0 || f > 1.0) {
            out.Add(Make("freshness-range", name,
                         "live row has freshness " + FormatDouble(f, 6) +
                             ", outside (0, 1]",
                         static_cast<int64_t>(s), sno,
                         static_cast<int64_t>(row)));
          }
        } else if (f != 0.0) {
          out.Add(Make("dead-freshness-nonzero", name,
                       "dead row has freshness " + FormatDouble(f, 6),
                       static_cast<int64_t>(s), sno,
                       static_cast<int64_t>(row)));
        }
        const Timestamp ts = seg.InsertTime(off);
        exact_min_ts = std::min(exact_min_ts, ts);
        exact_max_ts = std::max(exact_max_ts, ts);
        if (off > 0 && ts < prev_ts) {
          out.Add(Make("time-ordering", name,
                       "insert time " + std::to_string(ts) +
                           " precedes previous row's " +
                           std::to_string(prev_ts),
                       static_cast<int64_t>(s), sno,
                       static_cast<int64_t>(row)));
        }
        prev_ts = ts;
      }
      // segment-live-count: the cached counter matches a recount.
      if (recounted_live != seg.live_count()) {
        out.Add(Make("segment-live-count", name,
                     "live_count " + std::to_string(seg.live_count()) +
                         " but " + std::to_string(recounted_live) +
                         " rows are flagged live",
                     static_cast<int64_t>(s), sno));
      }
      // zone-map-bounds: pruning metadata must COVER the stored rows —
      // a too-narrow bound makes scans and decay ticks silently skip a
      // segment that still holds matching rows. Wide bounds only cost
      // pruning opportunity and are legal (lazy widening).
      const ZoneMap& zone = seg.zone_map();
      if (walkable > 0 &&
          (zone.min_ts > exact_min_ts || zone.max_ts < exact_max_ts)) {
        out.Add(Make("zone-map-bounds", name,
                     "ts bounds [" + std::to_string(zone.min_ts) + ", " +
                         std::to_string(zone.max_ts) +
                         "] do not cover stored rows [" +
                         std::to_string(exact_min_ts) + ", " +
                         std::to_string(exact_max_ts) + "]",
                     static_cast<int64_t>(s), sno));
      }
      // The recount above works in EFFECTIVE freshness (what readers
      // see), so it must be judged against the effective bounds —
      // stored bounds with pending decay replayed.
      const double zone_min_f_eff = seg.EffectiveMinFreshness();
      const double zone_max_f_eff = seg.EffectiveMaxFreshness();
      if (recounted_live > 0 &&
          (zone_min_f_eff > exact_min_f || zone_max_f_eff < exact_max_f)) {
        out.Add(Make("zone-map-bounds", name,
                     "live freshness bounds [" +
                         FormatDouble(zone_min_f_eff, 6) + ", " +
                         FormatDouble(zone_max_f_eff, 6) +
                         "] do not cover live rows [" +
                         FormatDouble(exact_min_f, 6) + ", " +
                         FormatDouble(exact_max_f, 6) + "]",
                     static_cast<int64_t>(s), sno));
      }
      // decay-epoch: lazy-decay metadata must be internally consistent
      // (DESIGN.md §14). A segment can never be ahead of its shard's
      // tick counter; pending decrements are nonnegative finite amounts
      // folded only over segments that still have live rows; and the
      // fold-safety proof must still hold — no pending decrement may
      // have driven the effective freshness floor to or below zero
      // (that would be a deferred death, which folds must never defer).
      if (seg.decay_epoch() > shard.decay_epoch()) {
        out.Add(Make("decay-epoch", name,
                     "segment decay epoch " +
                         std::to_string(seg.decay_epoch()) +
                         " is ahead of shard decay epoch " +
                         std::to_string(shard.decay_epoch()),
                     static_cast<int64_t>(s), sno));
      }
      if (seg.has_pending_decay()) {
        for (const double d : seg.pending_decay()) {
          if (!(d >= 0.0) || !std::isfinite(d)) {
            out.Add(Make("decay-epoch", name,
                         "pending decrement " + FormatDouble(d, 6) +
                             " is negative or non-finite",
                         static_cast<int64_t>(s), sno));
            break;
          }
        }
        if (seg.live_count() == 0 || !zone.has_live_freshness()) {
          out.Add(Make("decay-epoch", name,
                       "pending decay folded over a segment with no "
                       "live rows",
                       static_cast<int64_t>(s), sno));
        } else if (!(zone_min_f_eff > 0.0)) {
          out.Add(Make("decay-epoch", name,
                       "pending decay defers a death: effective "
                       "freshness floor " +
                           FormatDouble(zone_min_f_eff, 6) +
                           " is not positive",
                       static_cast<int64_t>(s), sno));
        }
      }
      if (zone.columns.size() != num_fields) {
        out.Add(Make("zone-map-bounds", name,
                     "zone map tracks " +
                         std::to_string(zone.columns.size()) +
                         " columns for a schema of " +
                         std::to_string(num_fields)));
      }
      const size_t zone_cols =
          std::min({zone.columns.size(), num_fields, seg.num_columns()});
      for (size_t c = 0; c < zone_cols; ++c) {
        const ColumnZone& col_zone = zone.columns[c];
        if (!col_zone.tracked) continue;
        const size_t cells = std::min(seg.column_size(c), walkable);
        for (size_t off = 0; off < cells; ++off) {
          if (seg.IsColumnNull(off, c)) continue;
          const Value cell = seg.GetValue(off, c);
          if (!IsNumeric(cell.type())) break;  // column-type flags this
          const double v = cell.ToDouble().value();
          const bool covered = std::isnan(v)
                                   ? col_zone.has_nan
                                   : col_zone.has_value() &&
                                         v >= col_zone.min &&
                                         v <= col_zone.max;
          if (!covered) {
            out.Add(Make("zone-map-bounds", name,
                         "cell value " + FormatDouble(v, 6) +
                             " escapes column zone [" +
                             FormatDouble(col_zone.min, 6) + ", " +
                             FormatDouble(col_zone.max, 6) + "]" +
                             (col_zone.has_nan ? " (+NaN)" : ""),
                         static_cast<int64_t>(s), sno,
                         static_cast<int64_t>(seg.first_row() + off),
                         static_cast<int64_t>(c)));
            break;  // one violation per column per segment is enough
          }
        }
      }
      shard_live_from_segments += seg.live_count();
    }
    // shard-live-count: the shard counter matches its segments.
    if (shard.live_rows() != shard_live_from_segments) {
      out.Add(Make("shard-live-count", name,
                   "shard live_rows " + std::to_string(shard.live_rows()) +
                       " but segments hold " +
                       std::to_string(shard_live_from_segments) +
                       " live rows",
                   static_cast<int64_t>(s)));
    }
    counted_live_total += shard.live_rows();
  }

  // routing-index (reverse): every index entry is owned by the shard
  // the round-robin rule assigns it to, with pointer identity.
  for (const auto& [seg_no, seg_ptr] : table.segment_index()) {
    const size_t home = seg_no % num_shards;
    const auto& home_segments = table.shard(home).segments();
    auto it = home_segments.find(seg_no);
    if (it == home_segments.end() || it->second.get() != seg_ptr) {
      out.Add(Make("routing-index", name,
                   it == home_segments.end()
                       ? "indexed segment is absent from its home shard " +
                             std::to_string(home)
                       : "home shard owns a different segment object",
                   static_cast<int64_t>(home),
                   static_cast<int64_t>(seg_no)));
    }
  }
  if (table.segment_index().size() != counted_segments) {
    out.Add(Make("routing-index", name,
                 "index has " +
                     std::to_string(table.segment_index().size()) +
                     " entries but shards own " +
                     std::to_string(counted_segments) + " segments"));
  }

  // full-before-tail: only the newest surviving segment may be
  // partially filled — earlier ones were full before a later one
  // started, and partial segments are never reclaimed.
  if (!table.segment_index().empty()) {
    const uint64_t max_seg_no = table.segment_index().rbegin()->first;
    for (const auto& [seg_no, seg] : table.segment_index()) {
      if (seg_no != max_seg_no && !seg->full()) {
        out.Add(Make("full-before-tail", name,
                     "non-tail segment holds " +
                         std::to_string(seg->num_rows()) + "/" +
                         std::to_string(seg->capacity()) + " rows",
                     static_cast<int64_t>(seg_no % num_shards),
                     static_cast<int64_t>(seg_no)));
      }
    }
  }

  // time-ordering (across segments): the time axis is monotone over
  // segment numbers.
  Timestamp prev_last_ts = 0;
  bool have_prev = false;
  for (const auto& [seg_no, seg] : table.segment_index()) {
    if (seg->num_rows() == 0) continue;
    const Timestamp first_ts = seg->InsertTime(0);
    if (have_prev && first_ts < prev_last_ts) {
      out.Add(Make("time-ordering", name,
                   "segment starts at t=" + std::to_string(first_ts) +
                       " before previous segment's last t=" +
                       std::to_string(prev_last_ts),
                   static_cast<int64_t>(seg_no % num_shards),
                   static_cast<int64_t>(seg_no)));
    }
    prev_last_ts = seg->InsertTime(seg->num_rows() - 1);
    have_prev = true;
  }

  // row-accounting: every appended row is live or killed, exactly once.
  uint64_t killed_total = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    killed_total += table.shard(s).rows_killed();
  }
  if (counted_live_total + killed_total != total_appended) {
    out.Add(Make("row-accounting", name,
                 "live " + std::to_string(counted_live_total) +
                     " + killed " + std::to_string(killed_total) +
                     " != appended " + std::to_string(total_appended)));
  }

  // live-iteration: ForEachLive yields exactly the live rows, in
  // strictly increasing RowId order — dead rows are excluded from
  // every live index.
  uint64_t iterated = 0;
  std::optional<RowId> first_live;
  std::optional<RowId> last_live;
  bool order_ok = true;
  table.ForEachLive([&](RowId row) {
    ++iterated;
    if (!first_live.has_value()) first_live = row;
    if (last_live.has_value() && row <= *last_live) order_ok = false;
    last_live = row;
    if (!table.IsLive(row)) {
      out.Add(Make("live-iteration", name,
                   "iteration yielded a row that IsLive() rejects", -1,
                   static_cast<int64_t>(row / rows_per_segment),
                   static_cast<int64_t>(row)));
    }
  });
  if (!order_ok) {
    out.Add(Make("live-iteration", name,
                 "live iteration is not strictly increasing"));
  }
  if (iterated != table.live_rows()) {
    out.Add(Make("live-iteration", name,
                 "iteration yielded " + std::to_string(iterated) +
                     " rows but live_rows() reports " +
                     std::to_string(table.live_rows())));
  }
  // oldest-newest: the navigation endpoints agree with iteration.
  if (table.OldestLive() != first_live || table.NewestLive() != last_live) {
    out.Add(Make("oldest-newest", name,
                 "OldestLive()/NewestLive() disagree with live iteration"));
  }

  return report;
}

Report InvariantChecker::CheckCellar(const Cellar& cellar) const {
  Report report;
  Collector out(&report, options_.max_violations);
  for (const Cellar::EntryInfo& e : cellar.List()) {
    if (!(e.freshness > 0.0) || e.freshness > 1.0) {
      out.Add(Make("cellar-freshness", "<cellar:" + e.name + ">",
                   "summary freshness " + FormatDouble(e.freshness, 6) +
                       " outside (0, 1]"));
    }
  }
  return report;
}

}  // namespace fungusdb::verify

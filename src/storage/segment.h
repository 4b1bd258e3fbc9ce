#ifndef FUNGUSDB_STORAGE_SEGMENT_H_
#define FUNGUSDB_STORAGE_SEGMENT_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "storage/column.h"
#include "storage/encode/frozen.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fungusdb {

/// Min/max bounds for one numeric user column of a segment, kept as
/// doubles (int64/timestamp convert monotonically, so double-space
/// bounds are always a superset of the values' double images — the
/// space every comparison path evaluates in).
struct ColumnZone {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  /// Some non-null cell holds a NaN. NaN compares "equal" to everything
  /// under Value::Compare, so a NaN cell can satisfy =, <= and >=
  /// predicates that the min/max bounds would rule out.
  bool has_nan = false;
  /// False for non-numeric columns; their zones are never consulted.
  bool tracked = false;

  /// True when at least one non-null, non-NaN cell contributed.
  bool has_value() const { return min <= max; }
};

/// Per-segment statistics for scan pruning and tick skipping. Because a
/// segment is a contiguous insertion range, every time-range predicate
/// and freshness threshold maps to zone-map bounds that either rule the
/// whole segment out or leave it for the row-level scan.
///
/// Bound discipline (audited by the `zone-map-bounds` fsck rule):
///  * `min_ts`/`max_ts` cover every row ever appended — exact, since
///    insertion times never change.
///  * `min_f`/`max_f` cover every LIVE row's freshness — conservative:
///    widened eagerly on every freshness write, tightened only on
///    recount (RecomputeZoneMap) or trivially when the segment empties.
///  * `columns[c]` covers every non-null cell of numeric column c over
///    ALL rows, live and dead — attribute values never change, so the
///    bounds are exact over all rows and a superset over live ones.
struct ZoneMap {
  Timestamp min_ts = std::numeric_limits<Timestamp>::max();
  Timestamp max_ts = std::numeric_limits<Timestamp>::min();
  double min_f = std::numeric_limits<double>::infinity();
  double max_f = -std::numeric_limits<double>::infinity();
  std::vector<ColumnZone> columns;

  bool has_rows() const { return min_ts <= max_ts; }
  bool has_live_freshness() const { return min_f <= max_f; }
};

/// A fixed-capacity, append-only run of consecutive tuples. Tuples are
/// stored in insertion order, so offset order *is* the paper's time axis.
/// Alongside the user columns each segment holds the two system vectors:
/// insertion timestamps (`t`) and freshness (`f`), plus a liveness flag
/// (freshness 0 == dead == tombstoned) and an optional access counter.
///
/// Segments are the unit of space reclamation: when every tuple in a full
/// segment has died, the Table frees the whole segment — the paper's
/// "removing complete insertion ranges". They are also the unit of scan
/// pruning: each segment maintains a ZoneMap the query engine and decay
/// planners consult to skip segments that cannot match.
///
/// Lazy decay (DESIGN.md §14): a decay tick that would subtract the
/// same delta from every live row of the segment can be *folded* into
/// `pending_decay_` instead of rewriting the freshness vector — an O(1)
/// metadata write. The stored freshness vector is then "as of
/// decay_epoch"; readers reconstruct the effective value by replaying
/// the pending deltas IN FOLD ORDER (`f - d1 - d2 - ...`), which makes
/// the reconstruction bit-identical to the eager per-row subtractions
/// it stands in for (floating-point subtraction is not associative, so
/// the order is part of the contract). Pending deltas are applied for
/// real — materialized — on the first mutating touch, on
/// RecomputeZoneMap, and before snapshot serialization, so the on-disk
/// format never sees them.
///
/// Tiered storage (DESIGN.md §15): a full, idle segment can be *frozen*
/// into the compact encoded form (encode::FrozenSegment) — the plain
/// vectors are released and every accessor answers from the encoding
/// (FOR lookup O(1), RLE/dict lookup O(log runs)). Reads never thaw;
/// zone maps, pruning and the decode-to-scratch scan API all work on
/// the frozen form, and uniform decay folds/materializations update it
/// in place. Any per-row mutation (SetFreshness, Kill) or a zone-map
/// recount thaws the segment back to plain vectors, bit-identically.
/// Appends never reach a frozen segment (freezing requires full()).
///
/// Visibility: none of this is internally synchronized. Decay ticks
/// tombstone rows, rewrite freshness vectors and free whole segments;
/// a concurrent reader iterating offsets mid-tick could see a zone map
/// disagreeing with its cells, or a dangling segment outright. The
/// epoch scheme (core/epoch.h) is what rules that out: writers mutate
/// only inside an exclusive write section, readers only under a pin,
/// and segment lifetime — including freeze and thaw, which swap the
/// physical representation — ends strictly inside a write section, so
/// a pinned reader can hold raw Segment pointers for the pin's
/// duration and never observes a representation change.
class Segment {
 public:
  Segment(const Schema& schema, uint64_t first_row, size_t capacity,
          bool track_access);

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  uint64_t first_row() const { return first_row_; }
  size_t capacity() const { return capacity_; }
  size_t num_rows() const {
    return frozen_ ? static_cast<size_t>(frozen_->num_rows) : ts_.size();
  }
  bool full() const { return num_rows() == capacity_; }
  size_t live_count() const { return live_count_; }

  /// Appends an already-validated row with freshness 1.0.
  /// Requires !full() (which implies !is_frozen()).
  void Append(const std::vector<Value>& values, Timestamp now);

  bool IsLive(size_t off) const {
    return frozen_ ? frozen_->IsLive(off) : alive_[off] != 0;
  }

  /// Effective freshness: the stored value with every pending uniform
  /// decrement replayed in fold order. Equals the stored value exactly
  /// when nothing is pending (the common case); dead rows are always 0.
  double Freshness(size_t off) const {
    const double stored = stored_freshness(off);
    if (pending_decay_.empty() || !IsLive(off)) return stored;
    double f = stored;
    for (const double d : pending_decay_) f -= d;
    return f;
  }

  /// Raw stored freshness, ignoring pending decay — verification and
  /// tests only; every consumer of row state wants Freshness().
  double stored_freshness(size_t off) const {
    return frozen_ ? frozen_->StoredFreshness(off) : freshness_[off];
  }

  /// Sets freshness; clamps into [0, 1] and kills the tuple at 0.
  /// A write equal to the current value is a no-op (decay ticks call
  /// this for every infected tuple; most writes repeat the old value
  /// when the clock did not advance). Returns true when this call
  /// killed the tuple. Requires no pending decay and a thawed segment
  /// (the table mutators thaw and materialize first).
  bool SetFreshness(size_t off, double f);

  /// Tombstones the tuple (idempotent). Returns true if it was live.
  /// Requires a thawed segment.
  bool Kill(size_t off);

  // --- Whole-segment mutators: the per-row mutators above applied to
  // every live row in offset order, in one pass. Each appends the row
  // ids of the rows it killed to `killed`, in offset order, and returns
  // how many. Same requirements as the per-row mutators (thawed, no
  // pending decay). ---

  /// Kill(off) for every live row.
  size_t KillAllLive(std::vector<uint64_t>* killed);

  /// SetFreshness(off, Freshness(off) - delta) for every live row, so
  /// the results are bit-identical to decrementing row by row.
  size_t DecayAllLive(double delta, std::vector<uint64_t>* killed);

  Timestamp InsertTime(size_t off) const {
    return frozen_ ? static_cast<Timestamp>(frozen_->ts.Get(off))
                   : ts_.at(off);
  }

  Value GetValue(size_t off, size_t col) const;

  /// Plain-representation column access. Requires !is_frozen(); code
  /// outside src/storage uses the segment-level cell accessors and the
  /// decode-to-scratch API below, which work on both tiers.
  const Column& column(size_t col) const {
    assert(!frozen_);
    return *columns_[col];
  }

  // --- Tier-independent column metadata (works frozen or plain). ---

  size_t num_columns() const {
    return frozen_ ? frozen_->columns.size() : columns_.size();
  }
  DataType column_type(size_t col) const {
    return frozen_ ? frozen_->columns[col].type : columns_[col]->type();
  }
  size_t column_size(size_t col) const {
    return frozen_ ? static_cast<size_t>(frozen_->num_rows)
                   : columns_[col]->size();
  }
  size_t column_null_count(size_t col) const {
    return frozen_ ? static_cast<size_t>(frozen_->columns[col].null_count)
                   : columns_[col]->null_count();
  }
  bool IsColumnNull(size_t off, size_t col) const {
    return frozen_ ? frozen_->columns[col].IsNull(off)
                   : columns_[col]->IsNull(off);
  }

  /// Zone map for pruning decisions. Bounds are conservative supersets
  /// (see ZoneMap); a stale bound is an invariant violation. Valid on
  /// both tiers — pruning never thaws.
  const ZoneMap& zone_map() const { return zone_map_; }

  /// Recomputes the zone map exactly from the stored rows, tightening
  /// any bounds that lazy widening left loose. A mutating touch: thaws
  /// a frozen segment and materializes pending decay first (the recount
  /// must describe what rows actually hold). O(rows × columns).
  void RecomputeZoneMap();

  // --- Compression tier (DESIGN.md §15). ---

  bool is_frozen() const { return frozen_ != nullptr; }

  /// The encoded image. Requires is_frozen().
  const encode::FrozenSegment& frozen() const { return *frozen_; }

  /// Eligible for the cold tier: full (so no appends can arrive), not
  /// already frozen, and not access-tracked (RecordAccess mutates on
  /// the read path, which must never thaw).
  bool can_freeze() const {
    return !frozen_ && full() && !track_access_;
  }

  /// Encodes the segment and releases the plain vectors. Materializes
  /// pending decay first so the encoding holds the true stored values.
  /// Requires can_freeze(). A write — callers run under the apply
  /// phase / write section.
  void Freeze();

  /// Reconstructs the plain vectors from the encoding, bit-identically,
  /// and drops it. Requires is_frozen().
  void Thaw();

  /// Table tick epoch of the last mutating touch (append, per-row
  /// freshness write, thaw) — the temperature the freeze policy reads.
  /// Uniform folds deliberately do not count: a segment only touched
  /// by folds is exactly the cold case freezing targets.
  uint64_t last_touch_epoch() const { return last_touch_epoch_; }
  void set_last_touch_epoch(uint64_t epoch) { last_touch_epoch_ = epoch; }

  // --- Lazy decay (DESIGN.md §14). ---

  /// True when `delta` can be folded as a uniform decrement over every
  /// live row without changing observable state relative to the eager
  /// per-row path: there are live rows with a non-empty live-freshness
  /// interval, and even the stalest of them provably survives
  /// (effective min freshness stays strictly positive), so no death —
  /// and no death-observer or reclamation side effect — is deferred.
  bool CanFoldUniformDecay(double delta) const {
    return live_count_ > 0 && zone_map_.has_live_freshness() &&
           delta >= 0.0 && EffectiveMinFreshness() - delta > 0.0;
  }

  /// Folds a uniform decrement (caller proved CanFoldUniformDecay) and
  /// stamps the table tick epoch it belongs to. O(1) on both tiers —
  /// folding never thaws, which is what keeps ticks over frozen
  /// segments O(segments).
  void FoldUniformDecay(double delta, uint64_t epoch) {
    pending_decay_.push_back(delta);
    decay_epoch_ = epoch;
  }

  /// Applies every pending decrement to the rows, in fold order, and
  /// tightens the live-freshness zone bounds by the same replay. No row
  /// can die here (fold-time proof). Returns rows rewritten (0 when
  /// nothing was pending); stamps `epoch` as the segment's decay epoch.
  /// On a frozen segment the encoded image is updated in place — O(1)
  /// for the uniform-freshness fast path — and the block checksum is
  /// recomputed; the segment stays frozen.
  size_t MaterializePendingDecay(uint64_t epoch);

  bool has_pending_decay() const { return !pending_decay_.empty(); }

  /// Uniform decrements folded but not yet applied, in fold order.
  const std::vector<double>& pending_decay() const { return pending_decay_; }

  /// Table tick epoch this segment is current through (last fold or
  /// materialization; 0 if never touched by a fold).
  uint64_t decay_epoch() const { return decay_epoch_; }

  /// Conservative live-freshness bounds in EFFECTIVE space: the stored
  /// zone bounds with pending deltas replayed in fold order (x ↦ x - d
  /// is weakly monotone, so the replayed bounds still cover every live
  /// row's effective freshness).
  double EffectiveMinFreshness() const {
    double v = zone_map_.min_f;
    for (const double d : pending_decay_) v -= d;
    return v;
  }
  double EffectiveMaxFreshness() const {
    double v = zone_map_.max_f;
    for (const double d : pending_decay_) v -= d;
    return v;
  }

  // --- Decode-to-scratch scan API (both tiers; never thaws). ---
  //
  // The one routine family every scan path shares (the WHERE filter in
  // every morsel, and the aggregate / projection pipeline after it): on
  // a plain segment these read the backing vectors directly (zero copy
  // where the type allows); on a frozen segment they decode the
  // requested span into caller scratch.

  /// Liveness bytes for [base, base + n). Returns a pointer into the
  /// plain vector when thawed (zero copy); decodes into `scratch` and
  /// returns it when frozen.
  const uint8_t* DecodeAlive(size_t base, size_t n, uint8_t* scratch) const;

  /// True when any row in [base, base + n) is live. O(runs touched) on
  /// a frozen segment — the batch-skip test that lets scans hop over
  /// dead spans of cold data without decoding them.
  bool AnyLive(size_t base, size_t n) const;

  /// STORED freshness for [base, base + n) — callers evaluating
  /// `__freshness` must replay pending_decay() on top. `alive` is the
  /// span DecodeAlive returned for the same range (the frozen
  /// uniform-value path reconstructs from liveness).
  void DecodeStoredFreshness(size_t base, size_t n, const uint8_t* alive,
                             double* out) const;

  /// Null flags of a user column for [base, base + n): nulls[i] = 1
  /// where the cell is null.
  void DecodeNulls(size_t col, size_t base, size_t n, uint8_t* nulls) const;

  /// Insertion timestamps for [base, base + n). Zero copy on the plain
  /// tier; FOR-decoded into `scratch` on a frozen segment.
  const Timestamp* DecodeTs(size_t base, size_t n, Timestamp* scratch) const;

  /// Exact cells of an int64 or timestamp column for [base, base + n).
  /// Zero copy on the plain tier. Null cells hold unspecified values;
  /// read DecodeNulls() for them.
  const int64_t* DecodeInt64Column(size_t col, size_t base, size_t n,
                                   int64_t* scratch) const;

  /// Cells of a float64 column for [base, base + n). Zero copy on both
  /// tiers: the frozen tier stores float64 cells raw.
  const double* DecodeFloat64Column(size_t col, size_t base,
                                    size_t n) const;

  /// Dictionary codes of a string column for [base, base + n): equal
  /// codes are equal strings within one column of one segment, so
  /// grouping maps each code to a group once per segment instead of
  /// hashing every row. Zero copy on the plain tier; RLE-decoded into
  /// `scratch` on a frozen segment. A null cell holds the code of "".
  const uint32_t* DecodeStringCodes(size_t col, size_t base, size_t n,
                                    uint32_t* scratch) const;

  /// The dictionary DecodeStringCodes' codes index, in first-appearance
  /// order. Valid while the segment is neither mutated nor freed.
  const std::vector<std::string>& StringDictionary(size_t col) const;

  /// Dictionary code of `needle` in a string column, if present — the
  /// once-per-segment probe string predicates compare codes against.
  std::optional<uint32_t> StringCodeOf(size_t col,
                                       std::string_view needle) const;

  /// Cells of a bool column for [base, base + n) as 0/1 bytes.
  void DecodeBoolColumn(size_t col, size_t base, size_t n,
                        uint8_t* out) const;

  /// Code equality for [base, base + n): eq[i] = 1 where the cell's
  /// dictionary code is `code`, nulls[i] = 1 where the cell is null (eq
  /// is 0 there). `code` comes from StringCodeOf, once per segment;
  /// kNoStringCode matches no cell. No string is read.
  void MatchStringEq(size_t col, size_t base, size_t n, uint32_t code,
                     uint8_t* eq, uint8_t* nulls) const;

  /// A code no dictionary holds: what MatchStringEq is handed for a
  /// literal absent from the segment.
  static constexpr uint32_t kNoStringCode = UINT32_MAX;

  // --- Raw system-vector spans (plain tier only; src/storage and the
  // invariant checker — everything else goes through the decode API,
  // enforced by the `encoded-access` lint rule). ---

  const Timestamp* ts_data() const {
    assert(!frozen_);
    return ts_.data();
  }

  /// STORED freshness values — callers evaluating `__freshness` must
  /// replay pending_decay() on top (see VectorPredicate).
  const double* freshness_data() const {
    assert(!frozen_);
    return freshness_.data();
  }
  const uint8_t* alive_data() const {
    assert(!frozen_);
    return alive_.data();
  }

  void RecordAccess(size_t off);
  uint32_t AccessCount(size_t off) const;

  /// Heap bytes of the current representation — the encoded image when
  /// frozen, the plain vectors when thawed.
  size_t MemoryUsage() const;

  // --- Verification accessors (invariant checker only). ---

  /// Raw system-vector lengths; each must equal num_rows() on a thawed
  /// segment (and be zero on a frozen one), and the access vector must
  /// be empty unless tracking is on.
  size_t freshness_vector_size() const { return freshness_.size(); }
  size_t alive_vector_size() const { return alive_.size(); }
  size_t access_vector_size() const { return access_.size(); }
  bool tracks_access() const { return track_access_; }

 private:
  // Seeds deliberate corruption for fsck tests (verify/corruptor.h).
  friend class TestCorruptor;

  uint64_t first_row_;
  size_t capacity_;
  size_t live_count_ = 0;
  std::vector<std::unique_ptr<Column>> columns_;
  std::vector<Timestamp> ts_;
  std::vector<double> freshness_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> access_;  // empty unless track_access
  bool track_access_;
  ZoneMap zone_map_;
  // Uniform per-tick decrements folded but not yet applied to rows, in
  // fold order (reconstruction replays them sequentially so it matches
  // the eager path bit for bit). Cleared by MaterializePendingDecay.
  std::vector<double> pending_decay_;
  uint64_t decay_epoch_ = 0;
  // Non-null iff the segment is on the cold tier; the plain vectors
  // above are then empty (audited by the `encoded-segment` fsck rule).
  std::unique_ptr<encode::FrozenSegment> frozen_;
  uint64_t last_touch_epoch_ = 0;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_STORAGE_SEGMENT_H_

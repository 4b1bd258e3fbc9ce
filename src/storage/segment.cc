#include "storage/segment.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fungusdb {

namespace {

bool IsNumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kFloat64 ||
         t == DataType::kTimestamp;
}

/// Double image of a numeric cell — the space Value::Compare works in.
/// int64/timestamp -> double is monotone, so zone bounds taken here are
/// a sound superset for double-space comparisons.
double NumericCell(const Column& col, size_t pos) {
  switch (col.type()) {
    case DataType::kInt64:
      return static_cast<double>(
          static_cast<const Int64Column&>(col).at(pos));
    case DataType::kFloat64:
      return static_cast<const Float64Column&>(col).at(pos);
    case DataType::kTimestamp:
      return static_cast<double>(
          static_cast<const TimestampColumn&>(col).at(pos));
    default:
      assert(false);
      return 0.0;
  }
}

void WidenColumnZone(ColumnZone& zone, double v) {
  if (std::isnan(v)) {
    zone.has_nan = true;
    return;
  }
  zone.min = std::min(zone.min, v);
  zone.max = std::max(zone.max, v);
}

}  // namespace

Segment::Segment(const Schema& schema, uint64_t first_row, size_t capacity,
                 bool track_access)
    : first_row_(first_row), capacity_(capacity), track_access_(track_access) {
  columns_.reserve(schema.num_fields());
  zone_map_.columns.resize(schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& f = schema.fields()[i];
    columns_.push_back(MakeColumn(f.type));
    zone_map_.columns[i].tracked = IsNumericType(f.type);
  }
}

void Segment::Append(const std::vector<Value>& values, Timestamp now) {
  assert(!full());
  assert(!frozen_);
  assert(values.size() == columns_.size());
  // A new row must not inherit decrements from ticks that predate it —
  // the shard materializes before appending (mutating touch).
  assert(pending_decay_.empty());
  if (ts_.size() == ts_.capacity()) {
    // The per-row vectors grow with the rows, so an open tail costs what
    // it holds, and stop at exactly the segment's capacity.
    const size_t grown =
        std::min(capacity_, std::max<size_t>(64, 2 * ts_.size()));
    ts_.reserve(grown);
    freshness_.reserve(grown);
    alive_.reserve(grown);
    if (track_access_) access_.reserve(grown);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i]->Append(values[i]);
    ColumnZone& zone = zone_map_.columns[i];
    if (zone.tracked && !values[i].is_null()) {
      WidenColumnZone(zone, NumericCell(*columns_[i], ts_.size()));
    }
  }
  ts_.push_back(now);
  freshness_.push_back(1.0);
  alive_.push_back(1);
  if (track_access_) access_.push_back(0);
  ++live_count_;
  if (full()) {
    // No append can arrive any more: string columns drop their append
    // index and keep only codes and dictionary.
    for (auto& col : columns_) {
      if (col->type() == DataType::kString) {
        static_cast<StringColumn&>(*col).Seal();
      }
    }
  }
  zone_map_.min_ts = std::min(zone_map_.min_ts, now);
  zone_map_.max_ts = std::max(zone_map_.max_ts, now);
  zone_map_.min_f = std::min(zone_map_.min_f, 1.0);
  zone_map_.max_f = std::max(zone_map_.max_f, 1.0);
}

bool Segment::SetFreshness(size_t off, double f) {
  assert(off < num_rows());
  assert(!frozen_);
  if (!alive_[off]) return false;
  // No-op early-out: decay ticks call this for every infected tuple, and
  // the write often repeats the old value. Live freshness is in (0, 1],
  // so an equal incoming value needs neither clamping nor killing, and
  // the zone bounds already cover it.
  if (f == freshness_[off]) return false;
  f = std::clamp(f, 0.0, 1.0);
  freshness_[off] = f;
  if (f <= 0.0) {
    alive_[off] = 0;
    --live_count_;
    if (live_count_ == 0) {
      // Empty of live rows: the live-freshness zone tightens to empty
      // for free (the only O(1) tightening; others need a recount).
      zone_map_.min_f = std::numeric_limits<double>::infinity();
      zone_map_.max_f = -std::numeric_limits<double>::infinity();
    }
    return true;
  }
  zone_map_.min_f = std::min(zone_map_.min_f, f);
  zone_map_.max_f = std::max(zone_map_.max_f, f);
  return false;
}

bool Segment::Kill(size_t off) {
  assert(off < num_rows());
  assert(!frozen_);
  if (!alive_[off]) return false;
  alive_[off] = 0;
  freshness_[off] = 0.0;
  --live_count_;
  if (live_count_ == 0) {
    zone_map_.min_f = std::numeric_limits<double>::infinity();
    zone_map_.max_f = -std::numeric_limits<double>::infinity();
  }
  return true;
}

Value Segment::GetValue(size_t off, size_t col) const {
  if (!frozen_) return columns_[col]->GetValue(off);
  const encode::FrozenColumn& fc = frozen_->columns[col];
  if (fc.IsNull(off)) return Value::Null();
  switch (fc.type) {
    case DataType::kInt64:
      return Value::Int64(fc.ints.Get(off));
    case DataType::kTimestamp:
      return Value::TimestampVal(fc.ints.Get(off));
    case DataType::kFloat64:
      return Value::Float64(fc.doubles[off]);
    case DataType::kString:
      return Value::String(fc.strings.Get(off));
    case DataType::kBool:
      return Value::Bool(fc.bools.Get(off) != 0);
  }
  assert(false);
  return Value::Null();
}

size_t Segment::MaterializePendingDecay(uint64_t epoch) {
  decay_epoch_ = epoch;
  if (pending_decay_.empty()) return 0;
  size_t rewritten = 0;
  if (frozen_) {
    // The encoded image updates in place — materializing never thaws
    // (snapshot writes materialize every table; thawing there would
    // evict the whole cold tier each save).
    if (frozen_->uniform_freshness) {
      // All live rows share one stored value, so the fold-order replay
      // collapses to a single scalar replay: bit-identical to the
      // per-row path because every row would execute the exact same
      // subtraction sequence from the exact same start value.
      if (live_count_ > 0) {
        double f = frozen_->uniform_value;
        for (const double d : pending_decay_) f -= d;
        frozen_->uniform_value = f;
        rewritten = live_count_;
      }
    } else {
      std::vector<uint8_t> alive(frozen_->num_rows);
      frozen_->alive.Decode(0, frozen_->num_rows, alive.data());
      for (size_t off = 0; off < frozen_->num_rows; ++off) {
        if (!alive[off]) continue;
        double f = frozen_->freshness_raw[off];
        for (const double d : pending_decay_) f -= d;
        frozen_->freshness_raw[off] = f;
        ++rewritten;
      }
    }
  } else {
    for (size_t off = 0; off < num_rows(); ++off) {
      if (!alive_[off]) continue;
      // Replay in fold order — the exact op sequence the eager path
      // would have executed tick by tick, so the result matches bit
      // for bit.
      double f = freshness_[off];
      for (const double d : pending_decay_) f -= d;
      freshness_[off] = f;
      ++rewritten;
    }
  }
  // The live-freshness bounds shift by the same replay: x ↦ x - d is
  // weakly monotone, so the replayed bounds still cover every live row.
  if (zone_map_.has_live_freshness()) {
    double lo = zone_map_.min_f;
    double hi = zone_map_.max_f;
    for (const double d : pending_decay_) {
      lo -= d;
      hi -= d;
    }
    zone_map_.min_f = lo;
    zone_map_.max_f = hi;
  }
  pending_decay_.clear();
  if (frozen_) frozen_->checksum = frozen_->ComputeChecksum();
  return rewritten;
}

void Segment::RecomputeZoneMap() {
  // A recount is a mutating touch: thaw first so it reads plain rows.
  if (frozen_) Thaw();
  // The recount reads the stored vectors; fold the pending decrements in
  // first so the result describes what rows actually hold. The epoch is
  // already current (folds stamp it), so re-stamping it is a no-op.
  MaterializePendingDecay(decay_epoch_);
  ZoneMap fresh;
  fresh.columns.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    fresh.columns[c].tracked = zone_map_.columns[c].tracked;
  }
  for (size_t off = 0; off < num_rows(); ++off) {
    fresh.min_ts = std::min(fresh.min_ts, ts_[off]);
    fresh.max_ts = std::max(fresh.max_ts, ts_[off]);
    if (alive_[off]) {
      fresh.min_f = std::min(fresh.min_f, freshness_[off]);
      fresh.max_f = std::max(fresh.max_f, freshness_[off]);
    }
    for (size_t c = 0; c < columns_.size(); ++c) {
      ColumnZone& zone = fresh.columns[c];
      if (zone.tracked && !columns_[c]->IsNull(off)) {
        WidenColumnZone(zone, NumericCell(*columns_[c], off));
      }
    }
  }
  zone_map_ = std::move(fresh);
}

void Segment::Freeze() {
  assert(can_freeze());
  // The encoding holds true stored values, not "stored minus pending" —
  // fold the pending decrements in first (cheap: a freeze-eligible
  // segment is exactly the kind whose pending list is short or empty).
  MaterializePendingDecay(decay_epoch_);
  const size_t n = ts_.size();
  auto fz = std::make_unique<encode::FrozenSegment>();
  fz->num_rows = n;
  fz->plain_bytes = MemoryUsage();
  fz->ts = encode::PackedInts::Pack(ts_.data(), n);
  // Uniform-value fast path: lazy decay keeps every live row of a cold
  // segment at one shared stored freshness, and dead rows store exactly
  // 0.0 by invariant — liveness alone reconstructs the vector.
  bool uniform = true;
  double shared = 0.0;
  bool seen_live = false;
  for (size_t off = 0; off < n && uniform; ++off) {
    if (!alive_[off]) continue;
    if (!seen_live) {
      shared = freshness_[off];
      seen_live = true;
    } else if (freshness_[off] != shared) {
      uniform = false;
    }
  }
  if (uniform) {
    fz->uniform_freshness = true;
    fz->uniform_value = seen_live ? shared : 0.0;
  } else {
    fz->uniform_freshness = false;
    fz->freshness_raw = freshness_;
  }
  fz->alive = encode::RleBytes::Pack(alive_.data(), n);
  fz->columns.reserve(columns_.size());
  std::vector<uint8_t> valid(n);
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = *columns_[c];
    encode::FrozenColumn fc;
    fc.type = col.type();
    fc.null_count = col.null_count();
    fc.plain_bytes = col.MemoryUsage();
    for (size_t off = 0; off < n; ++off) {
      valid[off] = col.IsNull(off) ? 0 : 1;
    }
    fc.validity = encode::RleBytes::Pack(valid.data(), n);
    switch (fc.type) {
      case DataType::kInt64:
        fc.ints = encode::PackedInts::Pack(
            static_cast<const Int64Column&>(col).data().data(), n);
        break;
      case DataType::kTimestamp:
        fc.ints = encode::PackedInts::Pack(
            static_cast<const TimestampColumn&>(col).data().data(), n);
        break;
      case DataType::kFloat64:
        fc.doubles = static_cast<const Float64Column&>(col).data();
        break;
      case DataType::kString: {
        // Already dictionary-coded in first-appearance order with nulls
        // on the "" code — exactly DictStrings::Pack's output, so the
        // codes only need their runs packed and the dictionary moves.
        auto& strings = static_cast<StringColumn&>(col);
        fc.strings.codes = encode::RleCodes::Pack(strings.codes().data(), n);
        fc.strings.dict = strings.ReleaseDictionary();
        break;
      }
      case DataType::kBool: {
        const std::vector<bool>& bits =
            static_cast<const BoolColumn&>(col).data();
        std::vector<uint8_t> bytes(n);
        for (size_t off = 0; off < n; ++off) bytes[off] = bits[off] ? 1 : 0;
        fc.bools = encode::RleBytes::Pack(bytes.data(), n);
        break;
      }
    }
    fz->columns.push_back(std::move(fc));
  }
  fz->checksum = fz->ComputeChecksum();
  frozen_ = std::move(fz);
  // Release the plain representation — this is the whole point.
  columns_.clear();
  ts_ = std::vector<Timestamp>();
  freshness_ = std::vector<double>();
  alive_ = std::vector<uint8_t>();
}

void Segment::Thaw() {
  assert(frozen_);
  const std::unique_ptr<encode::FrozenSegment> fz = std::move(frozen_);
  const size_t n = static_cast<size_t>(fz->num_rows);
  ts_.reserve(capacity_);
  ts_.resize(n);
  fz->ts.Decode(0, n, ts_.data());
  alive_.reserve(capacity_);
  alive_.resize(n);
  fz->alive.Decode(0, n, alive_.data());
  freshness_.reserve(capacity_);
  if (fz->uniform_freshness) {
    freshness_.resize(n);
    for (size_t off = 0; off < n; ++off) {
      freshness_[off] = alive_[off] ? fz->uniform_value : 0.0;
    }
  } else {
    freshness_ = fz->freshness_raw;
    freshness_.reserve(capacity_);
  }
  columns_.reserve(fz->columns.size());
  std::vector<uint8_t> valid(n);
  for (encode::FrozenColumn& fc : fz->columns) {
    std::unique_ptr<Column> col = MakeColumn(fc.type);
    fc.validity.Decode(0, n, valid.data());
    switch (fc.type) {
      case DataType::kInt64: {
        auto& typed = static_cast<Int64Column&>(*col);
        for (size_t off = 0; off < n; ++off) {
          // Null cells re-enter through Append(Null) so the backing
          // vector regains the exact T{} slot freeze captured.
          if (!valid[off]) {
            col->Append(Value::Null());
          } else {
            typed.AppendTyped(fc.ints.Get(off));
          }
        }
        break;
      }
      case DataType::kTimestamp: {
        auto& typed = static_cast<TimestampColumn&>(*col);
        for (size_t off = 0; off < n; ++off) {
          if (!valid[off]) {
            col->Append(Value::Null());
          } else {
            typed.AppendTyped(static_cast<Timestamp>(fc.ints.Get(off)));
          }
        }
        break;
      }
      case DataType::kFloat64: {
        auto& typed = static_cast<Float64Column&>(*col);
        for (size_t off = 0; off < n; ++off) {
          if (!valid[off]) {
            col->Append(Value::Null());
          } else {
            typed.AppendTyped(fc.doubles[off]);
          }
        }
        break;
      }
      case DataType::kString: {
        std::vector<uint32_t> codes(n);
        fc.strings.codes.Decode(0, n, codes.data());
        col = std::make_unique<StringColumn>(std::move(fc.strings.dict),
                                             std::move(codes), valid.data());
        break;
      }
      case DataType::kBool: {
        auto& typed = static_cast<BoolColumn&>(*col);
        std::vector<uint8_t> bits(n);
        fc.bools.Decode(0, n, bits.data());
        for (size_t off = 0; off < n; ++off) {
          if (!valid[off]) {
            col->Append(Value::Null());
          } else {
            typed.AppendTyped(bits[off] != 0);
          }
        }
        break;
      }
    }
    columns_.push_back(std::move(col));
  }
}

const uint8_t* Segment::DecodeAlive(size_t base, size_t n,
                                    uint8_t* scratch) const {
  if (!frozen_) return alive_.data() + base;
  frozen_->alive.Decode(base, n, scratch);
  return scratch;
}

bool Segment::AnyLive(size_t base, size_t n) const {
  if (frozen_) return frozen_->alive.AnyNonZero(base, n);
  for (size_t i = 0; i < n; ++i) {
    if (alive_[base + i]) return true;
  }
  return false;
}

void Segment::DecodeStoredFreshness(size_t base, size_t n,
                                    const uint8_t* alive,
                                    double* out) const {
  if (!frozen_) {
    std::copy(freshness_.begin() + static_cast<ptrdiff_t>(base),
              freshness_.begin() + static_cast<ptrdiff_t>(base + n), out);
    return;
  }
  if (frozen_->uniform_freshness) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = alive[i] ? frozen_->uniform_value : 0.0;
    }
    return;
  }
  std::copy(frozen_->freshness_raw.begin() + static_cast<ptrdiff_t>(base),
            frozen_->freshness_raw.begin() + static_cast<ptrdiff_t>(base + n),
            out);
}

void Segment::DecodeNulls(size_t col, size_t base, size_t n,
                          uint8_t* nulls) const {
  if (!frozen_) {
    const Column& c = *columns_[col];
    for (size_t i = 0; i < n; ++i) nulls[i] = c.IsNull(base + i) ? 1 : 0;
    return;
  }
  frozen_->columns[col].validity.Decode(base, n, nulls);  // 1 = valid...
  for (size_t i = 0; i < n; ++i) nulls[i] ^= 1;  // ... flipped to 1 = null
}

const Timestamp* Segment::DecodeTs(size_t base, size_t n,
                                   Timestamp* scratch) const {
  if (!frozen_) return ts_.data() + base;
  frozen_->ts.Decode(base, n, scratch);
  return scratch;
}

const int64_t* Segment::DecodeInt64Column(size_t col, size_t base, size_t n,
                                          int64_t* scratch) const {
  if (!frozen_) {
    const Column& c = *columns_[col];
    if (c.type() == DataType::kTimestamp) {
      return static_cast<const TimestampColumn&>(c).data().data() + base;
    }
    assert(c.type() == DataType::kInt64);
    return static_cast<const Int64Column&>(c).data().data() + base;
  }
  frozen_->columns[col].ints.Decode(base, n, scratch);
  return scratch;
}

const double* Segment::DecodeFloat64Column(size_t col, size_t base,
                                           size_t n) const {
  assert(base + n <= num_rows());
  (void)n;
  if (!frozen_) {
    return static_cast<const Float64Column&>(*columns_[col]).data().data() +
           base;
  }
  return frozen_->columns[col].doubles.data() + base;
}

const uint32_t* Segment::DecodeStringCodes(size_t col, size_t base,
                                           size_t n,
                                           uint32_t* scratch) const {
  if (!frozen_) {
    return static_cast<const StringColumn&>(*columns_[col]).codes().data() +
           base;
  }
  frozen_->columns[col].strings.codes.Decode(base, n, scratch);
  return scratch;
}

const std::vector<std::string>& Segment::StringDictionary(size_t col) const {
  if (!frozen_) {
    return static_cast<const StringColumn&>(*columns_[col]).dictionary();
  }
  return frozen_->columns[col].strings.dict;
}

std::optional<uint32_t> Segment::StringCodeOf(size_t col,
                                              std::string_view needle) const {
  return FindDictionaryCode(StringDictionary(col), needle);
}

void Segment::DecodeBoolColumn(size_t col, size_t base, size_t n,
                               uint8_t* out) const {
  if (!frozen_) {
    const std::vector<bool>& data =
        static_cast<const BoolColumn&>(*columns_[col]).data();
    for (size_t i = 0; i < n; ++i) out[i] = data[base + i] ? 1 : 0;
    return;
  }
  frozen_->columns[col].bools.Decode(base, n, out);
}

void Segment::MatchStringEq(size_t col, size_t base, size_t n,
                            uint32_t code, uint8_t* eq,
                            uint8_t* nulls) const {
  DecodeNulls(col, base, n, nulls);
  if (!frozen_) {
    const uint32_t* codes =
        static_cast<const StringColumn&>(*columns_[col]).codes().data() +
        base;
    for (size_t i = 0; i < n; ++i) {
      eq[i] = (codes[i] == code ? 1 : 0) & (nulls[i] ^ 1);
    }
    return;
  }
  // Compare the codes run by run, without decoding them.
  const encode::RleCodes& codes = frozen_->columns[col].strings.codes;
  size_t run = codes.RunOf(base);
  size_t pos = base;
  size_t i = 0;
  while (i < n) {
    const uint8_t match = codes.values[run] == code ? 1 : 0;
    const size_t run_end = std::min<size_t>(codes.ends[run], base + n);
    for (; pos < run_end; ++pos, ++i) eq[i] = match & (nulls[i] ^ 1);
    ++run;
  }
}

void Segment::RecordAccess(size_t off) {
  if (track_access_ && off < access_.size()) ++access_[off];
}

uint32_t Segment::AccessCount(size_t off) const {
  if (!track_access_ || off >= access_.size()) return 0;
  return access_[off];
}

size_t Segment::MemoryUsage() const {
  size_t bytes = sizeof(Segment);
  bytes += zone_map_.columns.capacity() * sizeof(ColumnZone);
  if (frozen_) return bytes + frozen_->MemoryUsage();
  for (const auto& col : columns_) bytes += col->MemoryUsage();
  bytes += ts_.capacity() * sizeof(Timestamp);
  bytes += freshness_.capacity() * sizeof(double);
  bytes += alive_.capacity() * sizeof(uint8_t);
  bytes += access_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace fungusdb

#ifndef FUNGUSDB_QUERY_AGGREGATE_H_
#define FUNGUSDB_QUERY_AGGREGATE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "query/binder.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace fungusdb {

/// The tail of the batch pipeline (DESIGN.md §11): everything the engine
/// does with the rows a scan kept. The scan hands over one selection
/// vector per surviving segment; aggregation, GROUP BY and projection
/// then read typed column batches decoded at those offsets, with no
/// RowId, no per-row segment lookup and no Value until a result cell is
/// emitted.

/// Rows per batch; equal to the filter kernel's batch.
inline constexpr size_t kPipelineBatch = 1024;

/// In-segment offsets of the rows a scan kept from one segment,
/// ascending.
struct SegmentSelection {
  const Segment* segment = nullptr;
  std::vector<uint32_t> offsets;
};

/// Rows [base, base + n) of one segment, of which the `m` at in-batch
/// positions sel[0..m) (ascending) are selected.
struct SelectedBatch {
  const Segment* segment = nullptr;
  size_t base = 0;
  size_t n = 0;
  const uint32_t* sel = nullptr;
  size_t m = 0;
};

/// Calls `fn(const SelectedBatch&)` -> Status for every batch of
/// `selection` that holds at least one selected row, in offset order.
Status ForEachBatch(const SegmentSelection& selection,
                    const std::function<Status(const SelectedBatch&)>& fn);

/// One operand's cells over a batch, addressed by in-batch position.
/// Only the selected positions are guaranteed to be filled.
struct Cells {
  enum class Kind : uint8_t {
    kInt64,
    kTimestamp,
    kFloat64,
    kString,
    kBool,
    kValue,  // tree-walker output: any type, nulls inside the Values
  };
  Kind kind = Kind::kValue;
  const int64_t* ints = nullptr;              // kInt64, kTimestamp
  const double* doubles = nullptr;            // kFloat64
  const std::string_view* strings = nullptr;  // kString
  const uint8_t* bools = nullptr;             // kBool
  const Value* values = nullptr;              // kValue
  /// 1 = null cell; nullptr when the batch holds no null cell.
  const uint8_t* nulls = nullptr;
  /// kString on a frozen segment: the dictionary codes behind
  /// `strings` (equal codes, equal strings within one segment).
  const uint32_t* codes = nullptr;

  bool IsNull(size_t i) const {
    if (kind == Kind::kValue) return values[i].is_null();
    return nulls != nullptr && nulls[i] != 0;
  }

  /// The cell as a result Value.
  Value Box(size_t i) const;
};

/// A bound expression as a per-batch cell source. Column references —
/// user columns, `__ts`, `__freshness` — decode typed spans through the
/// segment's decode-to-scratch API (zero copy where the tier allows).
/// Any other expression is evaluated by the tree walker (EvalScalar) at
/// each selected row: it is one more operand source, not a second
/// pipeline.
class Operand {
 public:
  /// Lowers `expr`, which must outlive the operand.
  explicit Operand(const BoundExpr& expr);

  /// User column `col` of type `type` (SELECT *).
  static Operand Column(size_t col, DataType type);

  /// Effective freshness: the stored value with the segment's pending
  /// decay replayed in fold order, exactly as Segment::Freshness.
  static Operand Freshness();

  /// Fills cells() for the selected rows of `batch`. Fails only when
  /// the walker does (e.g. division by zero).
  Status Load(const Table& table, const SelectedBatch& batch);

  const Cells& cells() const { return cells_; }

 private:
  enum class Source : uint8_t { kUser, kTs, kFreshness, kWalker };

  Operand() = default;

  Source source_ = Source::kWalker;
  size_t col_ = 0;
  DataType type_ = DataType::kInt64;
  const BoundExpr* expr_ = nullptr;
  Cells cells_;
  // Scratch, sized on first use.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string_view> strings_;
  std::vector<uint8_t> bytes_;
  std::vector<uint8_t> nulls_;
  std::vector<uint32_t> codes_;
  std::vector<Value> values_;
};

/// Key equality for GROUP BY and DISTINCT: the same value. NULL equals
/// NULL; values of different types differ; float64 cells are equal when
/// `a == b` or both are NaN (so -0.0 and 0.0 are one key, all NaNs
/// another).
bool SameValue(const Value& a, const Value& b);

/// Hash consistent with SameValue.
size_t HashValue(const Value& v);

/// The one aggregate state, for one aggregate call within one group.
/// Cells are accumulated in row order (segments in LiveSegments()
/// order, offsets ascending), which fixes the floating-point sums:
///  * `sum_d` sums every numeric cell as double, `sum_i` only int64
///    cells, exactly (wrapping);
///  * the F-variants weight each cell by its effective freshness;
///  * MIN/MAX compare in double space for numeric cells, as
///    Value::Compare does, and keep the first value on a tie — which
///    decides NaN cells and int64 values beyond 2^53.
struct AggState {
  uint64_t count = 0;
  int64_t sum_i = 0;
  double sum_d = 0.0;
  double weighted_count = 0.0;
  double weighted_sum = 0.0;
  bool has_extreme = false;
  double extreme_key = 0.0;  // double image of a numeric `extreme`
  Value extreme;             // current MIN or MAX

  Value Finalize(AggFn fn, std::optional<DataType> result_type) const;
};

/// Open-addressing table from a 64-bit key hash to a dense id. The
/// caller supplies key equality for ids whose hash matches; for keys
/// hashed by a bijection (MixWord) the hash alone decides.
class IdTable {
 public:
  /// The id whose key has hash `hash` and satisfies `same(id)`, or,
  /// when none does, the next new id (ids count up from 0); `inserted`
  /// tells which.
  template <typename Same>
  uint32_t FindOrInsert(uint64_t hash, Same&& same, bool* inserted) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t p = hash & mask;; p = (p + 1) & mask) {
      Slot& slot = slots_[p];
      if (slot.id == kEmpty) {
        slot.hash = hash;
        slot.id = static_cast<uint32_t>(size_++);
        *inserted = true;
        return slot.id;
      }
      if (slot.hash == hash && same(slot.id)) {
        *inserted = false;
        return slot.id;
      }
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kEmpty;
  };

  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// GROUP BY plus aggregation for one query. Groups are keyed by typed
/// values under SameValue; on frozen segments each dictionary code of
/// a string key is mapped to its key id once per segment. Without GROUP
/// BY there is exactly one group, present even over empty input.
class Aggregation {
 public:
  /// `calls` are the aggregate select items in select-list order and
  /// `keys` the GROUP BY expressions; both must outlive this object.
  Aggregation(const std::vector<const BoundExpr*>& calls,
              const std::vector<BoundExpr>& keys);

  /// Folds the selected rows of one segment in. Segments must arrive in
  /// LiveSegments() order.
  Status Add(const Table& table, const SegmentSelection& selection);

  /// Group ids in output order: sorted by the rendered key (each key
  /// Value::ToString, NULL as \x01, joined by \x1F), ties broken by
  /// first appearance.
  std::vector<uint32_t> OutputOrder() const;

  /// Value of GROUP BY key `key` in the first row of group `group`.
  const Value& KeyValue(uint32_t group, size_t key) const;

  /// Finalized value of aggregate call `call` in group `group`.
  Value Result(uint32_t group, size_t call) const;

 private:
  /// Dense ids for the values of one GROUP BY key under SameValue, in
  /// first-appearance order.
  class KeyDictionary {
   public:
    void Assign(const Cells& cells, const SelectedBatch& batch,
                uint32_t* ids);

   private:
    struct ValueHasher {
      size_t operator()(const Value& v) const { return HashValue(v); }
    };
    struct ValueEq {
      bool operator()(const Value& a, const Value& b) const {
        return SameValue(a, b);
      }
    };

    uint32_t NullId();
    uint32_t WordId(uint64_t word);
    uint32_t StringId(std::string_view s);

    uint32_t next_id_ = 0;
    int64_t null_id_ = -1;
    // words_ and strings_ number their own entries; these map them to
    // the dictionary's ids.
    IdTable words_;
    std::vector<uint32_t> word_ids_;
    IdTable strings_;
    std::vector<std::string> string_keys_;
    std::vector<uint32_t> string_ids_;
    std::unordered_map<Value, uint32_t, ValueHasher, ValueEq> others_;
    // Frozen string keys: dictionary code -> id, for code_segment_.
    const Segment* code_segment_ = nullptr;
    std::vector<int64_t> code_ids_;
  };

  struct Call {
    const BoundExpr* expr = nullptr;
    std::optional<Operand> arg;  // empty for COUNT(*) / FCOUNT(*)
  };

  /// Writes the group id of every selected row of `batch` to slots_,
  /// creating groups (and their states) on first appearance.
  void AssignGroups(const SelectedBatch& batch);

  std::vector<Call> calls_;
  std::vector<Operand> key_operands_;
  std::vector<KeyDictionary> key_dicts_;
  // Multi-key chaining: links_[j] maps (prefix id, id of key j + 1) to
  // the id of the longer prefix; the last level's ids are group ids.
  std::vector<IdTable> links_;
  // Each group's key values as its first row had them: num_groups_ x
  // keys. (Rows of one group can differ, e.g. -0.0 and 0.0.)
  std::vector<Value> group_keys_;
  size_t num_groups_ = 0;
  std::optional<Operand> freshness_;  // only when an F-aggregate is present
  std::vector<AggState> states_;      // num_groups_ x calls_
  std::vector<uint32_t> slots_;       // per selected row of a batch
  std::vector<uint32_t> key_ids_;     // keys x kPipelineBatch
};

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_AGGREGATE_H_

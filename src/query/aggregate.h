#ifndef FUNGUSDB_QUERY_AGGREGATE_H_
#define FUNGUSDB_QUERY_AGGREGATE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/id_table.h"
#include "common/result.h"
#include "query/binder.h"
#include "storage/segment.h"

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
  };
  Kind kind = Kind::kInt64;
  const int64_t* ints = nullptr;              // kInt64, kTimestamp
  const double* doubles = nullptr;            // kFloat64
  const uint8_t* bools = nullptr;             // kBool
  /// 1 = null cell; nullptr when the batch holds no null cell.
  const uint8_t* nulls = nullptr;
  /// kString: dictionary codes (equal codes, equal strings) and the
  /// dictionary they index: the segment's for a string column, one
  /// built for this batch (`batch_dict`) for any other string operand.
  const uint32_t* codes = nullptr;
  std::span<const std::string> dict;
  bool batch_dict = false;

  bool IsNull(size_t i) const { return nulls != nullptr && nulls[i] != 0; }

  /// A kString cell.
  const std::string& String(size_t i) const { return dict[codes[i]]; }

  /// The cell as a result Value.
  Value Box(size_t i) const;
};

/// Calls `fn(accept)` with the predicate `accept(x < y, x > y)` that
/// decides `x <op> y` under Value::Compare's trichotomy: NaN is neither
/// < nor >, so it compares "equal" to everything. The one rule for
/// every comparison: the filter's compile-time fold and batch kernels,
/// and Operand's comparison nodes.
template <typename Fn>
auto WithAccept(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kEq:
      return fn([](bool lt, bool gt) { return !(lt | gt); });
    case BinaryOp::kNe:
      return fn([](bool lt, bool gt) { return lt | gt; });
    case BinaryOp::kLt:
      return fn([](bool lt, bool) { return lt; });
    case BinaryOp::kLe:
      return fn([](bool, bool gt) { return !gt; });
    case BinaryOp::kGt:
      return fn([](bool, bool gt) { return gt; });
    default:
      return fn([](bool lt, bool) { return !lt; });
  }
}

/// Calls `fn(x)`, with x(i) the numeric cell at row i as a double: the
/// space every numeric comparison and float64 operation works in.
template <typename Fn>
auto WithDoubles(const Cells& c, Fn&& fn) {
  if (c.kind == Cells::Kind::kFloat64) {
    const double* v = c.doubles;
    return fn([v](uint32_t i) { return v[i]; });
  }
  const int64_t* v = c.ints;
  return fn([v](uint32_t i) { return static_cast<double>(v[i]); });
}

/// A bound expression as a per-batch cell source: the engine's one
/// expression evaluator. Column references — user columns, `__ts`,
/// `__freshness` — decode typed spans through the segment's
/// decode-to-scratch API (zero copy where the tier allows). Every other
/// node evaluates its children over the batch's selected rows and
/// writes typed cells at those rows, one node at a time: arithmetic,
/// unary minus, NOT, IS [NOT] NULL, comparisons, AND / OR and the
/// scalar functions. Semantics are SQL's and the binder's types:
///  * a NULL operand makes arithmetic, a comparison and NOT NULL;
///    a function is NULL when any argument is, and an argument is
///    evaluated only on the rows where every earlier one is non-null;
///  * comparisons are in double space over numerics (WithAccept's NaN
///    rule), lexicographic over strings, false < true over bools;
///  * AND / OR follow Kleene logic, and the right arm is evaluated only
///    on the rows the left arm leaves undecided;
///  * int64 `+ - *`, unary `-` and `abs` wrap in two's complement,
///    `INT64_MIN % -1` is 0, and `/` is float64;
///  * division and modulo by zero and a `time_bucket` width <= 0 are
///    errors on the rows that reach them, and only there.
class Operand {
 public:
  /// Lowers `expr`. The operand keeps what it needs, so `expr` may go.
  explicit Operand(const BoundExpr& expr);

  /// User column `col` of type `type` (SELECT *).
  static Operand Column(size_t col, DataType type);

  /// Effective freshness: the stored value with the segment's pending
  /// decay replayed in fold order, exactly as Segment::Freshness.
  static Operand Freshness();

  /// Fills cells() at the selected rows of `batch`. Fails with the
  /// error of the first node that meets one on a row it evaluates
  /// (division by zero, ...); cells() is then unspecified.
  Status Load(const SelectedBatch& batch);

  const Cells& cells() const { return cells_; }

 private:
  enum class Source : uint8_t {
    kUser,
    kTs,
    kFreshness,
    kLiteral,
    kArithmetic,  // + - * / %
    kCompare,     // = != < <= > >=
    kLogic,       // AND, OR
    kUnary,
    kFunction,
    kAggregate,  // folded by the engine, never loaded
  };

  Operand() = default;

  void LoadColumn(const SelectedBatch& batch);
  void LoadLiteral(const SelectedBatch& batch);
  Status LoadArithmetic(const SelectedBatch& batch);
  Status LoadCompare(const SelectedBatch& batch);
  Status LoadLogic(const SelectedBatch& batch);
  Status LoadUnary(const SelectedBatch& batch);
  Status LoadFunction(const SelectedBatch& batch);
  /// Points cells() at this operand's scratch for a result of type
  /// type_, with a null flag per row, and returns the null flags.
  uint8_t* ResultCells();

  Source source_ = Source::kLiteral;
  /// The column's type, or the node's result type; nullopt only for
  /// the untyped NULL literal.
  std::optional<DataType> type_;
  size_t col_ = 0;  // kUser
  Value literal_;   // kLiteral
  BinaryOp binary_op_ = BinaryOp::kEq;
  UnaryOp unary_op_ = UnaryOp::kNot;
  ScalarFn fn_ = ScalarFn::kAbs;
  std::vector<Operand> args_;  // children, in SQL order
  Cells cells_;
  // Scratch, sized on first use.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bytes_;
  std::vector<uint8_t> nulls_;
  std::vector<uint32_t> codes_;
  std::vector<std::string> strings_;  // a string result's dictionary
  std::vector<uint32_t> code_map_;    // argument code -> strings_ code
  std::vector<uint32_t> sel_;         // rows an arm or argument sees
};

/// Key equality for GROUP BY and DISTINCT: the same value. NULL equals
/// NULL; values of different types differ; float64 cells are equal when
/// `a == b` or both are NaN (so -0.0 and 0.0 are one key, all NaNs
/// another).
bool SameValue(const Value& a, const Value& b);

/// Hash consistent with SameValue.
size_t HashValue(const Value& v);

/// The float sums of one aggregate call in one group: the only part of
/// an aggregate whose value depends on the order cells are added in.
struct FloatSums {
  double sum = 0.0;             // every numeric cell, as double
  double weighted_count = 0.0;  // F-aggregates: effective freshness
  double weighted_sum = 0.0;    // F-aggregates: freshness x cell
};

/// Segment position of a MIN/MAX state that has not seen its cell yet.
inline constexpr uint32_t kNoPosition = UINT32_MAX;

/// The one aggregate state, for one aggregate call within one group.
/// An AggregateFolder keeps one per (group, call) across all the
/// segments it folds, cells in offset order; the Aggregation merges the
/// folders' states. That fixes the answer whatever the thread count:
///  * `count`, and `sum_i` over int64 cells (exact, wrapping), add in
///    any order;
///  * float sums depend on order, so `sums` hold only the segment the
///    folder is folding; each segment hands its sums over in a
///    SegmentPartial, and the Aggregation adds them in LiveSegments()
///    order, so a float SUM or AVG is the segment-ordered sum of
///    per-segment partial sums; Finalize takes that total as an
///    argument;
///  * MIN/MAX is the row-at-a-time answer in scan order: NaN when the
///    group's first non-null cell is NaN, otherwise the first cell no
///    later cell beats. Numeric cells compare in double space, as
///    Value::Compare does, so int64 values beyond 2^53 can tie. The
///    positions (the segment's index in the scan) of the first cell and
///    of the extreme let states from different folders merge to the
///    same answer.
struct AggState {
  uint64_t count = 0;
  int64_t sum_i = 0;
  FloatSums sums;
  uint32_t first_pos = kNoPosition;  // first non-null MIN/MAX cell
  bool first_is_nan = false;
  double first_nan = 0.0;  // that cell, when it is NaN
  bool has_extreme = false;  // a non-NaN MIN/MAX cell was seen
  uint32_t extreme_pos = kNoPosition;
  double extreme_key = 0.0;  // double image of a numeric `extreme`
  Value extreme;             // current MIN or MAX

  Value Finalize(AggFn fn, std::optional<DataType> result_type,
                 const FloatSums& total) const;
};

/// Whether aggregate call `call` reads FloatSums.
bool HasFloatSums(const BoundExpr& call);

class AggregateFolder;

/// What one segment contributes that must merge in segment order: the
/// float sums of the groups its selected rows formed, and the groups
/// the folder first met in it, with their key values as the segment's
/// first row of the group has them. The merge never reads the folder,
/// which may be folding a later segment meanwhile.
struct SegmentPartial {
  const AggregateFolder* folder = nullptr;
  /// Folder ids of the groups with float sums here, in first-appearance
  /// order; empty when no call has float sums.
  std::vector<uint32_t> groups;
  std::vector<FloatSums> sums;  // groups x calls with float sums
  uint32_t first_new_group = 0;  // folder ids from here on are new
  std::vector<Value> new_keys;   // new groups x keys, in folder id order
};

/// Folds segments for one query. Groups are keyed by typed values under
/// SameValue, with ids in first-appearance order; each dictionary code
/// of a string key is mapped to its key id once per segment. A folder
/// keeps its running states, operands, batch scratch and key
/// dictionaries from one segment to the next, so it serves one thread
/// at a time, and the segments it folds must come in LiveSegments()
/// order (gaps allowed).
class AggregateFolder {
 public:
  /// `calls` are the aggregate select items in select-list order and
  /// `keys` the GROUP BY expressions; both must outlive this object.
  AggregateFolder(const std::vector<const BoundExpr*>& calls,
                  const std::vector<BoundExpr>& keys);

  /// Folds the selected rows of the segment at `position` in the scan
  /// into the running states, and hands its float sums and new groups
  /// over in `out`, which it overwrites. Without GROUP BY there is one
  /// group, present even when no row is selected.
  Status Fold(const SegmentSelection& selection, uint32_t position,
              SegmentPartial& out);

  /// Running states, folder groups x calls, in folder id order. Final
  /// once the folder's last Fold returned.
  std::vector<AggState>& states() { return states_; }

 private:
  /// Dense ids for the values of one GROUP BY key under SameValue, in
  /// first-appearance order.
  class KeyDictionary {
   public:
    void Assign(const Cells& cells, const SelectedBatch& batch,
                uint32_t* ids);

   private:
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
    // String keys: dictionary code -> id, or kNoId until the code is
    // first met. Sized once per segment for a column's dictionary, once
    // per batch for a batch's.
    static constexpr uint32_t kNoId = UINT32_MAX;
    const Segment* code_segment_ = nullptr;
    std::vector<uint32_t> code_ids_;
  };

  struct Call {
    const BoundExpr* expr = nullptr;
    std::optional<Operand> arg;  // empty for COUNT(*) / FCOUNT(*)
  };

  Status FoldBatch(const SelectedBatch& batch, uint32_t position,
                   SegmentPartial& out);

  /// Writes the group of every selected row of `batch` to groups_,
  /// creating groups on first appearance and listing the segment's
  /// groups in `out` when float sums are kept.
  void AssignGroups(const SelectedBatch& batch, SegmentPartial& out);

  std::vector<Call> calls_;
  std::vector<size_t> float_calls_;  // indices of calls with float sums
  std::vector<Operand> key_operands_;
  std::vector<KeyDictionary> key_dicts_;
  // Multi-key chaining: links_[j] maps (prefix id, id of key j + 1) to
  // the id of the longer prefix; the last level's ids are group ids.
  std::vector<IdTable> links_;
  size_t num_groups_ = 0;
  size_t last_new_groups_ = 0;    // groups the last Fold met first
  std::vector<AggState> states_;  // num_groups_ x calls_
  // Group -> the last Fold that listed it in its partial.
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
  std::optional<Operand> freshness_;  // only when an F-aggregate is present
  std::vector<uint32_t> groups_;      // per selected row of a batch
  std::vector<uint32_t> key_ids_;     // keys x kPipelineBatch
};

/// GROUP BY plus aggregation for one query, merged from its folders.
/// Without GROUP BY there is exactly one group, present even over empty
/// input. Folders can run on any threads; the merge order of the
/// partials alone fixes the answer.
class Aggregation {
 public:
  /// `calls` are the aggregate select items in select-list order, and
  /// each must outlive this object; `keys` the GROUP BY expressions.
  Aggregation(const std::vector<const BoundExpr*>& calls,
              const std::vector<BoundExpr>& keys);

  /// Merges the partial of the next segment. Its new groups join in
  /// their first-appearance order with their first row's key values,
  /// and its float sums add to their groups' sums.
  void Merge(SegmentPartial&& partial);

  /// Merges (and may take) `folder`'s running states, once every
  /// partial it folded has merged. Every folder whose partials merged
  /// must be merged before Result. Fails only when two extremes do not
  /// compare.
  Status MergeStates(AggregateFolder& folder);

  /// Group ids in output order: sorted by the rendered key (each key
  /// Value::ToString, NULL as \x01, joined by \x1F), ties broken by
  /// first appearance.
  std::vector<uint32_t> OutputOrder() const;

  /// Value of GROUP BY key `key` in the first row of group `group`.
  const Value& KeyValue(uint32_t group, size_t key) const;

  /// Finalized value of aggregate call `call` in group `group`.
  Value Result(uint32_t group, size_t call) const;

 private:
  /// The group whose keys are `key`, opened with them if it is new.
  uint32_t FindOrOpenGroup(Value* key);

  /// Folder id -> group id of `folder`, created on first use.
  std::vector<uint32_t>& GroupsOf(const AggregateFolder* folder);

  std::vector<const BoundExpr*> calls_;
  std::vector<size_t> float_calls_;
  size_t num_keys_;
  // Each group's key values as its first row had them: num_groups_ x
  // keys. (Rows of one group can differ, e.g. -0.0 and 0.0.)
  std::vector<Value> group_keys_;
  size_t num_groups_ = 0;
  std::vector<FloatSums> sums_;   // num_groups_ x float_calls_
  std::vector<AggState> states_;  // num_groups_ x calls_, once merged
  // Hash of a group's keys -> group id. While one folder has merged,
  // its new groups are new here too and the index stays empty; the
  // second folder's first partial builds it.
  IdTable index_;
  bool indexed_ = false;
  std::vector<std::pair<const AggregateFolder*, std::vector<uint32_t>>>
      folder_groups_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_AGGREGATE_H_

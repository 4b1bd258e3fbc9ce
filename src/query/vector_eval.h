#ifndef FUNGUSDB_QUERY_VECTOR_EVAL_H_
#define FUNGUSDB_QUERY_VECTOR_EVAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/binder.h"
#include "storage/segment.h"

namespace fungusdb {

class Table;

/// The WHERE filter: every predicate runs through it, and it alone
/// decides whether a segment can hold a matching row.
///
/// Compile() splits the bound tree's top-level AND spine into
/// conjuncts and lowers each one into a flat post-order program over
/// numeric column spans; Match() runs the program over one segment in
/// fixed-size batches, producing a selection vector of live, matching
/// row offsets with no per-row Value on the lowered path. A default-
/// constructed VectorPredicate has no conjunct: it selects every live
/// row (the scan of a query without WHERE).
///
/// Lowered: comparisons (=, !=, <, <=, >, >=) between numeric operands
/// (int64 / float64 / timestamp user columns, `__ts`, `__freshness`,
/// numeric or NULL literals), string-column = / != string-literal,
/// IS [NOT] NULL over numeric operands, boolean and NULL literals, and
/// AND / OR / NOT combinations thereof. A conjunct outside that subset
/// (arithmetic, scalar functions, string `<`, ...) becomes a *walker
/// conjunct*: it filters the rows still selected one row at a time
/// through EvalPredicate. Walker conjuncts run after every lowered
/// conjunct, in SQL order among themselves.
///
/// Errors: a lowered conjunct cannot fail. A walker conjunct's error
/// (division by zero, ...) on a row it evaluates fails Match, so it
/// fails the statement; a row an earlier conjunct already rejected, or
/// a segment CanMatch skipped, never reaches it. So `10 / x > 1 AND
/// x <> 0` answers over a row with x = 0 instead of failing.
///
/// Segment decisions (DecideLeaves), from metadata alone, with no
/// decoding and no thawing, the same on both storage tiers: a leaf
/// `column <op> constant` over a numeric user column, `__ts` or
/// `__freshness` is decided from the segment's zone map; a string
/// equality from the column's dictionary (the literal's code is looked
/// up once per segment, and a literal absent from it matches nothing);
/// a comparison with NULL is UNKNOWN for every row. CanMatch() is false
/// when some conjunct can be TRUE for no row: the engine skips such a
/// segment whole (zone-map pruning). Frozen segments additionally
/// compare string codes run by run and skip batches with no live row
/// (answered by the RLE liveness runs) before any decode.
///
/// Semantics match the tree walker bit for bit:
///  * comparisons happen in double space (int64/timestamp converted),
///    with Value::Compare's trichotomy — so a NaN operand compares
///    "equal" to everything (=, <=, >= accept it; !=, <, > reject);
///  * a NULL operand makes the comparison UNKNOWN;
///  * AND / OR / NOT follow three-valued (Kleene) logic;
///  * a row matches when the predicate is TRUE (not UNKNOWN).
class VectorPredicate {
 public:
  /// Rows evaluated per inner-loop batch.
  static constexpr size_t kBatchSize = 1024;

  /// Per-thread evaluation buffers, reused across batches and segments.
  /// Morsel-parallel scans give each worker its own Scratch.
  struct Scratch {
    std::vector<uint8_t> truth;   // num_nodes x kBatchSize
    std::vector<uint8_t> known;   // num_nodes x kBatchSize
    std::vector<double> vals;     // num_columns x kBatchSize staging
    std::vector<uint8_t> nulls;   // num_columns x kBatchSize staging
    /// Per column slot, the batch's cells in double space and its null
    /// flags (nullptr when the column has no null in the segment).
    std::vector<const double*> col_vals;
    std::vector<const uint8_t*> col_nulls;
    std::vector<uint8_t> col_ready;  // slot decoded for this batch
    std::vector<uint32_t> sel;       // one segment's selection staging
    std::vector<int64_t> ints;       // kBatchSize int decode staging
    std::vector<uint8_t> alive;      // kBatchSize liveness staging
    /// Per node, for the segment being matched: its segment decision
    /// (DecideLeaves) and, for a string-equality leaf, the literal's
    /// dictionary code.
    std::vector<int8_t> decided;
    std::vector<uint32_t> str_codes;
    /// Batches decoded from frozen segments (feeds the
    /// fungusdb.storage.decode_batches metric).
    uint64_t decoded_batches = 0;
  };

  /// Compiles `expr` (a boolean-typed bound expression). Always
  /// succeeds: a conjunct that does not lower becomes a walker conjunct.
  static VectorPredicate Compile(const BoundExpr& expr);

  /// False when `seg` holds no row for which the predicate can be TRUE,
  /// decided from its metadata alone (see DecideLeaves).
  bool CanMatch(const Segment& seg, Scratch& scratch) const;

  /// Appends to `out` the in-segment offsets of all LIVE rows of `seg`
  /// (a segment of `table`) for which the predicate is TRUE, in offset
  /// order. Fails only with a walker conjunct's error, leaving `out` as
  /// it was.
  Status Match(const Table& table, const Segment& seg, Scratch& scratch,
               std::vector<uint32_t>& out) const;

 private:
  enum class OperandKind : uint8_t {
    kNullLit,       // literal NULL: every cell null
    kConst,         // numeric literal, as double
    kTs,            // system insertion-time vector
    kFreshness,     // system freshness vector
    kInt64Col,      // user column, by index
    kFloat64Col,
    kTimestampCol,
  };

  struct Operand {
    OperandKind kind = OperandKind::kNullLit;
    double constant = 0.0;
    size_t col = 0;
    /// Index into column_operands_ for a column operand: each column
    /// is decoded once per batch, however many leaves read it.
    size_t slot = 0;

    bool is_column() const {
      return kind != OperandKind::kNullLit && kind != OperandKind::kConst;
    }
  };

  enum class NodeKind : uint8_t {
    kConstBool,  // truth/known fixed at compile time
    kIsNull,     // lhs operand IS NULL
    kCompare,    // lhs <cmp_op> rhs
    kStringEq,   // str_col == str_lit (!= compiles to kNot over this)
    kNot,        // child0
    kAnd,        // child0, child1
    kOr,         // child0, child1
  };

  struct Node {
    NodeKind kind = NodeKind::kConstBool;
    BinaryOp cmp_op = BinaryOp::kEq;
    bool const_truth = false;
    bool const_known = false;
    Operand lhs;
    Operand rhs;
    int child0 = -1;
    int child1 = -1;
    size_t str_col = 0;   // kStringEq
    std::string str_lit;  // kStringEq
  };

  /// Segment decisions for Scratch::decided.
  static constexpr int8_t kEvaluate = -1;  // decide row by row
  static constexpr int8_t kAllFalse = 0;   // FALSE for every live row
  static constexpr int8_t kAllTrue = 1;    // TRUE for every live row
  static constexpr int8_t kNoneTrue = 2;   // FALSE or UNKNOWN per row

  /// The per-segment leaf pass, run before a segment's first batch.
  /// Resolves each string-equality literal to its dictionary code once
  /// (Segment::kNoStringCode when absent) into scratch.str_codes, and
  /// writes each node's segment decision into scratch.decided. Only
  /// kAllFalse and kAllTrue stand in for evaluating the leaf; kNoneTrue
  /// lets CanMatch skip the segment when it decides a conjunct.
  void DecideLeaves(const Segment& seg, Scratch& scratch) const;
  /// The zone-map decision of a `column <op> constant` leaf.
  static int8_t DecideCompare(const Node& node, const Segment& seg);

  /// Lowers an operand, registering a column operand's slot.
  std::optional<Operand> CompileOperand(const BoundExpr& expr);
  static std::optional<Operand> CompileOperandKind(const BoundExpr& expr);
  /// Appends nodes post-order; returns the root index or nullopt.
  std::optional<int> CompileNode(const BoundExpr& expr);
  /// Splits `expr`'s top-level AND spine into conjuncts, in SQL order,
  /// and lowers each one or records it as a walker conjunct.
  void AddConjuncts(const BoundExpr& expr);

  /// One lowered conjunct of the root's AND spine: the node range
  /// [first, root] of its subtree. A `simple` conjunct compares one
  /// column against a literal (normalized to `column <op> constant`) and
  /// refines the selection vector directly.
  struct Conjunct {
    size_t first = 0;
    size_t root = 0;
    bool simple = false;
    size_t slot = 0;
    BinaryOp op = BinaryOp::kEq;
    double constant = 0.0;
  };

  /// Decodes column slot `slot` for rows [base, base + n) into
  /// scratch.col_vals / col_nulls, once per batch.
  void DecodeColumn(size_t slot, const Segment& seg, size_t base, size_t n,
                    const uint8_t* alive, Scratch& scratch) const;
  void EnsureColumn(size_t slot, const Segment& seg, size_t base, size_t n,
                    const uint8_t* alive, Scratch& scratch) const;
  /// Evaluates nodes [first, last] (a post-order subtree) over a batch
  /// into the truth/known rows.
  void EvalNodes(size_t first, size_t last, const Segment& seg, size_t base,
                 size_t n, const uint8_t* alive, Scratch& scratch) const;

  std::vector<Node> nodes_;               // post-order, conjunct by conjunct
  std::vector<Operand> column_operands_;  // distinct columns, by slot
  std::vector<Conjunct> conjuncts_;       // simple ones first
  std::vector<BoundExpr> walkers_;        // walker conjuncts, SQL order
};

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_VECTOR_EVAL_H_

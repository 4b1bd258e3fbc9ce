#ifndef FUNGUSDB_QUERY_VECTOR_EVAL_H_
#define FUNGUSDB_QUERY_VECTOR_EVAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/binder.h"
#include "storage/segment.h"

namespace fungusdb {

/// Batch-at-a-time predicate kernel. Compile() lowers a bound WHERE tree
/// into a flat post-order program over numeric column spans; Match()
/// runs it over one segment in fixed-size batches, producing a selection
/// vector of live, matching row offsets — no per-row Value
/// materialization anywhere on the hot path.
///
/// Coverage: comparisons (=, !=, <, <=, >, >=) between numeric operands
/// (int64 / float64 / timestamp user columns, `__ts`, `__freshness`,
/// numeric or NULL literals), string-column = / != string-literal,
/// IS [NOT] NULL over numeric operands, boolean and NULL literals, and
/// AND / OR / NOT combinations thereof. Anything else makes Compile()
/// return nullopt and the engine falls back to the row-at-a-time tree
/// walker.
///
/// Both storage tiers run through the same program via the segment's
/// decode-to-scratch API. String equality compares dictionary codes on
/// both tiers: the literal's code is looked up once per segment, and a
/// literal absent from the dictionary decides the leaf for the whole
/// segment. Frozen segments additionally get encoded-domain fast paths
/// that never decode: comparison leaves over FOR-packed int spans are
/// decided for the whole segment from the packed [base, base +
/// max_delta] range when possible, string codes are compared run by
/// run, and batches with no live rows (answered by the RLE liveness
/// runs) are skipped outright.
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
    std::vector<uint32_t> sel;       // kBatchSize selection staging
    std::vector<int64_t> ints;       // kBatchSize int decode staging
    std::vector<uint8_t> alive;      // kBatchSize liveness staging
    /// Per node, for the segment being matched: its whole-segment
    /// decision (DecideLeaves) and, for a string-equality leaf, the
    /// literal's dictionary code.
    std::vector<int8_t> decided;
    std::vector<uint32_t> str_codes;
    /// Batches decoded from frozen segments (feeds the
    /// fungusdb.storage.decode_batches metric).
    uint64_t decoded_batches = 0;
  };

  /// Lowers `expr` (a boolean-typed bound expression) or returns nullopt
  /// if any sub-expression is outside the vectorizable subset.
  static std::optional<VectorPredicate> Compile(const BoundExpr& expr);

  /// Appends to `out` the in-segment offsets of all LIVE rows of `seg`
  /// for which the predicate is TRUE, in offset order.
  void Match(const Segment& seg, Scratch& scratch,
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

  /// The per-segment leaf pass, run before a segment's first batch.
  /// Resolves each string-equality literal to its dictionary code once
  /// (Segment::kNoStringCode when absent) into scratch.str_codes, and
  /// writes per-node whole-segment decisions into scratch.decided: 1 =
  /// TRUE for every row, 0 = FALSE for every row, -1 = must evaluate.
  /// Decisions come from metadata alone — dictionary membership on both
  /// tiers, the FOR range of packed int spans on a frozen segment — with
  /// no decoding and no thawing.
  void DecideLeaves(const Segment& seg, Scratch& scratch) const;

  /// Lowers an operand, registering a column operand's slot.
  std::optional<Operand> CompileOperand(const BoundExpr& expr);
  static std::optional<Operand> CompileOperandKind(const BoundExpr& expr);
  /// Appends nodes post-order; returns the root index or nullopt.
  std::optional<int> CompileNode(const BoundExpr& expr);

  /// One conjunct of the root's AND spine: the node range
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

  void CollectConjuncts(int idx);

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

  std::vector<Node> nodes_;               // post-order; back() is root
  std::vector<Operand> column_operands_;  // distinct columns, by slot
  std::vector<Conjunct> conjuncts_;       // simple ones first
};

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_VECTOR_EVAL_H_

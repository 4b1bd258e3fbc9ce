#ifndef FUNGUSDB_QUERY_VECTOR_EVAL_H_
#define FUNGUSDB_QUERY_VECTOR_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/aggregate.h"
#include "query/binder.h"
#include "storage/segment.h"

namespace fungusdb {

/// The WHERE filter: every predicate runs through it, and it alone
/// decides whether a segment can hold a matching row.
///
/// Compile() splits the bound tree's top-level AND spine into
/// conjuncts; Match() runs them over one segment in fixed-size batches.
/// Starting from a batch's live rows, each conjunct keeps the rows it
/// holds TRUE (not UNKNOWN), producing a selection vector of live,
/// matching row offsets. A default-constructed VectorPredicate has no
/// conjunct: it selects every live row (the scan without WHERE).
///
/// Conjuncts, in the order they run:
///  * `column <op> constant` over a numeric column (int64 / float64 /
///    timestamp user columns, `__ts`, `__freshness`) refines the
///    selection branch-free, in double space;
///  * string-column = / != string-literal compares dictionary codes
///    (run by run on a frozen segment);
///  * the other *lowered* conjuncts: comparisons between numeric
///    columns and literals, IS [NOT] NULL over them, boolean and NULL
///    literals, and AND / OR / NOT combinations of all of these;
///  * last, in SQL order, every other conjunct (arithmetic, scalar
///    functions, string `<`, ...): a *computed* conjunct.
/// Lowered and computed conjuncts, and every column a comparison reads
/// (once per batch), are Operands (query/aggregate.h): the engine's one
/// expression evaluator, with its semantics.
///
/// Errors: a lowered conjunct cannot fail. A computed conjunct's error
/// (division by zero, ...) on a row it evaluates fails Match, so it
/// fails the statement; a row an earlier conjunct already rejected, or
/// a segment CanMatch skipped, never reaches it. So `10 / x > 1 AND
/// x <> 0` answers over a row with x = 0 instead of failing.
///
/// Segment decisions (CanMatch), from metadata alone, with no decoding
/// and no thawing, the same on both storage tiers: a `column <op>
/// constant` conjunct is decided from the segment's zone map; a string
/// equality from the column's dictionary (a literal absent from it
/// matches nothing); a comparison with NULL is UNKNOWN for every row.
/// CanMatch() is false when some conjunct can be TRUE for no row: the
/// engine skips such a segment whole (zone-map pruning); a conjunct
/// decided TRUE for every row is not evaluated. Frozen segments also
/// skip batches with no live row (answered by the RLE liveness runs)
/// before any decode.
class VectorPredicate {
 public:
  /// Rows evaluated per inner-loop batch.
  static constexpr size_t kBatchSize = kPipelineBatch;

  /// Per-thread evaluation buffers, reused across batches and segments.
  /// Morsel-parallel scans give each worker its own Scratch.
  struct Scratch {
    /// This thread's copies of the predicate's Operands.
    std::vector<fungusdb::Operand> columns;
    std::vector<fungusdb::Operand> exprs;
    std::vector<uint8_t> column_loaded;  // per column, for this batch
    std::vector<uint32_t> sel;  // one segment's selection staging
    // kBatchSize staging: liveness, string equality, null flags.
    std::vector<uint8_t> alive;
    std::vector<uint8_t> eq;
    std::vector<uint8_t> nulls;
    /// Per conjunct, for the segment being matched: its segment
    /// decision and, for a string equality, the literal's dictionary
    /// code (Segment::kNoStringCode when absent).
    std::vector<int8_t> decided;
    std::vector<uint32_t> str_codes;
    /// Batches decoded from frozen segments (feeds the
    /// fungusdb.storage.decode_batches metric).
    uint64_t decoded_batches = 0;
  };

  /// Compiles `expr` (a boolean-typed bound expression). Always
  /// succeeds: a conjunct that does not lower becomes a computed one.
  static VectorPredicate Compile(const BoundExpr& expr);

  /// False when `seg` holds no row for which the predicate can be TRUE,
  /// decided from its metadata alone.
  bool CanMatch(const Segment& seg, Scratch& scratch) const;

  /// Appends to `out` the in-segment offsets of all LIVE rows of `seg`
  /// for which the predicate is TRUE, in offset order. Fails only with
  /// a computed conjunct's error, leaving `out` as it was.
  Status Match(const Segment& seg, Scratch& scratch,
               std::vector<uint32_t>& out) const;

 private:
  /// In the order conjuncts run.
  enum class Kind : uint8_t {
    kCompare,   // columns_[slot] <op> constant
    kStringEq,  // user string column `col` = literal; != when negated
    kUnknown,   // a comparison with NULL: UNKNOWN for every row
    kLowered,   // exprs_[expr], which cannot fail
    kComputed,  // exprs_[expr]
  };

  struct Conjunct {
    Kind kind = Kind::kLowered;
    size_t slot = 0;  // kCompare
    BinaryOp op = BinaryOp::kEq;
    double constant = 0.0;
    size_t col = 0;  // kStringEq
    std::string literal;
    bool negated = false;
    size_t expr = 0;  // kLowered, kComputed
  };

  /// A numeric column a kCompare conjunct reads.
  struct Column {
    ColumnSource source = ColumnSource::kUser;
    size_t col = 0;
    bool operator==(const Column&) const = default;
  };

  /// Segment decisions for Scratch::decided.
  static constexpr int8_t kEvaluate = -1;  // decide row by row
  static constexpr int8_t kAllFalse = 0;   // FALSE for every live row
  static constexpr int8_t kAllTrue = 1;    // TRUE for every live row
  static constexpr int8_t kNoneTrue = 2;   // FALSE or UNKNOWN per row

  /// Splits `expr`'s top-level AND spine into conjuncts, in SQL order.
  void AddConjuncts(const BoundExpr& expr);
  /// The zone-map decision of a kCompare conjunct.
  int8_t DecideCompare(const Conjunct& c, const Segment& seg) const;

  std::vector<Conjunct> conjuncts_;  // in the order they run
  std::vector<Column> columns_;      // distinct kCompare columns, by slot
  std::vector<fungusdb::Operand> column_operands_;  // the same, by slot
  std::vector<fungusdb::Operand> exprs_;  // kLowered and kComputed
};

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_VECTOR_EVAL_H_

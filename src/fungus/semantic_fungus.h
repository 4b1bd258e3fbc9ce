#ifndef FUNGUSDB_FUNGUS_SEMANTIC_FUNGUS_H_
#define FUNGUSDB_FUNGUS_SEMANTIC_FUNGUS_H_

#include <optional>
#include <string>

#include "fungus/fungus.h"
#include "query/aggregate.h"
#include "query/expr.h"
#include "query/vector_eval.h"

namespace fungusdb {

/// Content-aware decay — the paper's "what to decay" axis taken to its
/// logical end: tuples matching a predicate rot at one rate, everything
/// else at another. Setting matched_step = 0 makes the predicate a
/// preservation order ("keep all FAULT readings"); setting
/// unmatched_step = 0 makes it a targeted purge.
///
/// The predicate is an ordinary query expression (it may reference
/// `__ts` and `__freshness`); on the first tick it is bound against the
/// table's schema and compiled into the engine's WHERE filter
/// (VectorPredicate), which then matches it segment by segment. Tuples
/// on which the predicate errors or evaluates to null decay at the
/// unmatched rate: a segment where the filter fails on some row is
/// matched a row at a time, with the same evaluator (Operand).
class SemanticFungus : public Fungus {
 public:
  struct Params {
    /// Freshness lost per tick by tuples satisfying the predicate.
    double matched_step = 0.2;

    /// Freshness lost per tick by every other live tuple.
    double unmatched_step = 0.02;
  };

  /// `predicate` must be a boolean expression over the target table's
  /// columns; it is validated lazily at the first tick.
  SemanticFungus(ExprPtr predicate, Params params);

  std::string_view name() const override { return "semantic"; }
  void Tick(DecayContext& ctx) override;
  std::string Describe() const override;
  void Reset() override;

  /// Binding failure (unknown column, non-bool predicate) detected on a
  /// previous tick; OK before the first tick and on healthy fungi.
  const Status& bind_status() const { return bind_status_; }

 private:
  ExprPtr predicate_;
  Params params_;
  // Compiled on the first tick; empty while unbound.
  std::optional<VectorPredicate> filter_;
  std::optional<Operand> row_predicate_;
  VectorPredicate::Scratch scratch_;
  Status bind_status_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_SEMANTIC_FUNGUS_H_

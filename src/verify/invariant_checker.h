#ifndef FUNGUSDB_VERIFY_INVARIANT_CHECKER_H_
#define FUNGUSDB_VERIFY_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "summary/cellar.h"

namespace fungusdb::verify {

/// One broken invariant with the most precise coordinates available.
/// Fields that do not apply stay at -1 (e.g. a table-level violation
/// has no segment or row). `invariant` is the stable rule name listed in
/// DESIGN.md §9 — tests and tools match on it.
struct Violation {
  std::string invariant;
  std::string table;
  int64_t segment = -1;  // global segment number
  int64_t row = -1;      // RowId
  int64_t column = -1;   // user column index
  std::string detail;

  /// "table 'events' segment 3 row 12300: freshness-range: ...".
  std::string ToString() const;
};

/// Outcome of one checker run. Empty violations == healthy.
struct Report {
  std::vector<Violation> violations;
  uint64_t tables_checked = 0;
  uint64_t segments_checked = 0;
  uint64_t rows_checked = 0;
  /// True when the violation list was cut off at the configured cap.
  bool truncated = false;

  bool ok() const { return violations.empty(); }

  /// Folds another report (e.g. for the next table) into this one.
  void Merge(Report other);

  /// Human-readable summary plus every violation, one per line.
  std::string ToString() const;

  /// OK when healthy; otherwise Internal with the first violation and
  /// the total count — the form the CHECK AFTER TICK hook propagates.
  Status ToStatus() const;
};

/// fsck for FungusDB storage: walks Table → Segment → Column and
/// verifies the structural invariants the decay laws rely on
/// (freshness ∈ (0,1] for live tuples, dead-row exclusion from live
/// iteration, segment time-ordering, row-count/column-length agreement,
/// counter accounting). Read-only: run it on the writer thread or under
/// a read lock, never while the table is being mutated.
class InvariantChecker {
 public:
  struct Options {
    /// Stop collecting after this many violations (the report notes
    /// the truncation); a badly corrupted table would otherwise drown
    /// the interesting first finding.
    size_t max_violations = 64;
  };

  InvariantChecker() = default;
  explicit InvariantChecker(Options options) : options_(options) {}

  /// Checks every table-level invariant (the full list: DESIGN.md §9).
  Report CheckTable(const Table& table) const;

  /// Checks cellar entries (freshness of cooked summaries ∈ (0,1]).
  /// Violations use the entry name in the `table` coordinate.
  Report CheckCellar(const Cellar& cellar) const;

 private:
  Options options_{};
};

}  // namespace fungusdb::verify

#endif  // FUNGUSDB_VERIFY_INVARIANT_CHECKER_H_

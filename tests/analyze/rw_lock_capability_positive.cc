// Positive half of the lock-capability compile test: a writer holding
// the database lock exclusively may call the mutating internal API, and
// a read lock satisfies the shared-capability query surface. This
// translation unit must compile CLEANLY under
//   clang++ -fsyntax-only -Wthread-safety -Wthread-safety-beta -Werror
// (driven by check_thread_safety.sh; see the negative twin for the
// build that must fail).

#include "core/database.h"
#include "core/internal_access.h"

namespace fungusdb {

void WriterMayMutate(Database& db) {
  RwLock::WriteLock write_lock(db.lock());
  (void)internal::DatabaseInternal::MutableTable(db, "spores");
}

void ReaderMayQuery(Database& db) {
  RwLock::ReadLock read_lock(db.lock());
  (void)db.GetTable("spores");
}

}  // namespace fungusdb

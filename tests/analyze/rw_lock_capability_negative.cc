// Negative half of the lock-capability compile test: a reader holding
// only a read lock calls the mutating internal API, which requires the
// database lock EXCLUSIVELY. Under
//   clang++ -fsyntax-only -Wthread-safety -Wthread-safety-beta -Werror
// this translation unit MUST FAIL to build with a thread-safety
// diagnostic ("requires holding ... exclusively"). If it ever compiles,
// the capability model has a hole — check_thread_safety.sh treats that
// as a test failure.

#include "core/database.h"
#include "core/internal_access.h"

namespace fungusdb {

void ReaderCallsWriterApi(Database& db) {
  RwLock::ReadLock read_lock(db.lock());
  (void)internal::DatabaseInternal::MutableTable(db, "spores");
}

}  // namespace fungusdb

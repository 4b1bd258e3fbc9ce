#ifndef FUNGUSDB_CORE_INTERNAL_ACCESS_H_
#define FUNGUSDB_CORE_INTERNAL_ACCESS_H_

#include <string>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/database.h"

namespace fungusdb::internal {

/// Escape hatch for in-process infrastructure that bypasses the public
/// facade by design: persistence (snapshot load replays rows straight
/// into tables), replay-divergence audits, and test seeding. NOT part
/// of the public API — application code takes TableHandles from
/// CreateTable/GetTable and mutates through the Database.
///
/// Concurrency contract: callers hold `db`'s lock exclusively (take an
/// `RwLock::WriteLock write_lock(db.lock());` around the lookup and
/// every mutation through the returned pointer) — enforced at compile
/// time under -Wthread-safety via the REQUIRES annotation below, which
/// names the capability through the `db` parameter so the analysis
/// unifies it with the caller's lock expression.
struct DatabaseInternal {
  static Result<Table*> MutableTable(Database& db, const std::string& name)
      FUNGUS_REQUIRES(db.lock_);
};

}  // namespace fungusdb::internal

#endif  // FUNGUSDB_CORE_INTERNAL_ACCESS_H_

// Compile test for the database lock's [[nodiscard]] constructors. A
// guard built as a temporary takes the lock and drops it before the
// semicolon: it protects nothing, and usually means the author thought
// they were holding it. Under
//   c++ -std=c++20 -fsyntax-only -Werror=unused-result
// each DISCARD_* build MUST FAIL with an unused-result diagnostic, and
// the build with neither defined (the bound guards, the positive
// control) must compile cleanly. Driven by check_discarded_lock.sh.

#include "core/rw_lock.h"

namespace fungusdb {

#if defined(DISCARD_READ_LOCK)

void DiscardsTheReadLock(RwLock& lock) {
  RwLock::ReadLock{lock};
}

#elif defined(DISCARD_WRITE_LOCK)

void DiscardsTheWriteLock(RwLock& lock) {
  RwLock::WriteLock{lock};
}

#else

void BindsBothLocks(RwLock& lock) {
  {
    RwLock::WriteLock write_lock{lock};
  }
  RwLock::ReadLock read_lock{lock};
}

#endif

}  // namespace fungusdb

#ifndef FUNGUSDB_CORE_RW_LOCK_H_
#define FUNGUSDB_CORE_RW_LOCK_H_

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fungusdb {

// Deliberate violation: ReadLock's constructor lost [[nodiscard]], so a
// discarded `RwLock::ReadLock{lock};` would compile again. WriteLock is
// the clean spelling and must not fire.
class FUNGUS_CAPABILITY("rw_lock") RwLock {
 public:
  class FUNGUS_SCOPED_CAPABILITY ReadLock {
   public:
    explicit ReadLock(RwLock& lock) FUNGUS_ACQUIRE_SHARED(lock);
    ~ReadLock() FUNGUS_RELEASE_GENERIC();

   private:
    RwLock* lock_;
  };

  class FUNGUS_SCOPED_CAPABILITY WriteLock {
   public:
    [[nodiscard]] explicit WriteLock(RwLock& lock) FUNGUS_ACQUIRE(lock);
    ~WriteLock() FUNGUS_RELEASE();

   private:
    RwLock& lock_;
  };

 private:
  Mutex mu_;
  size_t active_readers_ FUNGUS_GUARDED_BY(mu_) = 0;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_CORE_RW_LOCK_H_

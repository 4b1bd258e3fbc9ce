#ifndef FUNGUSDB_COMMON_THREAD_ANNOTATIONS_H_
#define FUNGUSDB_COMMON_THREAD_ANNOTATIONS_H_

/// Capability annotations for Clang's Thread Safety Analysis
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), the
/// compile-time half of the concurrency contract (DESIGN.md §13).
///
/// Under clang with -Wthread-safety these expand to the attributes the
/// analysis checks: which fields a lock guards, which capability a
/// function requires, which calls acquire and release. Everywhere else
/// (the GCC tier-1 build) they expand to nothing, so the annotations
/// are free documentation on non-clang toolchains. The CI
/// `thread-safety` job builds with
///   -Wthread-safety -Wthread-safety-beta -Werror=thread-safety
/// so a violation — say, a read-worker path calling an API annotated
/// FUNGUS_REQUIRES(epoch) — is a build error, not a TSan repro.
///
/// tools/analyze/capability_audit.py is the companion pass: it fails
/// the lint job if a mutex-owning class has mutable members without a
/// FUNGUS_GUARDED_BY, so the annotations cannot silently rot.

#if defined(__clang__) && (!defined(SWIG))
#define FUNGUS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define FUNGUS_THREAD_ANNOTATION_(x)
#endif

/// Marks a class as a named capability (a lock such as Mutex or the
/// database RwLock).
#define FUNGUS_CAPABILITY(x) FUNGUS_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose constructor acquires a capability and
/// whose destructor releases it (MutexLock, RwLock::ReadLock,
/// RwLock::WriteLock).
#define FUNGUS_SCOPED_CAPABILITY FUNGUS_THREAD_ANNOTATION_(scoped_lockable)

/// The field may only be touched while `x` is held (shared for reads,
/// exclusive for writes).
#define FUNGUS_GUARDED_BY(x) FUNGUS_THREAD_ANNOTATION_(guarded_by(x))

/// The pointee may only be touched while `x` is held.
#define FUNGUS_PT_GUARDED_BY(x) FUNGUS_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Callers must hold the capability exclusively (writer APIs).
#define FUNGUS_REQUIRES(...) \
  FUNGUS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Callers must hold the capability at least shared (reader APIs).
#define FUNGUS_REQUIRES_SHARED(...) \
  FUNGUS_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function (or constructor) acquires the capability exclusively.
#define FUNGUS_ACQUIRE(...) \
  FUNGUS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function (or constructor) acquires the capability shared.
#define FUNGUS_ACQUIRE_SHARED(...) \
  FUNGUS_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// The function releases an exclusively-held capability.
#define FUNGUS_RELEASE(...) \
  FUNGUS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function releases a shared-held capability.
#define FUNGUS_RELEASE_SHARED(...) \
  FUNGUS_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The function releases a capability held either way — the right
/// annotation for destructors of guards that may hold shared.
#define FUNGUS_RELEASE_GENERIC(...) \
  FUNGUS_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

/// Callers must NOT hold the capability (deadlock prevention).
#define FUNGUS_EXCLUDES(...) \
  FUNGUS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (no acquire emitted).
#define FUNGUS_ASSERT_CAPABILITY(x) \
  FUNGUS_THREAD_ANNOTATION_(assert_capability(x))

/// The function returns a reference to the named capability, so
/// `db.lock()` and `db.lock_` are the same lock to the analysis.
#define FUNGUS_RETURN_CAPABILITY(x) \
  FUNGUS_THREAD_ANNOTATION_(lock_returned(x))

/// Turns checking off inside one function body. Reserved for the
/// implementation of locking primitives themselves (RwLock's
/// internals lie to the analysis by design: a condvar wait releases
/// and reacquires invisibly) — never for silencing a real finding;
/// capability_audit.py counts uses outside the allowlisted files.
#define FUNGUS_NO_THREAD_SAFETY_ANALYSIS \
  FUNGUS_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // FUNGUSDB_COMMON_THREAD_ANNOTATIONS_H_

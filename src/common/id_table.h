#ifndef FUNGUSDB_COMMON_ID_TABLE_H_
#define FUNGUSDB_COMMON_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fungusdb {

/// Open-addressing table from a 64-bit key hash to a dense id, ids in
/// first-insertion order. The table stores no keys: the caller keeps
/// them (indexed by id) and supplies key equality for ids whose hash
/// matches; for keys hashed by a bijection the hash alone decides.
class IdTable {
 public:
  /// The id whose key has hash `hash` and satisfies `same(id)`, or,
  /// when none does, the next new id (ids count up from 0); `inserted`
  /// tells which.
  template <typename Same>
  uint32_t FindOrInsert(uint64_t hash, Same&& same, bool* inserted) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t p = hash & mask;; p = (p + 1) & mask) {
      Slot& slot = slots_[p];
      if (slot.id == kEmpty) {
        slot.hash = hash;
        slot.id = static_cast<uint32_t>(size_++);
        *inserted = true;
        return slot.id;
      }
      if (slot.hash == hash && same(slot.id)) {
        *inserted = false;
        return slot.id;
      }
    }
  }

  /// Ids handed out so far.
  size_t size() const { return size_; }

  size_t MemoryUsage() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kEmpty;
  };

  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_COMMON_ID_TABLE_H_

#include "common/id_table.h"

#include <utility>

namespace fungusdb {

void IdTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kEmpty) continue;
    size_t p = slot.hash & mask;
    while (slots_[p].id != kEmpty) p = (p + 1) & mask;
    slots_[p] = slot;
  }
}

}  // namespace fungusdb

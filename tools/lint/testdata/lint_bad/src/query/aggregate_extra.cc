#include "query/aggregate.h"

namespace fungusdb {

// A per-row aggregate loop that boxes every cell: what the typed
// aggregate kernel replaced.
double BoxedSum(const Segment& seg, const std::vector<uint32_t>& offsets) {
  double sum = 0.0;
  for (uint32_t off : offsets) sum += seg.GetValue(off, 0).AsFloat64();
  return sum;
}

}  // namespace fungusdb

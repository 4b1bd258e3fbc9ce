#include "query/aggregate.h"

namespace fungusdb {

// The same sum over a typed span: one decode per batch, no Value.
double TypedSum(const Segment& seg, size_t base, size_t n,
                const uint32_t* sel, size_t m) {
  const double* x = seg.DecodeFloat64Column(0, base, n);
  double sum = 0.0;
  for (size_t k = 0; k < m; ++k) sum += x[sel[k]];
  return sum;
}

}  // namespace fungusdb

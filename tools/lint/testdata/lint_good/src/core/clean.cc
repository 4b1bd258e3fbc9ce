#include "common/metrics.h"
#include "common/random.h"

namespace fungusdb {

// The clean spelling of everything lint_bad/ gets wrong: a namespaced
// metric, seeded randomness, no raw framing.
double CleanUse(MetricsRegistry& metrics, Random& rng) {
  metrics.IncrementCounter("fungusdb.core.clean_calls");
  return rng.NextDouble();
}

}  // namespace fungusdb

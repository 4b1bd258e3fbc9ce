#include <cstdlib>

#include "core/database.h"

namespace fungusdb {

void Offender(Database& db, MetricsRegistry& metrics) {
  (void)db.Execute("SELECT 1");
  int jitter = std::rand();
  metrics.IncrementCounter("decays");
  uint32_t framed = htonl(static_cast<uint32_t>(jitter));
  (void)framed;
}

}  // namespace fungusdb

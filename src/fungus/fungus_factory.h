#ifndef FUNGUSDB_FUNGUS_FUNGUS_FACTORY_H_
#define FUNGUSDB_FUNGUS_FUNGUS_FACTORY_H_

#include <memory>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "fungus/fungus.h"

namespace fungusdb {

/// Builds a fungus from the spec of the meta-command registry's
/// `\attach`:
///
///   retention <duration> | exponential <half-life> | egi |
///   window <rows> | quota <bytes>
///
/// `arg` is the optional trailing argument; `now` seeds fungi that
/// anchor to the current virtual time (exponential).
Result<std::unique_ptr<Fungus>> MakeFungusFromSpec(
    const std::string& kind, const std::optional<std::string>& arg,
    Timestamp now);

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_FUNGUS_FACTORY_H_

#include "fungus/fungus_factory.h"

#include "common/string_util.h"
#include "fungus/egi_fungus.h"
#include "fungus/exponential_fungus.h"
#include "fungus/quota_fungus.h"
#include "fungus/retention_fungus.h"
#include "fungus/sliding_window_fungus.h"

namespace fungusdb {
namespace {

Result<uint64_t> ParseCount(const std::string& text,
                            const std::string& what) {
  const std::optional<uint64_t> count = ParseInteger<uint64_t>(text);
  if (!count.has_value()) {
    return Status::ParseError("bad " + what + " '" + text + "'");
  }
  return *count;
}

}  // namespace

Result<std::unique_ptr<Fungus>> MakeFungusFromSpec(
    const std::string& kind, const std::optional<std::string>& arg,
    Timestamp now) {
  if (kind == "retention") {
    if (!arg.has_value()) {
      return Status::InvalidArgument("retention needs a duration arg");
    }
    FUNGUSDB_ASSIGN_OR_RETURN(Duration retention, ParseDuration(*arg));
    return std::unique_ptr<Fungus>(
        std::make_unique<RetentionFungus>(retention));
  }
  if (kind == "exponential") {
    if (!arg.has_value()) {
      return Status::InvalidArgument("exponential needs a half-life arg");
    }
    FUNGUSDB_ASSIGN_OR_RETURN(Duration half_life, ParseDuration(*arg));
    return std::unique_ptr<Fungus>(std::make_unique<ExponentialFungus>(
        ExponentialFungus::FromHalfLife(half_life, now)));
  }
  if (kind == "egi") {
    if (arg.has_value()) {
      return Status::InvalidArgument("egi takes no arg");
    }
    return std::unique_ptr<Fungus>(
        std::make_unique<EgiFungus>(EgiFungus::Params{}));
  }
  if (kind == "window") {
    if (!arg.has_value()) {
      return Status::InvalidArgument("window needs a row-count arg");
    }
    FUNGUSDB_ASSIGN_OR_RETURN(uint64_t rows, ParseCount(*arg, "row count"));
    return std::unique_ptr<Fungus>(
        std::make_unique<SlidingWindowFungus>(rows));
  }
  if (kind == "quota") {
    if (!arg.has_value()) {
      return Status::InvalidArgument("quota needs a byte-count arg");
    }
    FUNGUSDB_ASSIGN_OR_RETURN(uint64_t bytes, ParseCount(*arg, "byte count"));
    return std::unique_ptr<Fungus>(std::make_unique<QuotaFungus>(bytes));
  }
  return Status::InvalidArgument("unknown fungus '" + kind + "'");
}

}  // namespace fungusdb

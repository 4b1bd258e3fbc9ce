#include "summary/serialize.h"

#include "summary/count_min_sketch.h"
#include "summary/grouped_aggregate.h"
#include "summary/histogram_sketch.h"
#include "summary/hyperloglog.h"
#include "summary/p2_quantile.h"

namespace fungusdb {

void SerializeSummary(const Summary& summary, BufferWriter& out) {
  out.WriteString(summary.kind());
  summary.Serialize(out);
}

Result<std::unique_ptr<Summary>> DeserializeSummary(BufferReader& in) {
  FUNGUSDB_ASSIGN_OR_RETURN(std::string kind, in.ReadString());
  if (kind == "count_min") {
    FUNGUSDB_ASSIGN_OR_RETURN(auto s, CountMinSketch::Deserialize(in));
    return std::unique_ptr<Summary>(std::move(s));
  }
  if (kind == "hyperloglog") {
    FUNGUSDB_ASSIGN_OR_RETURN(auto s, HyperLogLog::Deserialize(in));
    return std::unique_ptr<Summary>(std::move(s));
  }
  if (kind == "histogram") {
    FUNGUSDB_ASSIGN_OR_RETURN(auto s, HistogramSketch::Deserialize(in));
    return std::unique_ptr<Summary>(std::move(s));
  }
  if (kind == "p2_quantile") {
    FUNGUSDB_ASSIGN_OR_RETURN(auto s, P2Quantile::Deserialize(in));
    return std::unique_ptr<Summary>(std::move(s));
  }
  if (kind == "grouped_aggregate") {
    FUNGUSDB_ASSIGN_OR_RETURN(auto s, GroupedAggregate::Deserialize(in));
    return std::unique_ptr<Summary>(std::move(s));
  }
  return Status::ParseError("unknown summary kind '" + kind + "'");
}

}  // namespace fungusdb

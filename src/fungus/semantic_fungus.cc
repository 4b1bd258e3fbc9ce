#include "fungus/semantic_fungus.h"

#include <cassert>

#include "common/logging.h"
#include "common/string_util.h"

namespace fungusdb {

SemanticFungus::SemanticFungus(ExprPtr predicate, Params params)
    : predicate_(std::move(predicate)), params_(params) {
  assert(predicate_ != nullptr);
  assert(params_.matched_step >= 0.0 && params_.matched_step <= 1.0);
  assert(params_.unmatched_step >= 0.0 && params_.unmatched_step <= 1.0);
}

void SemanticFungus::Tick(DecayContext& ctx) {
  Table& table = ctx.table();
  if (!filter_.has_value()) {
    if (!bind_status_.ok()) return;  // permanently broken; already logged
    Result<BoundExpr> bound = Bind(*predicate_, table.schema());
    if (bound.ok() && bound->result_type.has_value() &&
        bound->result_type != DataType::kBool) {
      bound = Status::TypeMismatch(
          "semantic fungus predicate must be boolean");
    }
    if (!bound.ok()) {
      bind_status_ = bound.status();
      FUNGUSDB_LOG(Error) << "semantic fungus disabled on table '"
                          << table.name()
                          << "': " << bind_status_.ToString();
      return;
    }
    filter_ = VectorPredicate::Compile(*bound);
    row_predicate_.emplace(*bound);
  }
  // Match every live segment before any row decays, then decay the
  // live rows in order.
  std::vector<RowId> matched;
  std::vector<uint32_t> offsets;
  for (const Segment* seg : table.LiveSegments()) {
    offsets.clear();
    if (!filter_->Match(*seg, scratch_, offsets).ok()) {
      // The predicate errors on some row here. Such a row decays at the
      // unmatched rate, so this segment is matched a row at a time.
      offsets.clear();
      static constexpr uint32_t kFirst = 0;
      const Cells& cells = row_predicate_->cells();
      for (uint32_t off = 0; off < seg->num_rows(); ++off) {
        if (seg->IsLive(off) &&
            row_predicate_->Load(SelectedBatch{seg, off, 1, &kFirst, 1})
                .ok() &&
            !cells.IsNull(0) && cells.bools[0] != 0) {
          offsets.push_back(off);
        }
      }
    }
    for (const uint32_t off : offsets) {
      matched.push_back(seg->first_row() + off);
    }
  }
  size_t next = 0;
  table.ForEachLive([&](RowId row) {
    while (next < matched.size() && matched[next] < row) ++next;
    const double step = next < matched.size() && matched[next] == row
                            ? params_.matched_step
                            : params_.unmatched_step;
    if (step > 0.0) ctx.Decay(row, step);
  });
}

std::string SemanticFungus::Describe() const {
  return "semantic(" + predicate_->ToString() +
         " ? " + FormatDouble(params_.matched_step, 3) + " : " +
         FormatDouble(params_.unmatched_step, 3) + "/tick)";
}

void SemanticFungus::Reset() {
  filter_.reset();
  row_predicate_.reset();
  bind_status_ = Status::OK();
}

}  // namespace fungusdb

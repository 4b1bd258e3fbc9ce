#ifndef FUNGUSDB_SUMMARY_SUMMARY_H_
#define FUNGUSDB_SUMMARY_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/buffer_io.h"
#include "common/status.h"
#include "storage/value.h"

namespace fungusdb {

/// A cooked distillate of data that has rotted (or is about to). This is
/// the paper's answer to the data deluge: "once you take something out
/// of R, you should distill it into useful knowledge, summary".
///
/// Summaries are mergeable so cellar entries cooked from different rot
/// events can be combined, and so answers can be assembled across time
/// slices.
class Summary {
 public:
  virtual ~Summary() = default;

  Summary(const Summary&) = delete;
  Summary& operator=(const Summary&) = delete;

  /// Stable kind tag, e.g. "count_min", "hyperloglog".
  virtual std::string_view kind() const = 0;

  /// Number of non-null observations folded in.
  virtual uint64_t observations() const = 0;

  /// Folds `other` into this summary. Fails with TypeMismatch /
  /// InvalidArgument when kinds or shapes differ.
  virtual Status Merge(const Summary& other) = 0;

  /// Heap + inline bytes held.
  virtual size_t MemoryUsage() const = 0;

  /// Human-readable parameterization.
  virtual std::string Describe() const = 0;

  /// Appends the complete state (parameters + counters) to `out`; the
  /// inverse is the kind-dispatched DeserializeSummary() in
  /// summary/serialize.h.
  virtual void Serialize(BufferWriter& out) const = 0;

 protected:
  Summary() = default;
};

/// A summary fed one column's values (all sketches except
/// GroupedAggregate). Null values are ignored.
class ColumnSummary : public Summary {
 public:
  virtual void Observe(const Value& value) = 0;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_SUMMARY_SUMMARY_H_

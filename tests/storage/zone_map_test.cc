// Zone-map maintenance: the incremental bounds kept on Append /
// SetFreshness / Kill must always cover the stored rows (the pruning
// soundness contract), and RecomputeZoneMap must tighten them to exact.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "storage/segment.h"
#include "storage/table.h"

namespace fungusdb {
namespace {

Schema MixedSchema() {
  return Schema::Make({{"i", DataType::kInt64, true},
                       {"d", DataType::kFloat64, true},
                       {"s", DataType::kString, false}})
      .value();
}

TEST(ZoneMapTest, FreshSegmentHasEmptyZones) {
  Segment seg(MixedSchema(), 0, 8, /*track_access=*/false);
  const ZoneMap& z = seg.zone_map();
  EXPECT_FALSE(z.has_rows());
  EXPECT_FALSE(z.has_live_freshness());
  ASSERT_EQ(z.columns.size(), 3u);
  EXPECT_TRUE(z.columns[0].tracked);
  EXPECT_TRUE(z.columns[1].tracked);
  EXPECT_FALSE(z.columns[2].tracked);  // string column: never consulted
  EXPECT_FALSE(z.columns[0].has_value());
}

TEST(ZoneMapTest, AppendWidensTimeAndColumnBounds) {
  Segment seg(MixedSchema(), 0, 8, false);
  seg.Append({Value::Int64(5), Value::Float64(-1.5), Value::String("x")},
             /*now=*/100);
  seg.Append({Value::Int64(-3), Value::Float64(2.5), Value::String("y")},
             /*now=*/250);
  const ZoneMap& z = seg.zone_map();
  EXPECT_EQ(z.min_ts, 100);
  EXPECT_EQ(z.max_ts, 250);
  EXPECT_DOUBLE_EQ(z.min_f, 1.0);
  EXPECT_DOUBLE_EQ(z.max_f, 1.0);
  EXPECT_DOUBLE_EQ(z.columns[0].min, -3.0);
  EXPECT_DOUBLE_EQ(z.columns[0].max, 5.0);
  EXPECT_DOUBLE_EQ(z.columns[1].min, -1.5);
  EXPECT_DOUBLE_EQ(z.columns[1].max, 2.5);
}

TEST(ZoneMapTest, NullCellsDoNotContribute) {
  Segment seg(MixedSchema(), 0, 8, false);
  seg.Append({Value::Null(), Value::Null(), Value::String("x")}, 10);
  const ZoneMap& z = seg.zone_map();
  EXPECT_TRUE(z.has_rows());
  EXPECT_FALSE(z.columns[0].has_value());
  EXPECT_FALSE(z.columns[1].has_value());
  seg.Append({Value::Int64(7), Value::Null(), Value::String("y")}, 20);
  EXPECT_DOUBLE_EQ(seg.zone_map().columns[0].min, 7.0);
  EXPECT_DOUBLE_EQ(seg.zone_map().columns[0].max, 7.0);
}

TEST(ZoneMapTest, NaNCellSetsFlagNotBounds) {
  Segment seg(MixedSchema(), 0, 8, false);
  seg.Append({Value::Int64(1), Value::Float64(std::nan("")),
              Value::String("x")},
             10);
  const ColumnZone& dz = seg.zone_map().columns[1];
  EXPECT_TRUE(dz.has_nan);
  EXPECT_FALSE(dz.has_value());  // NaN never enters min/max
  seg.Append({Value::Int64(2), Value::Float64(4.0), Value::String("y")},
             20);
  EXPECT_TRUE(seg.zone_map().columns[1].has_nan);
  EXPECT_DOUBLE_EQ(seg.zone_map().columns[1].min, 4.0);
}

TEST(ZoneMapTest, FreshnessWritesWidenEagerly) {
  Segment seg(MixedSchema(), 0, 8, false);
  seg.Append({Value::Int64(1), Value::Float64(0.0), Value::String("x")},
             10);
  seg.Append({Value::Int64(2), Value::Float64(0.0), Value::String("y")},
             10);
  EXPECT_FALSE(seg.SetFreshness(0, 0.25));
  const ZoneMap& z = seg.zone_map();
  EXPECT_DOUBLE_EQ(z.min_f, 0.25);
  EXPECT_DOUBLE_EQ(z.max_f, 1.0);
  // Raising row 0 again widens nothing new but must stay covering.
  EXPECT_FALSE(seg.SetFreshness(0, 0.75));
  EXPECT_DOUBLE_EQ(seg.zone_map().min_f, 0.25);  // conservative, loose
  // Recompute tightens to the exact live range {0.75, 1.0}.
  seg.RecomputeZoneMap();
  EXPECT_DOUBLE_EQ(seg.zone_map().min_f, 0.75);
  EXPECT_DOUBLE_EQ(seg.zone_map().max_f, 1.0);
}

TEST(ZoneMapTest, FreshnessZoneResetsWhenSegmentEmpties) {
  Segment seg(MixedSchema(), 0, 4, false);
  seg.Append({Value::Int64(1), Value::Float64(0.0), Value::String("x")},
             10);
  seg.Append({Value::Int64(2), Value::Float64(0.0), Value::String("y")},
             20);
  EXPECT_TRUE(seg.Kill(0));
  EXPECT_TRUE(seg.zone_map().has_live_freshness());
  EXPECT_TRUE(seg.SetFreshness(1, 0.0));  // kills the last live row
  EXPECT_EQ(seg.live_count(), 0u);
  // With no live rows the freshness zone is trivially empty, so decay
  // planners can skip the segment outright.
  EXPECT_FALSE(seg.zone_map().has_live_freshness());
  // Time and column bounds still cover the (dead) rows.
  EXPECT_EQ(seg.zone_map().min_ts, 10);
  EXPECT_EQ(seg.zone_map().max_ts, 20);
  EXPECT_DOUBLE_EQ(seg.zone_map().columns[0].max, 2.0);
}

TEST(ZoneMapTest, SetFreshnessEarlyOutsOnNoOpWrites) {
  Segment seg(MixedSchema(), 0, 4, false);
  seg.Append({Value::Int64(1), Value::Float64(0.0), Value::String("x")},
             10);
  EXPECT_FALSE(seg.SetFreshness(0, 0.5));
  // Writing the identical value again must not widen, kill, or flip
  // liveness — the decay-tick hot path repeats values when the clock
  // does not advance.
  EXPECT_FALSE(seg.SetFreshness(0, 0.5));
  EXPECT_TRUE(seg.IsLive(0));
  EXPECT_DOUBLE_EQ(seg.Freshness(0), 0.5);
  // Dead rows reject writes entirely.
  EXPECT_TRUE(seg.Kill(0));
  EXPECT_FALSE(seg.SetFreshness(0, 0.9));
  EXPECT_DOUBLE_EQ(seg.Freshness(0), 0.0);
}

TEST(ZoneMapTest, RecomputeMatchesIncrementalOnTableWorkload) {
  TableOptions opts;
  opts.rows_per_segment = 16;
  Table table("t", MixedSchema(), opts);
  for (int n = 0; n < 100; ++n) {
    table
        .Append({Value::Int64(n % 13 - 6), Value::Float64(n * 0.5 - 20),
                 Value::String("r")},
                /*now=*/n * 3)
        .value();
  }
  for (RowId r = 0; r < 100; r += 7) {
    FUNGUSDB_CHECK_OK(table.SetFreshness(r, 0.4));
  }
  for (RowId r = 0; r < 100; r += 11) {
    FUNGUSDB_CHECK_OK(table.Kill(r));
  }
  // Every incremental bound must cover what an exact recount computes.
  for (const auto& [seg_no, seg] : table.segments()) {
    const ZoneMap before = seg->zone_map();
    seg->RecomputeZoneMap();
    const ZoneMap& exact = seg->zone_map();
    EXPECT_EQ(before.min_ts, exact.min_ts) << "segment " << seg_no;
    EXPECT_EQ(before.max_ts, exact.max_ts) << "segment " << seg_no;
    if (exact.has_live_freshness()) {
      EXPECT_LE(before.min_f, exact.min_f) << "segment " << seg_no;
      EXPECT_GE(before.max_f, exact.max_f) << "segment " << seg_no;
    }
    for (size_t c = 0; c < exact.columns.size(); ++c) {
      if (!exact.columns[c].tracked || !exact.columns[c].has_value()) {
        continue;
      }
      EXPECT_LE(before.columns[c].min, exact.columns[c].min);
      EXPECT_GE(before.columns[c].max, exact.columns[c].max);
    }
  }
}

}  // namespace
}  // namespace fungusdb

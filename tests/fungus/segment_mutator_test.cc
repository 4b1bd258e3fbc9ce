// Segment-granular kills and decrements (Table::KillSegment and
// DecaySegment) must give exactly what the per-row mutators give: the
// same freshness and liveness, the same killed rows in the same order,
// and the same thaw, materialization and touch accounting — one thaw
// per segment, not one per row. At the fungus level, retention ticking
// through them must match a retention that kills and decrements row by
// row, in every DecayStats field, with lazy decay on or off and
// freezing on or off.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fungus/retention_fungus.h"
#include "fungus/scheduler.h"
#include "storage/table.h"

namespace fungusdb {
namespace {

constexpr size_t kRowsPerSegment = 16;

Schema KvSchema() {
  return Schema::Make({{"k", DataType::kInt64, false},
                       {"s", DataType::kString, true}})
      .value();
}

Table MakeTable(bool lazy, uint64_t freeze_after) {
  TableOptions opts;
  opts.rows_per_segment = kRowsPerSegment;
  opts.lazy_decay = lazy;
  opts.freeze_after_idle_ticks = freeze_after;
  return Table("t", KvSchema(), opts);
}

void AppendRows(Table& t, size_t rows, Timestamp now) {
  for (size_t i = 0; i < rows; ++i) {
    const int64_t k = static_cast<int64_t>(t.total_appended());
    const Value s =
        k % 4 == 0 ? Value::Null() : Value::String("v" + std::to_string(k % 5));
    t.Append({Value::Int64(k), s}, now).value();
  }
}

/// Every observable per-row fact plus the table's counters.
void ExpectSameState(const Table& a, const Table& b) {
  ASSERT_EQ(a.total_appended(), b.total_appended());
  for (RowId row = 0; row < a.total_appended(); ++row) {
    ASSERT_EQ(a.Contains(row), b.Contains(row)) << "row " << row;
    if (!a.Contains(row)) continue;
    ASSERT_EQ(a.IsLive(row), b.IsLive(row)) << "row " << row;
    ASSERT_EQ(a.Freshness(row), b.Freshness(row)) << "row " << row;
  }
  EXPECT_EQ(a.live_rows(), b.live_rows());
  EXPECT_EQ(a.rows_killed(), b.rows_killed());
  EXPECT_EQ(a.rows_materialized(), b.rows_materialized());
  const StorageStats sa = a.GetStorageStats();
  const StorageStats sb = b.GetStorageStats();
  EXPECT_EQ(sa.thaw_count, sb.thaw_count);
  EXPECT_EQ(sa.frozen_segments, sb.frozen_segments);
  EXPECT_EQ(sa.segments_frozen_total, sb.segments_frozen_total);
  for (const auto& [seg_no, seg] : a.segments()) {
    const Segment& other = *b.segments().at(seg_no);
    EXPECT_EQ(seg->is_frozen(), other.is_frozen()) << "segment " << seg_no;
    EXPECT_EQ(seg->last_touch_epoch(), other.last_touch_epoch());
    EXPECT_EQ(seg->zone_map().min_f, other.zone_map().min_f);
    EXPECT_EQ(seg->zone_map().max_f, other.zone_map().max_f);
  }
}

// ---------------------------------------------------------------------
// Storage level: one call against the per-row loop it replaces.

struct Setup {
  bool frozen;
  bool pending;
};

/// Two identical tables: 4 full segments plus an open one, segment 1
/// partly dead with uneven freshness, optionally all frozen and carrying
/// pending decay.
std::pair<Table, Table> TwinTables(const Setup& setup) {
  Table a = MakeTable(/*lazy=*/true, 0);
  Table b = MakeTable(/*lazy=*/true, 0);
  for (Table* t : {&a, &b}) {
    AppendRows(*t, 4 * kRowsPerSegment + 3, 0);
    t->AdvanceDecayEpoch();
    for (RowId row = 16; row < 32; row += 3) {
      FUNGUSDB_CHECK_OK(t->SetFreshness(row, 0.125 * (row % 7 + 1)));
    }
    FUNGUSDB_CHECK_OK(t->Kill(17));
    if (setup.frozen) t->FreezeColdSegments(0);
    if (setup.pending) {
      t->AdvanceDecayEpoch();
      for (uint64_t seg_no = 0; seg_no < 4; ++seg_no) {
        EXPECT_TRUE(t->TryFoldUniformDecay(seg_no, 0.0625));
      }
    }
    t->AdvanceDecayEpoch();
  }
  return {std::move(a), std::move(b)};
}

class SegmentMutatorTest : public ::testing::TestWithParam<Setup> {};

TEST_P(SegmentMutatorTest, KillSegmentMatchesPerRowKills) {
  auto [whole, rowwise] = TwinTables(GetParam());
  const uint64_t thaws_before = whole.GetStorageStats().thaw_count;
  std::vector<RowId> killed;
  EXPECT_EQ(whole.KillSegment(1, &killed), kRowsPerSegment - 1);
  std::vector<RowId> expected;
  for (RowId row = 16; row < 32; ++row) {
    if (!rowwise.IsLive(row)) continue;
    FUNGUSDB_CHECK_OK(rowwise.Kill(row));
    expected.push_back(row);
  }
  EXPECT_EQ(killed, expected);
  EXPECT_EQ(whole.GetStorageStats().thaw_count,
            thaws_before + (GetParam().frozen ? 1 : 0));
  ExpectSameState(whole, rowwise);
  // Nothing live is left to touch: no thaw, no epoch stamp.
  EXPECT_EQ(whole.KillSegment(1, &killed), 0u);
  EXPECT_EQ(whole.KillSegment(99, &killed), 0u);
  ExpectSameState(whole, rowwise);
}

TEST_P(SegmentMutatorTest, DecaySegmentMatchesPerRowDecrements) {
  // 0.3 kills the rows set to 0.125 and 0.25 and keeps the rest.
  for (const double delta : {0.0, 0.3, 2.0}) {
    SCOPED_TRACE("delta " + std::to_string(delta));
    auto [whole, rowwise] = TwinTables(GetParam());
    const uint64_t thaws_before = whole.GetStorageStats().thaw_count;
    std::vector<RowId> killed;
    for (uint64_t seg_no : {1, 2}) {
      EXPECT_EQ(whole.DecaySegment(seg_no, delta, &killed),
                seg_no == 1 ? kRowsPerSegment - 1 : kRowsPerSegment);
    }
    std::vector<RowId> expected;
    for (RowId row = 16; row < 48; ++row) {
      if (!rowwise.IsLive(row)) continue;
      FUNGUSDB_CHECK_OK(rowwise.DecayFreshness(row, delta));
      if (!rowwise.IsLive(row)) expected.push_back(row);
    }
    EXPECT_EQ(killed, expected);
    EXPECT_EQ(whole.GetStorageStats().thaw_count,
              thaws_before + (GetParam().frozen ? 2 : 0));
    ExpectSameState(whole, rowwise);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SegmentMutatorTest,
    ::testing::Values(Setup{false, false}, Setup{false, true},
                      Setup{true, false}, Setup{true, true}),
    [](const ::testing::TestParamInfo<Setup>& info) {
      return std::string(info.param.frozen ? "Frozen" : "Plain") +
             (info.param.pending ? "Pending" : "Settled");
    });

// ---------------------------------------------------------------------
// Fungus level: retention through the segment calls against retention
// row by row.

/// The reference: RetentionFungus's branches with per-row calls only —
/// an all-expired segment killed by one Kill per live row, and a
/// uniform decrement that cannot fold applied by one Decay per live
/// row. Same zone-map skips, same folds.
class RowwiseRetention : public Fungus {
 public:
  explicit RowwiseRetention(Duration retention) : retention_(retention) {}

  std::string_view name() const override { return "rowwise_retention"; }
  std::string Describe() const override { return "rowwise_retention"; }

  void Tick(DecayContext& ctx) override {
    const std::optional<Timestamp> prev = last_tick_;
    last_tick_ = ctx.now();
    for (const auto& [seg_no, seg] : ctx.table().segments()) {
      TickSegment(seg_no, *seg, ctx.now(), prev, ctx.table().options(), ctx);
    }
  }

 private:
  void TickSegment(uint64_t seg_no, const Segment& seg, Timestamp now,
                   std::optional<Timestamp> prev, const TableOptions& opts,
                   DecayContext& ctx) {
    if (seg.live_count() == 0) {
      ctx.NoteSegmentSkipped();
      return;
    }
    const ZoneMap& zone = seg.zone_map();
    if (zone.min_ts >= now && seg.EffectiveMinFreshness() == 1.0 &&
        seg.EffectiveMaxFreshness() == 1.0) {
      ctx.NoteSegmentSkipped();
      return;
    }
    const bool all_expired = now - zone.max_ts >= retention_;
    if (!all_expired && prev.has_value() && zone.max_ts <= *prev) {
      const double delta = static_cast<double>(now - *prev) /
                           static_cast<double>(retention_);
      if (opts.lazy_decay && seg.CanFoldUniformDecay(delta)) {
        ctx.DecaySegmentUniform(seg_no, seg, delta);
        return;
      }
      for (size_t off = 0; off < seg.num_rows(); ++off) {
        if (seg.IsLive(off)) ctx.Decay(seg.first_row() + off, delta);
      }
      return;
    }
    for (size_t off = 0; off < seg.num_rows(); ++off) {
      if (!seg.IsLive(off)) continue;
      const RowId row = seg.first_row() + off;
      const Duration age = now - seg.InsertTime(off);
      if (all_expired || age >= retention_) {
        ctx.Kill(row);
        continue;
      }
      ctx.SetFreshness(row, age <= 0 ? 1.0
                                     : 1.0 - static_cast<double>(age) /
                                                 static_cast<double>(
                                                     retention_));
    }
  }

  Duration retention_;
  std::optional<Timestamp> last_tick_;
};

void ExpectSameStats(const DecayStats& a, const DecayStats& b) {
  EXPECT_EQ(a.tuples_touched, b.tuples_touched);
  EXPECT_EQ(a.tuples_killed, b.tuples_killed);
  EXPECT_EQ(a.seeds_planted, b.seeds_planted);
  EXPECT_EQ(a.segments_skipped, b.segments_skipped);
  EXPECT_EQ(a.segments_folded, b.segments_folded);
  EXPECT_EQ(a.rows_materialized, b.rows_materialized);
}

/// (lazy decay, freeze after idle ticks)
class SegmentGranularRetentionTest
    : public ::testing::TestWithParam<std::tuple<bool, uint64_t>> {};

TEST_P(SegmentGranularRetentionTest, MatchesRowByRowRetention) {
  const auto [lazy, freeze_after] = GetParam();
  Table whole = MakeTable(lazy, freeze_after);
  Table rowwise = MakeTable(lazy, freeze_after);
  DecayScheduler whole_clock;
  DecayScheduler rowwise_clock;
  // Retention of 7.5 periods: the rot front cuts a segment most ticks.
  constexpr Duration kPeriod = 60 * kSecond;
  constexpr Duration kRetention = 450 * kSecond;
  const auto whole_id =
      whole_clock
          .Attach(&whole, std::make_unique<RetentionFungus>(kRetention),
                  kPeriod, 0)
          .value();
  const auto rowwise_id =
      rowwise_clock
          .Attach(&rowwise, std::make_unique<RowwiseRetention>(kRetention),
                  kPeriod, 0)
          .value();
  std::vector<RowId> whole_deaths;
  std::vector<RowId> rowwise_deaths;
  whole_clock.AddDeathObserver(
      [&](Table&, const std::vector<RowId>& rows, Timestamp) {
        whole_deaths.insert(whole_deaths.end(), rows.begin(), rows.end());
      });
  rowwise_clock.AddDeathObserver(
      [&](Table&, const std::vector<RowId>& rows, Timestamp) {
        rowwise_deaths.insert(rowwise_deaths.end(), rows.begin(),
                              rows.end());
      });
  Timestamp now = 0;
  for (int tick = 0; tick < 40; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    // 13 rows per tick: segment boundaries drift against the ticks.
    AppendRows(whole, 13, now);
    AppendRows(rowwise, 13, now);
    now += kPeriod;
    ASSERT_EQ(whole_clock.AdvanceTo(now), 1u);
    ASSERT_EQ(rowwise_clock.AdvanceTo(now), 1u);
    ASSERT_EQ(whole_deaths, rowwise_deaths);
    ExpectSameState(whole, rowwise);
    ExpectSameStats(whole_clock.StatsFor(whole_id).decay,
                    rowwise_clock.StatsFor(rowwise_id).decay);
  }
  EXPECT_GT(whole.rows_killed(), 0u);
  if (lazy && freeze_after > 0) {
    // Only folds leave a segment idle; eager ticks touch every row. The
    // segment calls then thaw frozen segments the rot front reaches.
    EXPECT_GT(whole.GetStorageStats().segments_frozen_total, 0u);
    EXPECT_GT(whole.GetStorageStats().thaw_count, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SegmentGranularRetentionTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0u, 2u)),
    // "Serial": the scheduler's one tick path runs the fungus serially.
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Lazy" : "Eager") +
             (std::get<1>(info.param) > 0 ? "Freeze" : "NoFreeze") +
             "Serial";
    });

}  // namespace
}  // namespace fungusdb

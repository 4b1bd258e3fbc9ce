#include <gtest/gtest.h>

#include "fungus/quota_fungus.h"
#include "fungus/semantic_fungus.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

Schema EventSchema() {
  return Schema::Make({{"level", DataType::kString, false},
                       {"size", DataType::kInt64, false}})
      .value();
}

Table FilledTable(int rows, size_t rows_per_segment = 16) {
  TableOptions opts;
  opts.rows_per_segment = rows_per_segment;
  Table t("t", EventSchema(), opts);
  for (int i = 0; i < rows; ++i) {
    t.Append({Value::String(i % 5 == 0 ? "DEBUG" : "ERROR"),
              Value::Int64(i)},
             i)
        .value();
  }
  return t;
}

// --- SemanticFungus ---

TEST(SemanticFungusTest, MatchedTuplesDecayFaster) {
  Table t = FilledTable(20);
  SemanticFungus::Params p;
  p.matched_step = 0.5;
  p.unmatched_step = 0.1;
  SemanticFungus fungus(ParseExpression("level = 'DEBUG'").value(), p);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  EXPECT_TRUE(fungus.bind_status().ok());
  EXPECT_NEAR(t.Freshness(0), 0.5, 1e-9);  // DEBUG row
  EXPECT_NEAR(t.Freshness(1), 0.9, 1e-9);  // ERROR row
}

TEST(SemanticFungusTest, ZeroStepPreservesMatchedTuples) {
  Table t = FilledTable(20);
  SemanticFungus::Params p;
  p.matched_step = 0.0;   // preservation order for ERROR rows
  p.unmatched_step = 1.0;
  SemanticFungus fungus(ParseExpression("level = 'ERROR'").value(), p);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  // Only DEBUG rows (every 5th) died.
  EXPECT_EQ(t.live_rows(), 16u);
  EXPECT_FALSE(t.IsLive(0));
  EXPECT_TRUE(t.IsLive(1));
}

TEST(SemanticFungusTest, PredicateMaySeeSystemColumns) {
  Table t = FilledTable(10);
  SemanticFungus::Params p;
  p.matched_step = 1.0;
  p.unmatched_step = 0.0;
  SemanticFungus fungus(ParseExpression("__ts < 5").value(), p);
  DecayContext ctx(&t, 100);
  fungus.Tick(ctx);
  EXPECT_EQ(t.live_rows(), 5u);
  EXPECT_FALSE(t.IsLive(4));
  EXPECT_TRUE(t.IsLive(5));
}

TEST(SemanticFungusTest, RowsWherePredicateErrorsDecayAtUnmatchedRate) {
  // `10 / size` divides by zero on row 0 only. That row decays at the
  // unmatched rate; every other row of its segment still matches or not
  // by its own answer, on a plain and on a frozen segment.
  for (const bool freeze : {false, true}) {
    SCOPED_TRACE(freeze ? "frozen" : "plain");
    Table t = FilledTable(20);
    if (freeze) {
      ASSERT_GT(t.FreezeColdSegments(0), 0u);
    }
    SemanticFungus::Params p;
    p.matched_step = 0.5;
    p.unmatched_step = 0.1;
    SemanticFungus fungus(ParseExpression("10 / size > 1").value(), p);
    DecayContext ctx(&t, 0);
    fungus.Tick(ctx);
    EXPECT_TRUE(fungus.bind_status().ok());
    EXPECT_NEAR(t.Freshness(0), 0.9, 1e-9);  // errors: unmatched
    for (RowId row = 1; row < 10; ++row) {
      EXPECT_NEAR(t.Freshness(row), 0.5, 1e-9) << row;  // 10 / size > 1
    }
    for (RowId row = 10; row < 20; ++row) {
      EXPECT_NEAR(t.Freshness(row), 0.9, 1e-9) << row;
    }
  }
}

TEST(SemanticFungusTest, GuardedErrorArmMatchesWithoutFailing) {
  Table t = FilledTable(20);
  SemanticFungus::Params p;
  p.matched_step = 0.5;
  p.unmatched_step = 0.1;
  SemanticFungus fungus(
      ParseExpression("size = 0 OR 10 / size > 1").value(), p);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  for (RowId row = 0; row < 10; ++row) {
    EXPECT_NEAR(t.Freshness(row), 0.5, 1e-9) << row;
  }
  EXPECT_NEAR(t.Freshness(10), 0.9, 1e-9);
}

TEST(SemanticFungusTest, BadPredicateDisablesFungusGracefully) {
  Table t = FilledTable(5);
  SemanticFungus fungus(ParseExpression("no_such_column > 1").value(),
                        SemanticFungus::Params{});
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  EXPECT_FALSE(fungus.bind_status().ok());
  EXPECT_EQ(t.live_rows(), 5u);  // nothing decayed
  // Subsequent ticks stay inert rather than spamming errors.
  DecayContext ctx2(&t, 1);
  fungus.Tick(ctx2);
  EXPECT_EQ(t.live_rows(), 5u);
}

TEST(SemanticFungusTest, NonBooleanPredicateRejected) {
  Table t = FilledTable(5);
  SemanticFungus fungus(ParseExpression("size + 1").value(),
                        SemanticFungus::Params{});
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  EXPECT_EQ(fungus.bind_status().code(), StatusCode::kTypeMismatch);
}

TEST(SemanticFungusTest, ResetRebinds) {
  Table t = FilledTable(5);
  SemanticFungus fungus(ParseExpression("size >= 0").value(),
                        SemanticFungus::Params{});
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  fungus.Reset();
  EXPECT_TRUE(fungus.bind_status().ok());
  DecayContext ctx2(&t, 1);
  fungus.Tick(ctx2);  // must not crash after reset
}

TEST(SemanticFungusTest, DescribeShowsPredicate) {
  SemanticFungus fungus(ParseExpression("size > 3").value(),
                        SemanticFungus::Params{});
  EXPECT_NE(fungus.Describe().find("size > 3"), std::string::npos);
}

// --- QuotaFungus ---

TEST(QuotaFungusTest, EvictsOldestUntilUnderQuota) {
  Table t = FilledTable(1000, /*rows_per_segment=*/64);
  const size_t full = t.MemoryUsage();
  QuotaFungus fungus(full / 2);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  EXPECT_LE(t.MemoryUsage(), full / 2);
  EXPECT_LT(t.live_rows(), 1000u);
  EXPECT_GT(t.live_rows(), 0u);
  // Survivors are the newest tuples.
  EXPECT_EQ(t.NewestLive().value(), 999u);
  EXPECT_GT(t.OldestLive().value(), 0u);
}

TEST(QuotaFungusTest, UnderQuotaIsNoop) {
  Table t = FilledTable(100);
  QuotaFungus fungus(t.MemoryUsage() * 2);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  EXPECT_EQ(t.live_rows(), 100u);
}

TEST(QuotaFungusTest, TinyQuotaEmptiesTable) {
  Table t = FilledTable(200, /*rows_per_segment=*/16);
  QuotaFungus fungus(1);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  EXPECT_EQ(t.live_rows(), 0u);
}

TEST(QuotaFungusTest, Describe) {
  QuotaFungus fungus(10 * 1024 * 1024);
  EXPECT_EQ(fungus.Describe(), "quota(10.0 MiB)");
}

}  // namespace
}  // namespace fungusdb

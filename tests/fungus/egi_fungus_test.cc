#include "fungus/egi_fungus.h"

#include <set>

#include <gtest/gtest.h>

#include "fungus/rot_analysis.h"

namespace fungusdb {
namespace {

Schema OneColSchema() {
  return Schema::Make({{"v", DataType::kInt64, false}}).value();
}

Table FilledTable(int rows, size_t rows_per_segment = 64) {
  TableOptions opts;
  opts.rows_per_segment = rows_per_segment;
  Table t("t", OneColSchema(), opts);
  for (int i = 0; i < rows; ++i) {
    t.Append({Value::Int64(i)}, i).value();
  }
  return t;
}

TEST(EgiFungusTest, SeedsInfections) {
  Table t = FilledTable(100);
  EgiFungus::Params p;
  p.seeds_per_tick = 3.0;
  p.decay_step = 0.1;
  EgiFungus fungus(p);
  DecayContext ctx(&t, 1000);
  fungus.Tick(ctx);
  EXPECT_GE(ctx.stats().seeds_planted, 1u);
  EXPECT_FALSE(fungus.infected().empty());
}

TEST(EgiFungusTest, InfectedTuplesLoseFreshnessEachTick) {
  Table t = FilledTable(10);
  EgiFungus::Params p;
  p.seeds_per_tick = 1.0;
  p.decay_step = 0.25;
  p.spread_probability = 0.0;  // isolate a single infection
  EgiFungus fungus(p);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  ASSERT_EQ(fungus.infected().size(), 1u);
  const RowId victim = *fungus.infected().begin();
  EXPECT_NEAR(t.Freshness(victim), 0.75, 1e-9);
  // Later ticks may seed other tuples, but the victim keeps losing
  // decay_step per tick until it dies.
  for (int i = 0; i < 2; ++i) {
    DecayContext c(&t, i);
    fungus.Tick(c);
  }
  EXPECT_NEAR(t.Freshness(victim), 0.25, 1e-9);
}

TEST(EgiFungusTest, TupleDiesAfterEnoughTicks) {
  Table t = FilledTable(10);
  EgiFungus::Params p;
  p.seeds_per_tick = 1.0;
  p.decay_step = 0.5;
  p.spread_probability = 0.0;
  EgiFungus fungus(p);
  DecayContext c1(&t, 0);
  fungus.Tick(c1);
  const RowId victim = *fungus.infected().begin();
  // Seeding continues, but the tracked victim dies after two 0.5 steps.
  DecayContext c2(&t, 1);
  fungus.Tick(c2);
  EXPECT_FALSE(t.IsLive(victim));
  // Dead tuples leave the infection set.
  EXPECT_EQ(fungus.infected().count(victim), 0u);
}

TEST(EgiFungusTest, SpreadInfectsNeighbours) {
  Table t = FilledTable(101);
  EgiFungus::Params p;
  p.seeds_per_tick = 1.0;
  p.decay_step = 0.05;  // slow death so the spot can grow
  p.spread_probability = 1.0;
  EgiFungus fungus(p);
  // Spreading happens within the seeding tick (paper step 2): after one
  // tick the spot already includes a direct neighbour of the seed.
  DecayContext c1(&t, 0);
  fungus.Tick(c1);
  ASSERT_GE(fungus.infected().size(), 2u);
  bool has_adjacent_pair = false;
  RowId prev_row = 0;
  bool first = true;
  for (RowId r : fungus.infected()) {
    if (!first && r == prev_row + 1) has_adjacent_pair = true;
    prev_row = r;
    first = false;
  }
  EXPECT_TRUE(has_adjacent_pair);
  // Further ticks grow the spot bidirectionally.
  const size_t before = fungus.infected().size();
  DecayContext c2(&t, 1);
  fungus.Tick(c2);
  EXPECT_GT(fungus.infected().size(), before);
}

TEST(EgiFungusTest, NeighboursInfectedThisTickDecayThisTick) {
  // The spread rule (DESIGN.md §4): "at equal rate" — a neighbour
  // infected by this tick's spread decays in this tick, with its
  // infector, so after the first tick the seed and both its neighbours
  // (one, at an edge of the time axis) all sit at 1 - decay_step.
  Table t = FilledTable(16);
  EgiFungus::Params p;
  p.seeds_per_tick = 1.0;
  p.decay_step = 0.125;
  p.spread_probability = 1.0;
  EgiFungus fungus(p);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  ASSERT_EQ(ctx.stats().seeds_planted, 1u);
  const std::set<RowId>& infected = fungus.infected();
  const bool at_edge = infected.count(0) > 0 || infected.count(15) > 0;
  EXPECT_EQ(infected.size(), at_edge ? 2u : 3u);
  EXPECT_EQ(*infected.rbegin() - *infected.begin() + 1, infected.size());
  for (RowId row : infected) {
    EXPECT_EQ(t.Freshness(row), 1.0 - p.decay_step) << "row " << row;
  }
  for (RowId row = 0; row < 16; ++row) {
    if (infected.count(row) == 0) {
      EXPECT_EQ(t.Freshness(row), 1.0) << "row " << row;
    }
  }
  EXPECT_EQ(ctx.stats().tuples_touched, infected.size());
}

TEST(EgiFungusTest, CreatesContiguousRottingSpots) {
  // The Blue-Cheese claim: after many ticks, dead tuples form runs.
  Table t = FilledTable(2000, /*rows_per_segment=*/256);
  EgiFungus::Params p;
  p.seeds_per_tick = 0.5;
  p.decay_step = 0.2;
  p.spread_probability = 1.0;
  EgiFungus fungus(p);
  for (int tick = 0; tick < 120; ++tick) {
    DecayContext ctx(&t, tick);
    fungus.Tick(ctx);
  }
  RotStructure rot = AnalyzeRot(t);
  ASSERT_GT(rot.dead_tuples + rot.reclaimed_tuples, 50u);
  // Far fewer spots than dead tuples => grouped eviction, not pinpricks.
  EXPECT_LT(rot.num_spots * 4, rot.dead_tuples + rot.reclaimed_tuples);
  EXPECT_GT(rot.max_spot, 8u);
}

TEST(EgiFungusTest, DeterministicGivenSeed) {
  EgiFungus::Params p;
  p.seeds_per_tick = 1.0;
  p.decay_step = 0.3;
  p.rng_seed = 777;
  Table t1 = FilledTable(500);
  Table t2 = FilledTable(500);
  EgiFungus f1(p);
  EgiFungus f2(p);
  for (int tick = 0; tick < 30; ++tick) {
    DecayContext c1(&t1, tick);
    DecayContext c2(&t2, tick);
    f1.Tick(c1);
    f2.Tick(c2);
  }
  EXPECT_EQ(t1.live_rows(), t2.live_rows());
  EXPECT_EQ(t1.LiveRows(), t2.LiveRows());
}

TEST(EgiFungusTest, AgeBiasPrefersOldTuples) {
  Table t = FilledTable(10000, /*rows_per_segment=*/1024);
  EgiFungus::Params p;
  p.seeds_per_tick = 1.0;
  p.decay_step = 1.0;  // immediate death: each seed kills one tuple
  p.spread_probability = 0.0;
  p.age_bias = 4.0;
  EgiFungus fungus(p);
  uint64_t old_kills = 0, kills = 0;
  for (int tick = 0; tick < 400; ++tick) {
    DecayContext ctx(&t, tick);
    fungus.Tick(ctx);
    for (RowId r : ctx.killed()) {
      ++kills;
      if (r < 5000) ++old_kills;
    }
  }
  ASSERT_GT(kills, 100u);
  // With bias 4 the older half should absorb well over half the kills.
  EXPECT_GT(static_cast<double>(old_kills) / kills, 0.7);
}

TEST(EgiFungusTest, ResetClearsInfections) {
  Table t = FilledTable(50);
  EgiFungus::Params p;
  EgiFungus fungus(p);
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  EXPECT_FALSE(fungus.infected().empty());
  fungus.Reset();
  EXPECT_TRUE(fungus.infected().empty());
}

TEST(EgiFungusTest, EmptyTableTickIsHarmless) {
  Table t("t", OneColSchema());
  EgiFungus fungus(EgiFungus::Params{});
  DecayContext ctx(&t, 0);
  fungus.Tick(ctx);
  EXPECT_EQ(ctx.stats().tuples_killed, 0u);
}

}  // namespace
}  // namespace fungusdb

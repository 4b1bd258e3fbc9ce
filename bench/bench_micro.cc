// Microbenchmarks (google-benchmark) for the hot paths underneath the
// experiment harnesses: append, scan, decay ticks, freeze and thaw,
// query execution, sketch updates, and the write path's parse and wire
// codec. These
// calibrate the absolute numbers quoted in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "common/random.h"
#include "core/database.h"
#include "core/meta_commands.h"
#include "fungus/egi_fungus.h"
#include "fungus/retention_fungus.h"
#include "query/engine.h"
#include "query/parser.h"
#include "server/wire_format.h"
#include "storage/table.h"
#include "summary/count_min_sketch.h"
#include "summary/hyperloglog.h"

namespace fungusdb {
namespace {

Schema BenchSchema() {
  return Schema::Make({{"sensor", DataType::kInt64, false},
                       {"temp", DataType::kFloat64, false}})
      .value();
}

Table FilledTable(int64_t rows) {
  TableOptions opts;
  opts.rows_per_segment = 4096;
  Table t("t", BenchSchema(), opts);
  for (int64_t i = 0; i < rows; ++i) {
    t.Append({Value::Int64(i % 100), Value::Float64(20.0 + i % 10)}, i)
        .value();
  }
  return t;
}

void BM_TableAppend(benchmark::State& state) {
  TableOptions opts;
  opts.rows_per_segment = 4096;
  Table t("t", BenchSchema(), opts);
  const std::vector<Value> row{Value::Int64(7), Value::Float64(21.5)};
  Timestamp now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Append(row, ++now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableAppend);

void BM_TableScanLive(benchmark::State& state) {
  Table t = FilledTable(state.range(0));
  for (auto _ : state) {
    uint64_t count = 0;
    t.ForEachLive([&](RowId) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableScanLive)->Arg(10000)->Arg(100000);

void BM_RetentionTick(benchmark::State& state) {
  // A tick that touches every live tuple but kills none.
  Table t = FilledTable(state.range(0));
  RetentionFungus fungus(1 << 30);
  Timestamp now = state.range(0);
  for (auto _ : state) {
    DecayContext ctx(&t, ++now);
    fungus.Tick(ctx);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RetentionTick)->Arg(10000)->Arg(100000);

/// `(sensor int64, value float64, site string)` rows with 64 distinct
/// sites, as fungusbench's `readings` table receives them.
std::vector<std::vector<Value>> RandomReadings(Rng& rng, size_t n) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    char site[8];
    std::snprintf(site, sizeof(site), "s%02d",
                  static_cast<int>(rng.NextBounded(64)));
    rows.push_back({Value::Int64(static_cast<int64_t>(rng.NextBounded(1000))),
                    Value::Float64(static_cast<double>(rng.NextBounded(400)) /
                                   4.0),
                    Value::String(site)});
  }
  return rows;
}

Schema ReadingsSchema() {
  return Schema::Make({{"sensor", DataType::kInt64, false},
                       {"value", DataType::kFloat64, false},
                       {"site", DataType::kString, false}})
      .value();
}

// The decay tick of fungusbench's ingest_decay cycle: retention 630 s
// on a 60 s clock, segments frozen after 2 idle ticks, and 4,000 rows
// inserted per 60 s cycle. Each tick kills one cycle's rows (a whole
// segment and part of the one the rot front cuts), decrements the
// straddler row by row, folds the rest, and freezes what went idle.
// Only the tick is timed, not the inserts before it.
void BM_IngestDecayTick(benchmark::State& state) {
  Database db;
  db.CreateTable("readings", ReadingsSchema()).value();
  db.AttachFungus("readings", std::make_unique<RetentionFungus>(630 * kSecond),
                  60 * kSecond)
      .value();
  FUNGUSDB_CHECK_OK(db.SetFreezeAfterIdleTicks("readings", 2));
  Rng rng(22);
  auto insert_cycle = [&] {
    const std::vector<std::vector<Value>> rows = RandomReadings(rng, 4000);
    for (const Result<RowId>& row : db.Insert("readings", rows)) {
      FUNGUSDB_CHECK_OK(row.status());
    }
  };
  // Warm up into the steady state: a full retention window of cycles,
  // then enough more for the freeze policy to have caught up.
  for (int c = 0; c < 40; ++c) {
    insert_cycle();
    db.AdvanceTime(60 * kSecond).value();
  }
  for (auto _ : state) {
    insert_cycle();
    const auto begin = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(db.AdvanceTime(60 * kSecond));
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count());
  }
}
BENCHMARK(BM_IngestDecayTick)->UseManualTime()->Unit(benchmark::kMicrosecond);

// Freeze then thaw one full 4096-row segment of the readings shape:
// the encode, the block checksum and the decode back to plain vectors.
void BM_FreezeThaw(benchmark::State& state) {
  const Schema schema = ReadingsSchema();
  Segment seg(schema, 0, 4096, /*track_access=*/false);
  Rng rng(22);
  for (const std::vector<Value>& row : RandomReadings(rng, 4096)) {
    seg.Append(row, 0);
  }
  for (auto _ : state) {
    seg.Freeze();
    seg.Thaw();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FreezeThaw)->Unit(benchmark::kMicrosecond);

void BM_EgiTick(benchmark::State& state) {
  Table t = FilledTable(100000);
  EgiFungus::Params p;
  p.seeds_per_tick = 4.0;
  p.decay_step = 0.1;
  EgiFungus fungus(p);
  Timestamp now = 0;
  for (auto _ : state) {
    DecayContext ctx(&t, ++now);
    fungus.Tick(ctx);
    if (t.live_rows() < 50000) {
      state.PauseTiming();
      t = FilledTable(100000);
      fungus.Reset();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_EgiTick);

void BM_QueryScanFilter(benchmark::State& state) {
  // `temp > 25` compiles to the typed fast-scan path.
  Table t = FilledTable(state.range(0));
  QueryEngine engine;
  const Query q =
      ParseQuery("SELECT count(*) AS n FROM t WHERE temp > 25").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q, t, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueryScanFilter)->Arg(10000)->Arg(100000);

void BM_QueryScanFilterGeneric(benchmark::State& state) {
  // The same rows through `temp + 0 > 25`: arithmetic declines vector
  // compilation, so this measures the tuple-at-a-time tree walker (the
  // ablation pair of BM_QueryScanFilter).
  Table t = FilledTable(state.range(0));
  QueryEngine engine;
  const Query q = ParseQuery(
                      "SELECT count(*) AS n FROM t "
                      "WHERE temp + 0 > 25")
                      .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q, t, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueryScanFilterGeneric)->Arg(10000)->Arg(100000);

/// The fungusbench `readings` shape: sensor int64, value float64 and a
/// low-cardinality site string.
Table FilledReadings(int64_t rows) {
  TableOptions opts;
  opts.rows_per_segment = 4096;
  Table t("readings",
          Schema::Make({{"sensor", DataType::kInt64, false},
                        {"value", DataType::kFloat64, false},
                        {"site", DataType::kString, false}})
              .value(),
          opts);
  const char* sites[] = {"north", "south", "east", "west", "depot"};
  for (int64_t i = 0; i < rows; ++i) {
    t.Append({Value::Int64(i % 100), Value::Float64(20.0 + (i * 7) % 10),
              Value::String(sites[(i * 3) % 5])},
             i)
        .value();
  }
  return t;
}

void BM_QuerySumFiltered(benchmark::State& state) {
  // Aggregation tail: a float64 sum and average over a 50% sensor
  // range.
  Table t = FilledReadings(state.range(0));
  QueryEngine engine;
  const Query q = ParseQuery(
                      "SELECT sum(value) AS s, avg(value) AS a "
                      "FROM readings WHERE sensor >= 25 AND sensor < 75")
                      .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q, t, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuerySumFiltered)->Arg(100000);

void BM_QueryGroupByString(benchmark::State& state) {
  // GROUP BY tail: string keys, a count and a sum per group.
  Table t = FilledReadings(state.range(0));
  QueryEngine engine;
  const Query q = ParseQuery(
                      "SELECT site, count(*) AS n, sum(value) AS s "
                      "FROM readings WHERE value >= 25 GROUP BY site")
                      .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q, t, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueryGroupByString)->Arg(100000);

void BM_ParseQuery(benchmark::State& state) {
  const std::string sql =
      "CONSUME SELECT sensor, avg(temp) AS t FROM readings "
      "WHERE temp BETWEEN 20 AND 30 AND sensor % 2 = 0 "
      "GROUP BY sensor ORDER BY t DESC LIMIT 10";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseQuery(sql));
  }
}
BENCHMARK(BM_ParseQuery);

// One fungusbench write batch: 500 `\insert` statements split and
// parsed into typed rows, as fungusd's writer does before one
// Database::Insert.
void BM_InsertRunParse(benchmark::State& state) {
  Database db;
  db.CreateTable("readings",
                 Schema::Make({{"sensor", DataType::kInt64, false},
                               {"value", DataType::kFloat64, false},
                               {"site", DataType::kString, false}})
                     .value())
      .value();
  std::vector<std::string> statements;
  for (int i = 0; i < 500; ++i) {
    char text[64];
    std::snprintf(text, sizeof(text), "\\insert readings %d,%d.%02d,s%02d",
                  i * 37 % 1000, i * 13 % 200, i % 4 * 25, i % 16);
    statements.push_back(text);
  }
  const Result<TableHandle> table = db.GetTable("readings");
  for (auto _ : state) {
    std::vector<std::vector<Value>> rows;
    rows.reserve(statements.size());
    for (const std::string& statement : statements) {
      rows.push_back(ParseInsertRow(*SplitInsert(statement), table).value());
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_InsertRunParse);

// The response codec, encode then decode: arg 0 is a write batch's 500
// row-id answers, written as fungusd's writer writes them; arg 1 one
// 2,000-row, two-column projection.
void BM_ResponseCodec(benchmark::State& state) {
  const bool projection = state.range(0) == 1;
  ResultSet rows;
  rows.column_names = {"sensor", "value"};
  for (int i = 0; i < 2000; ++i) {
    rows.rows.push_back({Value::Int64(i), Value::Float64(i * 0.25)});
  }
  for (auto _ : state) {
    server::ResponseEncoder encoder(7, projection ? 1 : 500);
    if (projection) {
      encoder.Add(rows);
    } else {
      for (int i = 0; i < 500; ++i) encoder.AddInt64Answer(kRowIdColumn, i);
    }
    const std::string payload = encoder.Finish();
    benchmark::DoNotOptimize(server::DecodeStatementResponse(payload));
  }
}
BENCHMARK(BM_ResponseCodec)->Arg(0)->Arg(1);

void BM_CountMinObserve(benchmark::State& state) {
  CountMinSketch sketch(1024, 4);
  int64_t i = 0;
  for (auto _ : state) {
    sketch.Observe(Value::Int64(++i % 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinObserve);

void BM_HyperLogLogObserve(benchmark::State& state) {
  HyperLogLog hll(12);
  int64_t i = 0;
  for (auto _ : state) {
    hll.Observe(Value::Int64(++i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperLogLogObserve);

}  // namespace
}  // namespace fungusdb

BENCHMARK_MAIN();

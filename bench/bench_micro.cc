// Microbenchmarks (google-benchmark) for the hot paths underneath the
// experiment harnesses: append, scan, decay ticks, query execution, and
// sketch updates. These calibrate the absolute numbers quoted in
// EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include "fungus/egi_fungus.h"
#include "fungus/retention_fungus.h"
#include "query/engine.h"
#include "query/parser.h"
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

// Experiment T7 — zone-map pruning win on selective scans.
//
// Claim: insertion-ordered segments give every range predicate a tight
// per-segment zone, so selective scans touch only the segments that can
// match. At <= 1% selectivity the ordered table should scan >= 5x more
// rows/sec than the same values in shuffled order, where every zone
// spans the whole range and no segment can be skipped; at 100%
// selectivity the skip decision must cost nothing.
//
// Setup: two tables of `rows` tuples (argv[1], default 1M), 4096
// rows/segment, holding the values 0..rows-1 in column `v`:
//  * ordered: `v` equals the row number;
//  * shuffled: the same values in a seeded random order, after which
//    each segment is given one of the largest values (one per segment),
//    so no zone can exclude `v >= threshold` at any tested selectivity
//    (a short tail segment would otherwise often miss them all).
// For each selectivity in {0.1%, 1%, 10%, 100%} run
// `SELECT count(*) WHERE v >= threshold` on both and report mean
// latency, scan throughput and segments pruned. Both layouts must
// return the same count.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "query/engine.h"
#include "query/parser.h"
#include "storage/table.h"

namespace fungusdb {
namespace {

constexpr int kRepetitions = 5;
constexpr size_t kRowsPerSegment = 4096;

double RunCase(QueryEngine& engine, Table& table, const std::string& sql,
               ResultSet* last) {
  Query query = ParseQuery(sql).value();
  engine.Execute(query, table, 0).value();  // warm-up
  bench::Stopwatch watch;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    *last = engine.Execute(query, table, 0).value();
  }
  return watch.ElapsedMicros() / kRepetitions;
}

/// The values 0..rows-1 in the shuffled layout's append order.
std::vector<int64_t> ShuffledValues(uint64_t rows) {
  std::vector<int64_t> values(rows);
  for (uint64_t n = 0; n < rows; ++n) values[n] = static_cast<int64_t>(n);
  Rng rng(7);
  rng.Shuffle(values);
  std::vector<size_t> position(rows);
  for (size_t p = 0; p < rows; ++p) {
    position[static_cast<size_t>(values[p])] = p;
  }
  // Segment j's first slot takes the (j+1)-th largest value. Each swap
  // leaves every earlier segment's first slot alone.
  for (size_t j = 0; j * kRowsPerSegment < rows; ++j) {
    const size_t slot = j * kRowsPerSegment;
    const size_t from = position[rows - 1 - j];
    std::swap(values[slot], values[from]);
    position[static_cast<size_t>(values[from])] = from;
    position[static_cast<size_t>(values[slot])] = slot;
  }
  return values;
}

std::unique_ptr<Table> MakeTable(const std::vector<int64_t>& values) {
  TableOptions topts;
  topts.rows_per_segment = kRowsPerSegment;
  auto table = std::make_unique<Table>(
      "events", Schema::Make({{"v", DataType::kInt64, false}}).value(),
      topts);
  for (size_t n = 0; n < values.size(); ++n) {
    table->Append({Value::Int64(values[n])}, static_cast<Timestamp>(n))
        .value();
  }
  return table;
}

int Run(uint64_t rows) {
  bench::Banner("T7", "zone-map pruning: ordered vs shuffled layout");
  bench::JsonReport report("scan");

  std::vector<int64_t> ordered_values(rows);
  for (uint64_t n = 0; n < rows; ++n) {
    ordered_values[n] = static_cast<int64_t>(n);
  }
  const std::unique_ptr<Table> ordered = MakeTable(ordered_values);
  const std::unique_ptr<Table> shuffled = MakeTable(ShuffledValues(rows));
  const struct {
    const char* name;
    Table* table;
  } layouts[] = {{"ordered", ordered.get()}, {"shuffled", shuffled.get()}};
  QueryEngine engine;

  bench::TablePrinter printer({"selectivity_pct", "layout", "rows",
                               "rows_matched", "segments_pruned",
                               "mean_us", "rows_per_sec"},
                              16);
  printer.MirrorTo(&report);
  printer.PrintHeader();

  int status = 0;
  const double kSelectivities[] = {0.001, 0.01, 0.1, 1.0};
  for (double sel : kSelectivities) {
    const uint64_t threshold =
        rows - static_cast<uint64_t>(static_cast<double>(rows) * sel);
    const std::string sql =
        "SELECT count(*) AS n FROM events WHERE v >= " +
        std::to_string(threshold);
    double mean_us[2];
    uint64_t matched[2];
    for (size_t l = 0; l < 2; ++l) {
      Table& table = *layouts[l].table;
      ResultSet rs;
      mean_us[l] = RunCase(engine, table, sql, &rs);
      matched[l] = rs.stats.rows_matched;
      const double rows_per_sec =
          static_cast<double>(table.live_rows()) / (mean_us[l] / 1e6);
      printer.PrintRow({bench::Fmt(sel * 100.0, 1), layouts[l].name,
                        bench::Fmt(table.live_rows()),
                        bench::Fmt(rs.stats.rows_matched),
                        bench::Fmt(rs.stats.segments_pruned),
                        bench::Fmt(mean_us[l], 1),
                        bench::Fmt(rows_per_sec, 0)});
    }
    if (matched[0] != matched[1]) {
      std::fprintf(stderr,
                   "selectivity %.1f%%: layouts disagree (%llu vs %llu "
                   "rows)\n",
                   sel * 100.0, static_cast<unsigned long long>(matched[0]),
                   static_cast<unsigned long long>(matched[1]));
      status = 1;
    }
    std::printf("  -> selectivity %.1f%%: ordered layout %.1fx faster\n",
                sel * 100.0, mean_us[1] / mean_us[0]);
  }
  report.Write();
  return status;
}

}  // namespace
}  // namespace fungusdb

int main(int argc, char** argv) {
  uint64_t rows = 1000000;
  if (argc > 1) rows = std::strtoull(argv[1], nullptr, 10);
  return fungusdb::Run(rows);
}

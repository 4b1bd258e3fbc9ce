// Experiment T6 — pool-width sweep: morsel scans scale, tick outcomes
// do not depend on the pool.
//
// Claim: morsel-driven scan throughput scales with the Database pool's
// width, while decay-tick outcomes stay byte-identical at every width —
// ticks run serially on the writer, and the pool only fans out scans.
//
// Setup: a 1M-row IoT table per pool width (1/2/4/8). Each run measures
// (a) fast-path scan throughput over repeated range queries, (b)
// wall-clock cost of 20 EGI decay ticks, and (c) a checksum of the
// surviving (row, freshness) pairs. The checksum column must be
// identical down the sweep; scan speedups depend on the host's actual
// core count, and decay_ms should not move with the width.
//
// A second sweep (d) pits lazy epoch decay against eager row walks on a
// table whose segments are all frozen before the timed ticks (uniform
// retention decrement, no deaths): with lazy_decay on, every tick
// folds one pending decrement per segment — O(segments) — and the
// segments stay frozen, while eager ticks thaw every segment to
// rewrite its rows. Lazy must come out >= 10x cheaper per tick; the
// frozen_segments column shows how many segments are still frozen
// after the timed ticks.

#include <cstdint>
#include <memory>

#include "bench/bench_util.h"
#include "core/database.h"
#include "core/internal_access.h"
#include "fungus/egi_fungus.h"
#include "fungus/retention_fungus.h"
#include "summary/hashing.h"
#include "workload/iot_workload.h"

namespace fungusdb {
namespace {

constexpr uint64_t kRows = 1000000;
constexpr int kScanRepetitions = 10;
constexpr int kDecayTicks = 20;

const char* kScanQuery =
    "SELECT count(*) AS n FROM readings WHERE temp > 21";

/// Order-sensitive digest of the live extent: row ids and freshness
/// bits, chained through the repo's 64-bit hash.
uint64_t LiveChecksum(const Table& t) {
  uint64_t h = 0;
  t.ForEachLive([&](RowId row) {
    const double f = t.Freshness(row);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(f));
    __builtin_memcpy(&bits, &f, sizeof(bits));
    const uint64_t pair[2] = {row, bits};
    h = HashBytes(pair, sizeof(pair), /*seed=*/h);
  });
  return h;
}

void Run() {
  bench::Banner("T6",
                "pool width: morsel scans scale, tick outcomes do not move");
  bench::JsonReport report("T6");

  bench::TablePrinter printer({"threads", "scan_rows_per_s", "scan_speedup",
                               "decay_ms", "decay_speedup", "live_rows",
                               "checksum"},
                              16);
  printer.MirrorTo(&report);
  printer.PrintHeader();

  double base_scan = 0.0;
  double base_decay = 0.0;
  uint64_t base_checksum = 0;
  bool checksums_agree = true;

  for (size_t threads : {1, 2, 4, 8}) {
    DatabaseOptions opts;
    opts.num_threads = threads;
    Database db(opts);
    IotWorkload workload(IotWorkload::Params{});
    TableOptions topts;
    topts.rows_per_segment = 4096;  // ~244 morsels
    db.CreateTable("readings", workload.schema(), topts).value();
    db.Ingest("readings", workload, kRows).value();
    const TableHandle t = db.GetTable("readings").value();

    // (a) Morsel-driven scan throughput.
    db.ExecuteSql(kScanQuery).value();  // warm-up
    uint64_t scanned = 0;
    bench::Stopwatch scan_watch;
    for (int rep = 0; rep < kScanRepetitions; ++rep) {
      ResultSet rs = db.ExecuteSql(kScanQuery).value();
      scanned += rs.stats.rows_scanned;
    }
    const double scan_rows_per_s =
        static_cast<double>(scanned) / (scan_watch.ElapsedMicros() / 1e6);

    // (b) Decay ticks (EGI: the heaviest fungus — RNG seeding, spread,
    // per-row decay).
    EgiFungus::Params p;
    p.seeds_per_tick = 64.0;
    p.decay_step = 0.08;
    p.spread_probability = 0.9;
    db.AttachFungus("readings", std::make_unique<EgiFungus>(p), kSecond)
        .value();
    bench::Stopwatch decay_watch;
    db.AdvanceTime(kDecayTicks * kSecond).value();
    const double decay_ms = decay_watch.ElapsedMicros() / 1000.0;

    // (c) Outcome fingerprint — must match the single-thread run bit
    // for bit.
    const uint64_t checksum = LiveChecksum(t.table());
    if (threads == 1) {
      base_scan = scan_rows_per_s;
      base_decay = decay_ms;
      base_checksum = checksum;
    } else if (checksum != base_checksum) {
      checksums_agree = false;
    }

    char checksum_hex[19];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  static_cast<unsigned long long>(checksum));
    printer.PrintRow(
        {bench::Fmt(static_cast<uint64_t>(threads)),
         bench::Fmt(scan_rows_per_s, 0),
         bench::Fmt(scan_rows_per_s / base_scan, 2) + "x",
         bench::Fmt(decay_ms, 1),
         bench::Fmt(base_decay / decay_ms, 2) + "x",
         bench::Fmt(t.live_rows()), checksum_hex});
  }

  std::printf("\ndecay outcomes %s across thread counts%s\n",
              checksums_agree ? "IDENTICAL" : "DIVERGED",
              checksums_agree ? "" : " — determinism contract violated!");

  // (d) Lazy epoch decay vs eager row walks on an all-frozen table:
  // long-retention fungus, every row inserted at t=0, so after the
  // first (formula) tick every subsequent tick is a uniform decrement
  // fully covered by the zone map — the fold fast path.
  std::printf("\nlazy epoch decay: O(segments) ticks on a frozen table\n");
  bench::TablePrinter lazy_printer(
      {"decay_mode", "ticks", "tick_ms", "segments_folded",
       "frozen_segments", "tick_speedup"},
      16);
  lazy_printer.MirrorTo(&report);
  lazy_printer.PrintHeader();

  double eager_tick_ms = 0.0;
  double lazy_tick_ms = 0.0;
  for (const bool lazy : {false, true}) {
    DatabaseOptions opts;
    opts.num_threads = 4;
    Database db(opts);
    IotWorkload workload(IotWorkload::Params{});
    TableOptions topts;
    topts.rows_per_segment = 4096;
    topts.lazy_decay = lazy;
    db.CreateTable("readings", workload.schema(), topts).value();
    db.Ingest("readings", workload, kRows).value();
    const TableHandle t = db.GetTable("readings").value();

    // Retention far beyond the bench horizon: ticks decrement freshness
    // uniformly and kill nothing, keeping every segment foldable.
    db.AttachFungus("readings",
                    std::make_unique<RetentionFungus>(1000 * kHour),
                    /*interval=*/kMinute)
        .value();
    // First tick runs the per-row formula pass in both modes.
    db.AdvanceTime(kMinute).value();
    {
      // Every full segment goes to the cold tier before the timed
      // ticks, in both modes.
      RwLock::WriteLock write_lock(db.lock());
      internal::DatabaseInternal::MutableTable(db, "readings")
          .value()
          ->FreezeColdSegments(/*min_idle_epochs=*/0);
    }

    bench::Stopwatch watch;
    db.AdvanceTime(kDecayTicks * kMinute).value();
    const double tick_ms =
        watch.ElapsedMicros() / 1000.0 / kDecayTicks;

    uint64_t folded = 0;
    if (const auto info = db.scheduler().StatsForTable(&t.table())) {
      folded = info->decay.segments_folded;
    }
    if (lazy) {
      lazy_tick_ms = tick_ms;
    } else {
      eager_tick_ms = tick_ms;
    }
    lazy_printer.PrintRow(
        {lazy ? "lazy" : "eager", bench::Fmt(uint64_t{kDecayTicks}),
         bench::Fmt(tick_ms, 3), bench::Fmt(folded),
         bench::Fmt(t.storage_stats().frozen_segments),
         lazy ? bench::Fmt(eager_tick_ms / tick_ms, 1) + "x" : "1.0x"});
  }
  std::printf("\nlazy ticks are %.1fx cheaper than eager on the frozen "
              "table (bar: 10x)\n",
              eager_tick_ms / lazy_tick_ms);

  report.Write();
}

}  // namespace
}  // namespace fungusdb

int main() {
  fungusdb::Run();
  return 0;
}

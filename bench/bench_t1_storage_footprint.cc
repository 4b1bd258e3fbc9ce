// Experiment T1 — storage footprint over time under different fungi.
//
// Claim (paper §1): "Don't collect more rice than you can eat" — without
// decay the fridge grows without bound; with a fungus the extent reaches
// a bounded steady state.
//
// Workload: IoT stream, 10k tuples per virtual day for 30 days. The
// decay clock ticks every 2 hours. One table per fungus:
//   none            — the ever-growing fridge (baseline)
//   retention(7d)   — the paper's "old-fashioned" fungus
//   exponential     — half-life 3d, kill threshold 0.05
//   egi             — the paper's epidemic fungus
//
// Expected shape: `none` grows linearly to 300k tuples; every decay
// variant flattens out well below it.

#include <memory>

#include "bench/bench_util.h"
#include "core/database.h"
#include "core/internal_access.h"
#include "storage/encode/frozen.h"
#include "fungus/egi_fungus.h"
#include "fungus/exponential_fungus.h"
#include "fungus/retention_fungus.h"
#include "workload/iot_workload.h"

namespace fungusdb {
namespace {

constexpr int kDays = 30;
constexpr uint64_t kTuplesPerDay = 10000;
constexpr Duration kTickPeriod = 2 * kHour;

struct Variant {
  std::string label;
  std::unique_ptr<Database> db;
};

void Run() {
  bench::Banner("T1", "storage footprint over 30 virtual days");
  bench::JsonReport report("T1");

  std::vector<Variant> variants;
  auto add_variant = [&](const std::string& label,
                         std::unique_ptr<Fungus> fungus) {
    auto db = std::make_unique<Database>();
    TableOptions topts;
    topts.rows_per_segment = 1024;
    IotWorkload::Params wp;
    db->CreateTable("readings", IotWorkload(wp).schema(), topts).value();
    if (fungus != nullptr) {
      db->AttachFungus("readings", std::move(fungus), kTickPeriod).value();
    }
    variants.push_back({label, std::move(db)});
  };

  add_variant("none", nullptr);
  add_variant("retention", std::make_unique<RetentionFungus>(7 * kDay));
  add_variant("exponential",
              [] {
                ExponentialFungus::Params p =
                    ExponentialFungus::FromHalfLife(3 * kDay);
                p.kill_threshold = 0.05;
                return std::make_unique<ExponentialFungus>(p);
              }());
  add_variant("egi", [] {
    EgiFungus::Params p;
    p.seeds_per_tick = 8.0;
    p.decay_step = 0.34;
    p.spread_probability = 1.0;
    p.age_bias = 2.0;
    return std::make_unique<EgiFungus>(p);
  }());

  // One workload generator per variant so streams are identical.
  std::vector<std::unique_ptr<IotWorkload>> workloads;
  for (size_t i = 0; i < variants.size(); ++i) {
    workloads.push_back(
        std::make_unique<IotWorkload>(IotWorkload::Params{}));
  }

  bench::TablePrinter printer({"day", "fungus", "live_rows", "appended",
                               "memory_MiB", "segments"});
  printer.MirrorTo(&report);
  printer.PrintHeader();
  for (int day = 1; day <= kDays; ++day) {
    for (size_t i = 0; i < variants.size(); ++i) {
      Database& db = *variants[i].db;
      db.Ingest("readings", *workloads[i], kTuplesPerDay).value();
      db.AdvanceTime(kDay).value();
      if (day % 3 != 0) continue;
      const TableHandle t = db.GetTable("readings").value();
      printer.PrintRow(
          {std::to_string(day), variants[i].label,
           bench::Fmt(t.live_rows()), bench::Fmt(t.total_appended()),
           bench::Fmt(static_cast<double>(t.memory_bytes()) / (1 << 20)),
           bench::Fmt(static_cast<uint64_t>(t.num_segments()))});
    }
  }

  std::printf("\nsummary: final live rows (lower is a tighter fridge)\n");
  for (const Variant& v : variants) {
    const TableHandle t = v.db->GetTable("readings").value();
    std::printf("  %-12s live=%llu of %llu appended\n", v.label.c_str(),
                static_cast<unsigned long long>(t.live_rows()),
                static_cast<unsigned long long>(t.total_appended()));
  }

  // Cold-tier coda (PR 9): freeze every full segment and report the
  // per-column encoded footprint against its plain-tier cost. The day
  // table above is the capacity story; this is where the bytes went.
  std::printf("\ncold tier: per-column encoded footprint after "
              "freezing all full segments\n");
  bench::TablePrinter cold({"fungus", "column", "plain_bytes",
                            "encoded_bytes", "ratio"});
  cold.MirrorTo(&report);
  cold.PrintHeader();
  for (Variant& v : variants) {
    RwLock::WriteLock write_lock(v.db->lock());
    Table* t =
        internal::DatabaseInternal::MutableTable(*v.db, "readings")
            .value();
    t->FreezeColdSegments(0);
    const size_t num_fields = t->schema().num_fields();
    std::vector<uint64_t> plain(num_fields, 0);
    std::vector<uint64_t> encoded(num_fields, 0);
    for (const auto& [seg_no, seg] : t->segments()) {
      if (!seg->is_frozen()) continue;
      const encode::FrozenSegment& fz = seg->frozen();
      for (size_t c = 0; c < num_fields && c < fz.columns.size(); ++c) {
        plain[c] += fz.columns[c].plain_bytes;
        encoded[c] +=
            sizeof(encode::FrozenColumn) + fz.columns[c].HeapBytes();
      }
    }
    for (size_t c = 0; c < num_fields; ++c) {
      const double ratio =
          encoded[c] == 0
              ? 0.0
              : static_cast<double>(plain[c]) /
                    static_cast<double>(encoded[c]);
      cold.PrintRow({v.label, t->schema().field(c).name,
                     bench::Fmt(plain[c]), bench::Fmt(encoded[c]),
                     bench::Fmt(ratio, 2)});
    }
  }
  report.Write();
}

}  // namespace
}  // namespace fungusdb

int main() {
  fungusdb::Run();
  return 0;
}

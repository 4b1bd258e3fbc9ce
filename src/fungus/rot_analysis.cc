#include "fungus/rot_analysis.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace fungusdb {

RotStructure AnalyzeRot(const Table& table) {
  RotStructure out;
  const uint64_t total = table.total_appended();
  uint64_t run = 0;
  for (RowId row = 0; row < total; ++row) {
    const bool contained = table.Contains(row);
    const bool live = contained && table.IsLive(row);
    if (live) {
      ++out.live_tuples;
      if (run > 0) {
        out.spot_lengths.push_back(run);
        run = 0;
      }
    } else {
      if (contained) {
        ++out.dead_tuples;
      } else {
        ++out.reclaimed_tuples;
      }
      ++run;
    }
  }
  if (run > 0) out.spot_lengths.push_back(run);
  std::sort(out.spot_lengths.begin(), out.spot_lengths.end());
  out.num_spots = out.spot_lengths.size();
  if (out.num_spots > 0) {
    out.max_spot = out.spot_lengths.back();
    uint64_t sum = 0;
    for (uint64_t len : out.spot_lengths) sum += len;
    out.mean_spot =
        static_cast<double>(sum) / static_cast<double>(out.num_spots);
  }
  return out;
}

std::vector<uint64_t> FreshnessHistogram(const Table& table,
                                         size_t buckets) {
  std::vector<uint64_t> hist(buckets, 0);
  if (buckets == 0) return hist;
  table.ForEachLive([&](RowId row) {
    const double f = table.Freshness(row);
    size_t bucket = static_cast<size_t>(f * static_cast<double>(buckets));
    if (bucket >= buckets) bucket = buckets - 1;
    ++hist[bucket];
  });
  return hist;
}

std::string RenderTimeAxis(const Table& table, size_t width) {
  const uint64_t total = table.total_appended();
  if (total == 0 || width == 0) return std::string(width, ' ');
  std::string strip;
  strip.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    const uint64_t begin = total * i / width;
    uint64_t end = total * (i + 1) / width;
    if (end == begin) end = begin + 1;
    uint64_t live = 0;
    for (RowId row = begin; row < end && row < total; ++row) {
      if (table.IsLive(row)) ++live;
    }
    const double frac =
        static_cast<double>(live) / static_cast<double>(end - begin);
    if (frac >= 0.95) {
      strip.push_back('#');
    } else if (frac <= 0.05) {
      strip.push_back('.');
    } else {
      strip.push_back(static_cast<char>('1' + static_cast<int>(frac * 8)));
    }
  }
  return strip;
}

std::string RenderFreshnessAxis(const Table& table, size_t width) {
  // Darker glyph = fresher. 10 steps over [0, 1].
  static constexpr char kRamp[] = " .:-=+*#%@";
  const uint64_t total = table.total_appended();
  if (total == 0 || width == 0) return std::string(width, ' ');
  std::string strip;
  strip.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    const uint64_t begin = total * i / width;
    uint64_t end = total * (i + 1) / width;
    if (end == begin) end = begin + 1;
    uint64_t live = 0;
    double freshness_sum = 0.0;
    for (RowId row = begin; row < end && row < total; ++row) {
      if (!table.Contains(row) || !table.IsLive(row)) continue;
      ++live;
      freshness_sum += table.Freshness(row);
    }
    if (live == 0) {
      strip.push_back(' ');
      continue;
    }
    const double mean = freshness_sum / static_cast<double>(live);
    int step = 1 + static_cast<int>(mean * 9.0);  // live rows never blank
    step = std::clamp(step, 1, 9);
    strip.push_back(kRamp[step]);
  }
  return strip;
}

std::string RenderTierAxis(const Table& table, size_t width) {
  const uint64_t total = table.total_appended();
  if (total == 0 || width == 0) return std::string(width, ' ');
  const uint64_t rps = table.options().rows_per_segment;
  std::string strip;
  strip.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    const uint64_t begin = total * i / width;
    uint64_t end = total * (i + 1) / width;
    if (end == begin) end = begin + 1;
    bool any_frozen = false;
    bool any_plain = false;
    for (uint64_t seg_no = begin / rps; seg_no <= (end - 1) / rps;
         ++seg_no) {
      auto it = table.segments().find(seg_no);
      if (it == table.segments().end()) continue;  // reclaimed
      (it->second->is_frozen() ? any_frozen : any_plain) = true;
    }
    strip.push_back(any_frozen ? (any_plain ? '~' : 'F')
                               : (any_plain ? '.' : ' '));
  }
  return strip;
}

RotReport BuildRotReport(const Table& table,
                         const DecayScheduler* scheduler) {
  RotReport report;
  report.table_name = table.name();
  report.structure = AnalyzeRot(table);
  report.freshness_histogram = FreshnessHistogram(table, 10);
  if (const std::optional<RowId> oldest = table.OldestLive()) {
    if (const Result<Timestamp> ts = table.InsertTime(*oldest); ts.ok()) {
      report.oldest_live_ts = ts.value();
    }
  }
  if (scheduler != nullptr) {
    if (const auto info = scheduler->StatsForTable(&table)) {
      report.decay_ticks = info->ticks;
      report.segments_folded = info->decay.segments_folded;
      report.rows_materialized = info->decay.rows_materialized;
      if (info->ticks > 0 && table.num_segments() > 0) {
        report.fold_ratio =
            static_cast<double>(info->decay.segments_folded) /
            static_cast<double>(info->ticks) /
            static_cast<double>(table.num_segments());
      }
      if (info->ticks > 0 && info->decay.tuples_killed > 0) {
        const double kills_per_tick =
            static_cast<double>(info->decay.tuples_killed) /
            static_cast<double>(info->ticks);
        report.estimated_ticks_to_death =
            static_cast<double>(report.structure.live_tuples) /
            kills_per_tick;
      }
    }
  }
  const StorageStats storage = table.GetStorageStats();
  report.total_segments = storage.total_segments;
  report.frozen_segments = storage.frozen_segments;
  report.encoded_bytes = storage.encoded_bytes;
  report.plain_bytes_before = storage.plain_bytes_before;
  report.heatmap = RenderFreshnessAxis(table, 60);
  report.tier_map = RenderTierAxis(table, 60);
  return report;
}

std::string RotReport::ToString() const {
  std::ostringstream os;
  os << "rot report for " << table_name << "\n";
  os << "  rows: live=" << structure.live_tuples
     << " dead=" << structure.dead_tuples
     << " reclaimed=" << structure.reclaimed_tuples << "\n";
  os << "  spots: n=" << structure.num_spots
     << " max=" << structure.max_spot << " mean=" << structure.mean_spot
     << "\n";
  os << "  rot_front_oldest_live_ts=" << oldest_live_ts
     << " decay_ticks=" << decay_ticks
     << " est_ticks_to_death=" << estimated_ticks_to_death << "\n";
  os << "  lazy decay: segments_folded=" << segments_folded
     << " rows_materialized=" << rows_materialized
     << " fold_ratio=" << fold_ratio << "\n";
  os << "  storage tiers: frozen_segments=" << frozen_segments << "/"
     << total_segments << " encoded_bytes=" << encoded_bytes
     << " plain_bytes_before=" << plain_bytes_before;
  if (frozen_segments > 0 && encoded_bytes > 0) {
    os << " ratio=" << (static_cast<double>(plain_bytes_before) /
                        static_cast<double>(encoded_bytes));
  }
  os << "\n";
  os << "  freshness histogram (0.0 .. 1.0):\n";
  uint64_t max_count = 1;
  for (uint64_t c : freshness_histogram) max_count = std::max(max_count, c);
  for (size_t i = 0; i < freshness_histogram.size(); ++i) {
    const double lo = static_cast<double>(i) /
                      static_cast<double>(freshness_histogram.size());
    const size_t bar_len = static_cast<size_t>(
        40.0 * static_cast<double>(freshness_histogram[i]) /
        static_cast<double>(max_count));
    os << "    [" << lo << ") " << std::string(bar_len, '#') << " "
       << freshness_histogram[i] << "\n";
  }
  os << "  freshness heatmap (time axis, ' '=gone '@'=fresh):\n";
  os << "    |" << heatmap << "|\n";
  os << "  storage tier    (time axis, 'F'=frozen '.'=plain '~'=mixed):\n";
  os << "    |" << tier_map << "|\n";
  return os.str();
}

std::string RotReport::ToJson() const {
  std::ostringstream os;
  os << "{\"table\":\"" << JsonEscape(table_name) << "\""
     << ",\"live_tuples\":" << structure.live_tuples
     << ",\"dead_tuples\":" << structure.dead_tuples
     << ",\"reclaimed_tuples\":" << structure.reclaimed_tuples
     << ",\"num_spots\":" << structure.num_spots
     << ",\"max_spot\":" << structure.max_spot
     << ",\"mean_spot\":" << structure.mean_spot
     << ",\"oldest_live_ts\":" << oldest_live_ts
     << ",\"estimated_ticks_to_death\":" << estimated_ticks_to_death
     << ",\"decay_ticks\":" << decay_ticks
     << ",\"segments_folded\":" << segments_folded
     << ",\"rows_materialized\":" << rows_materialized
     << ",\"fold_ratio\":" << fold_ratio
     << ",\"total_segments\":" << total_segments
     << ",\"frozen_segments\":" << frozen_segments
     << ",\"encoded_bytes\":" << encoded_bytes
     << ",\"plain_bytes_before\":" << plain_bytes_before;
  if (frozen_segments > 0 && encoded_bytes > 0) {
    os << ",\"compression_ratio\":"
       << (static_cast<double>(plain_bytes_before) /
           static_cast<double>(encoded_bytes));
  }
  os << ",\"freshness_histogram\":[";
  for (size_t i = 0; i < freshness_histogram.size(); ++i) {
    if (i > 0) os << ",";
    os << freshness_histogram[i];
  }
  os << "]"
     << ",\"heatmap\":\"" << JsonEscape(heatmap) << "\""
     << ",\"tier_map\":\"" << JsonEscape(tier_map) << "\"}";
  return os.str();
}

}  // namespace fungusdb

#include "fungus/scheduler.h"

#include <algorithm>

#include "common/clock.h"
#include "common/trace.h"

namespace fungusdb {

Result<DecayScheduler::AttachmentId> DecayScheduler::Attach(
    Table* table, std::unique_ptr<Fungus> fungus, Duration period,
    Timestamp start_time) {
  if (table == nullptr) return Status::InvalidArgument("table is null");
  if (fungus == nullptr) return Status::InvalidArgument("fungus is null");
  if (period <= 0) {
    return Status::InvalidArgument("decay period must be positive");
  }
  Attachment a;
  a.table = table;
  a.fungus = std::move(fungus);
  a.period = period;
  a.next_tick = start_time + period;
  a.active = true;
  attachments_.push_back(std::move(a));
  return attachments_.size() - 1;
}

Status DecayScheduler::Detach(AttachmentId id) {
  if (id >= attachments_.size() || !attachments_[id].active) {
    return Status::NotFound("no attachment " + std::to_string(id));
  }
  attachments_[id].active = false;
  attachments_[id].fungus.reset();
  return Status::OK();
}

void DecayScheduler::AddDeathObserver(DeathObserver observer) {
  observers_.push_back(std::move(observer));
}

uint64_t DecayScheduler::AdvanceTo(Timestamp now) {
  uint64_t ticks = 0;
  while (true) {
    // Earliest due attachment; ties resolve by attachment order.
    Attachment* due = nullptr;
    for (Attachment& a : attachments_) {
      if (!a.active || a.next_tick > now) continue;
      if (due == nullptr || a.next_tick < due->next_tick) due = &a;
    }
    if (due == nullptr) break;

    const Timestamp tick_time = due->next_tick;
    // The tick's span and its children split it into fungus, death
    // observers, reclamation, freeze and metrics; the remainder is the
    // post-tick check and the epoch publication.
    FUNGUS_TRACE_SPAN("decay.tick");
    const int64_t tick_begin_us = SteadyMicros();
    // One tick == one decay epoch of the table; folds stamp the
    // advanced value into the segments they cover.
    due->table->AdvanceDecayEpoch();
    const uint64_t materialized_before = due->table->rows_materialized();
    DecayContext ctx(due->table, tick_time);
    {
      FUNGUS_TRACE_SPAN("decay.fungus");
      due->fungus->Tick(ctx);
    }
    DecayStats tick_stats = ctx.stats();
    const std::vector<RowId>& tick_killed = ctx.killed();
    // Materialization this tick triggered (per-row fallbacks landing on
    // previously folded segments) — the lazy path's deferred cost.
    tick_stats.rows_materialized =
        due->table->rows_materialized() - materialized_before;
    due->next_tick += due->period;
    ++due->stats.ticks;
    due->stats.decay += tick_stats;
    ++ticks;

    if (!tick_killed.empty()) {
      FUNGUS_TRACE_SPAN("decay.observers", tick_killed.size());
      for (const DeathObserver& obs : observers_) {
        obs(*due->table, tick_killed, tick_time);
      }
    }
    {
      FUNGUS_TRACE_SPAN("decay.reclaim");
      due->table->ReclaimDeadSegments();
    }
    // Freeze pass (DESIGN.md §15): full segments idle for the
    // configured number of ticks move to the encoded cold tier. Still
    // inside the tick's write section, so readers never observe a
    // representation swap mid-read — and before the post-tick check, so
    // an armed fsck audits the frozen image every tick.
    const uint64_t freeze_idle =
        due->table->options().freeze_after_idle_ticks;
    if (freeze_idle > 0) {
      FUNGUS_TRACE_SPAN("decay.freeze");
      due->table->FreezeColdSegments(freeze_idle);
    }
    if (post_tick_check_) post_tick_check_(*due->table, tick_time);
    // Tick fully applied (kills, cooking, reclamation, check): it is
    // now its own epoch on the owner's virtual timeline.
    if (epoch_publisher_) epoch_publisher_();

    if (metrics_ != nullptr) {
      FUNGUS_TRACE_SPAN("decay.metrics");
      const std::string table_label = "table=" + due->table->name();
      metrics_->IncrementCounter("fungusdb.decay.ticks");
      metrics_->IncrementCounter("fungusdb.decay.ticks", table_label);
      metrics_->IncrementCounter("fungusdb.decay.tuples_touched",
                                 tick_stats.tuples_touched);
      metrics_->IncrementCounter("fungusdb.decay.tuples_killed",
                                 tick_stats.tuples_killed);
      metrics_->IncrementCounter("fungusdb.decay.tuples_killed", table_label,
                                 tick_stats.tuples_killed);
      metrics_->IncrementCounter("fungusdb.decay.seeds_planted",
                                 tick_stats.seeds_planted);
      metrics_->IncrementCounter("fungusdb.decay.segments_skipped",
                                 tick_stats.segments_skipped);
      metrics_->IncrementCounter("fungusdb.decay.segments_folded",
                                 tick_stats.segments_folded);
      metrics_->IncrementCounter("fungusdb.decay.rows_materialized",
                                 tick_stats.rows_materialized);
      metrics_->RecordHistogram("fungusdb.decay.tick_duration_us",
                                table_label,
                                SteadyMicros() - tick_begin_us);
      // Storage tiers: current frozen census plus the cumulative thaw
      // count (mutating touches that pulled a segment back to plain).
      const StorageStats storage = due->table->GetStorageStats();
      metrics_->SetGauge("fungusdb.storage.frozen_segments", table_label,
                         static_cast<double>(storage.frozen_segments));
      metrics_->SetGauge("fungusdb.storage.encoded_bytes", table_label,
                         static_cast<double>(storage.encoded_bytes));
      metrics_->SetGauge("fungusdb.storage.plain_bytes_before", table_label,
                         static_cast<double>(storage.plain_bytes_before));
      metrics_->SetGauge("fungusdb.storage.thaw_count", table_label,
                         static_cast<double>(storage.thaw_count));
      // Rot front: virtual insertion time of the oldest tuple still
      // alive. -1 means the table has fully decayed.
      const std::optional<RowId> oldest = due->table->OldestLive();
      double front = -1.0;
      if (oldest.has_value()) {
        const Result<Timestamp> ts = due->table->InsertTime(*oldest);
        if (ts.ok()) front = static_cast<double>(ts.value());
      }
      metrics_->SetGauge("fungusdb.rot.oldest_live_ts", table_label, front);
    }
  }
  return ticks;
}

const DecayScheduler::Attachment* DecayScheduler::AttachmentForTable(
    const Table* table) const {
  for (const Attachment& a : attachments_) {
    if (a.active && a.table == table) return &a;
  }
  return nullptr;
}

std::optional<DecayScheduler::TableDecayInfo> DecayScheduler::StatsForTable(
    const Table* table) const {
  const Attachment* a = AttachmentForTable(table);
  if (a == nullptr) return std::nullopt;
  TableDecayInfo info;
  info.period = a->period;
  info.next_tick = a->next_tick;
  info.ticks = a->stats.ticks;
  info.decay = a->stats.decay;
  return info;
}

DecayScheduler::AttachmentStats DecayScheduler::StatsFor(
    AttachmentId id) const {
  if (id >= attachments_.size()) return AttachmentStats{};
  return attachments_[id].stats;
}

size_t DecayScheduler::num_attachments() const {
  return static_cast<size_t>(
      std::count_if(attachments_.begin(), attachments_.end(),
                    [](const Attachment& a) { return a.active; }));
}

}  // namespace fungusdb

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

std::vector<RowId> DecayScheduler::RunShardedTick(Attachment& a,
                                                  Timestamp tick_time,
                                                  DecayStats* tick_stats) {
  Table& table = *a.table;
  const size_t num_shards = table.num_shards();
  const uint64_t tick_index = a.stats.ticks;
  const uint64_t barrier_before =
      pool_ != nullptr ? pool_->barrier_wait_micros() : 0;

  a.fungus->BeginShardedTick(table, tick_time);

  // Phase 1 — plan: read-only over the frozen table, one planner per
  // shard, mutations recorded instead of applied.
  std::vector<ShardPlan> plans(num_shards);
  auto plan_one = [&](size_t s) {
    FUNGUS_TRACE_SPAN("decay.plan.shard", s);
    ShardPlanContext ctx(&table, static_cast<uint32_t>(s), tick_time,
                         tick_index);
    a.fungus->PlanShard(ctx);
    plans[s] = ctx.TakePlan();
  };

  // Phase 2 — apply: each worker owns exactly one shard, so all writes
  // are disjoint; killed rows and stats accumulate per shard.
  std::vector<std::vector<RowId>> killed(num_shards);
  std::vector<DecayStats> stats(num_shards);
  auto apply_one = [&](size_t s) {
    FUNGUS_TRACE_SPAN("decay.apply.shard", s);
    Shard& shard = table.shard(s);
    // Folds first: the plan-time foldability proof assumes the segment
    // is untouched since the barrier, and the planner never mixes a
    // fold with row actions against the same segment.
    for (const ShardFold& fold : plans[s].folds) {
      auto it = shard.segments().find(fold.seg_no);
      if (it == shard.segments().end()) continue;
      const uint64_t live = it->second->live_count();
      if (shard.TryFoldUniformDecay(fold.seg_no, fold.delta)) {
        stats[s].tuples_touched += live;
        ++stats[s].segments_folded;
      } else {
        // Unreachable while the stability argument holds; decay row by
        // row so a soft refusal still yields the planned state.
        const Segment& seg = *it->second;
        const size_t n = seg.num_rows();
        for (size_t off = 0; off < n; ++off) {
          if (!seg.IsLive(off)) continue;
          const RowId row = seg.first_row() + off;
          ++stats[s].tuples_touched;
          FUNGUSDB_CHECK_OK(shard.DecayFreshness(row, fold.delta));
          if (!shard.IsLive(row)) {
            killed[s].push_back(row);
            ++stats[s].tuples_killed;
          }
        }
      }
    }
    for (const ShardAction& action : plans[s].actions) {
      if (!shard.IsLive(action.row)) continue;  // killed earlier this plan
      ++stats[s].tuples_touched;
      // Rows were checked live under this plan, so the shard mutators
      // cannot fail; a failure means the planner saw a different table.
      switch (action.op) {
        case ShardAction::Op::kDecay:
          FUNGUSDB_CHECK_OK(shard.DecayFreshness(action.row, action.amount));
          break;
        case ShardAction::Op::kSet:
          FUNGUSDB_CHECK_OK(shard.SetFreshness(action.row, action.amount));
          break;
        case ShardAction::Op::kKill:
          FUNGUSDB_CHECK_OK(shard.Kill(action.row));
          break;
      }
      if (!shard.IsLive(action.row)) {
        killed[s].push_back(action.row);
        ++stats[s].tuples_killed;
      }
    }
    stats[s].seeds_planted = plans[s].seeds_planted;
    stats[s].segments_skipped = plans[s].segments_skipped;
  };

  {
    FUNGUS_TRACE_SPAN("decay.plan", num_shards);
    if (pool_ != nullptr) {
      pool_->ParallelFor(num_shards, plan_one);
    } else {
      for (size_t s = 0; s < num_shards; ++s) plan_one(s);
    }
  }
  {
    FUNGUS_TRACE_SPAN("decay.apply", num_shards);
    if (pool_ != nullptr) {
      pool_->ParallelFor(num_shards, apply_one);
    } else {
      for (size_t s = 0; s < num_shards; ++s) apply_one(s);
    }
  }

  // Merge: death observers (and the Kitchen behind them) see one list
  // per tick in insertion order, independent of shard/thread schedule.
  std::vector<RowId> all_killed;
  size_t total_killed = 0;
  for (const auto& k : killed) total_killed += k.size();
  all_killed.reserve(total_killed);
  for (const auto& k : killed) {
    all_killed.insert(all_killed.end(), k.begin(), k.end());
  }
  std::sort(all_killed.begin(), all_killed.end());
  for (const DecayStats& s : stats) *tick_stats += s;

  a.fungus->FinishShardedTick(table, all_killed);

  if (metrics_ != nullptr) {
    metrics_->IncrementCounter("fungusdb.parallel.shard_ticks",
                               static_cast<int64_t>(num_shards));
    if (pool_ != nullptr) {
      metrics_->IncrementCounter(
          "fungusdb.parallel.barrier_wait_us",
          static_cast<int64_t>(pool_->barrier_wait_micros() -
                               barrier_before));
    }
  }
  return all_killed;
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
    const int64_t tick_begin_us = SteadyMicros();
    // One tick == one decay epoch on every shard of the table; folds
    // stamp the advanced value into the segments they cover.
    due->table->AdvanceDecayEpochs();
    const uint64_t materialized_before = due->table->rows_materialized();
    DecayStats tick_stats;
    std::vector<RowId> tick_killed;
    {
      FUNGUS_TRACE_SPAN("decay.tick");
      if (due->fungus->SupportsShardedTick() &&
          due->table->num_shards() > 1) {
        tick_killed = RunShardedTick(*due, tick_time, &tick_stats);
      } else {
        DecayContext ctx(due->table, tick_time);
        due->fungus->Tick(ctx);
        tick_stats = ctx.stats();
        tick_killed = ctx.killed();
      }
    }
    // Materialization this tick triggered (per-row fallbacks landing on
    // previously folded segments) — the lazy path's deferred cost.
    tick_stats.rows_materialized =
        due->table->rows_materialized() - materialized_before;
    due->next_tick += due->period;
    ++due->stats.ticks;
    due->stats.decay += tick_stats;
    ++ticks;

    if (!tick_killed.empty()) {
      for (const DeathObserver& obs : observers_) {
        obs(*due->table, tick_killed, tick_time);
      }
    }
    due->table->ReclaimDeadSegments();
    // Freeze pass (DESIGN.md §15): full segments idle for the
    // configured number of ticks move to the encoded cold tier. Still
    // inside the tick's write section, so readers never observe a
    // representation swap mid-pin — and before the post-tick check, so
    // an armed fsck audits the frozen image every tick.
    const uint64_t freeze_idle =
        due->table->options().freeze_after_idle_ticks;
    if (freeze_idle > 0) due->table->FreezeColdSegments(freeze_idle);
    if (post_tick_check_) post_tick_check_(*due->table, tick_time);
    // Apply phase fully published (kills, cooking, reclamation, check):
    // this tick is now its own epoch on the owner's virtual timeline.
    if (epoch_publisher_) epoch_publisher_();

    if (metrics_ != nullptr) {
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

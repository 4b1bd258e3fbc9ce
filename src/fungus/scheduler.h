#ifndef FUNGUSDB_FUNGUS_SCHEDULER_H_
#define FUNGUSDB_FUNGUS_SCHEDULER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "fungus/fungus.h"

namespace fungusdb {

/// The paper's periodic clock: "The extent of table R decays with a
/// periodic clock of T seconds using a data fungus F until it has
/// completely disappeared."
///
/// The scheduler owns (table, fungus, period) attachments and replays the
/// due ticks, in global time order, whenever AdvanceTo() moves the clock
/// forward. Death observers fire after each tick with the tuples that
/// died in it — their attribute values are still readable (tombstoned,
/// not yet reclaimed), which is the hook the Kitchen uses to cook rotting
/// tuples into summaries before reclamation frees them.
class DecayScheduler {
 public:
  using AttachmentId = size_t;

  /// (table, rows that died this tick, tick time).
  using DeathObserver =
      std::function<void(Table&, const std::vector<RowId>&, Timestamp)>;

  /// Debug hook run after every tick (post-reclamation) on the table
  /// that ticked — the CHECK AFTER TICK tripwire. The hook decides what
  /// to do about a violation (the one Database installs aborts with the
  /// fsck report).
  using PostTickCheck = std::function<void(Table&, Timestamp)>;

  /// Per-attachment cumulative statistics.
  struct AttachmentStats {
    uint64_t ticks = 0;
    DecayStats decay;
  };

  DecayScheduler() = default;

  DecayScheduler(const DecayScheduler&) = delete;
  DecayScheduler& operator=(const DecayScheduler&) = delete;

  /// Attaches `fungus` to `table` with clock period `period` (> 0).
  /// The first tick fires at start_time + period. `table` must outlive
  /// the scheduler.
  Result<AttachmentId> Attach(Table* table, std::unique_ptr<Fungus> fungus,
                              Duration period, Timestamp start_time);

  /// Removes an attachment; its fungus is destroyed.
  Status Detach(AttachmentId id);

  /// Registers an observer called after every tick that killed tuples.
  void AddDeathObserver(DeathObserver observer);

  /// Runs every tick due at or before `now`, in chronological order
  /// across attachments, then reclaims fully-dead segments. Returns the
  /// number of ticks executed.
  uint64_t AdvanceTo(Timestamp now);

  /// Stats for an attachment (zeroed if detached/unknown).
  AttachmentStats StatsFor(AttachmentId id) const;

  /// Decay state of the first active attachment on `table`, for the
  /// `\rot` report (clock period, next due tick, cumulative stats).
  struct TableDecayInfo {
    Duration period = 0;
    Timestamp next_tick = 0;
    uint64_t ticks = 0;
    DecayStats decay;
  };
  std::optional<TableDecayInfo> StatsForTable(const Table* table) const;

  size_t num_attachments() const;

  /// Optional sink for scheduler metrics ("fungusdb.decay.*",
  /// "fungusdb.storage.*", "fungusdb.rot.oldest_live_ts"). Not owned.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Installs (or clears, with nullptr) the CHECK AFTER TICK hook.
  void set_post_tick_check(PostTickCheck check) {
    post_tick_check_ = std::move(check);
  }

  /// Called after each tick is fully applied (kills, cooking,
  /// reclamation, post-tick check) — the Database wires this to
  /// RwLock::Publish so readers dispatched after the enclosing write
  /// section see a per-tick epoch, never a half-applied one.
  void set_epoch_publisher(std::function<void()> publisher) {
    epoch_publisher_ = std::move(publisher);
  }

  bool has_post_tick_check() const {
    return static_cast<bool>(post_tick_check_);
  }

 private:
  struct Attachment {
    Table* table = nullptr;
    std::unique_ptr<Fungus> fungus;
    Duration period = 0;
    Timestamp next_tick = 0;
    AttachmentStats stats;
    bool active = false;
  };

  const Attachment* AttachmentForTable(const Table* table) const;

  std::vector<Attachment> attachments_;
  std::vector<DeathObserver> observers_;
  PostTickCheck post_tick_check_;
  std::function<void()> epoch_publisher_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_SCHEDULER_H_

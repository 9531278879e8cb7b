// PersistenceManager: pluggable persistency strategy (paper Table I:
// "Periodically flush or write-ahead logs according [to] users' needs —
// different speed and availability").
//
//   kNone          — pure memory; replicas are the only durability.
//   kPeriodicFlush — snapshot the store every flush interval; a crash
//                    loses at most one interval of writes.
//   kWal           — append every mutation to a write-ahead log before
//                    acking; snapshot occasionally to bound replay.
//
// The manager is clock-agnostic: the owning node schedules
// flush_snapshot() on whatever clock it lives on (simulated or real).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "store/local_store.h"
#include "wal/snapshot.h"
#include "wal/wal.h"

namespace sedna::wal {

enum class PersistMode : std::uint8_t { kNone = 0, kPeriodicFlush, kWal };

struct PersistenceConfig {
  PersistMode mode = PersistMode::kNone;
  /// Directory for snapshot.bin / wal.log.
  std::string dir;
  /// fflush() the log on every append (slow, most durable).
  bool sync_each_write = false;
  /// Under kWal, take a snapshot and truncate the log after this many
  /// appended records (bounds replay time). 0 disables.
  std::uint64_t snapshot_every_records = 0;
};

class PersistenceManager {
 public:
  PersistenceManager(PersistenceConfig config, store::LocalStore& store);

  PersistenceManager(const PersistenceManager&) = delete;
  PersistenceManager& operator=(const PersistenceManager&) = delete;

  /// Creates the directory and opens the log (kWal mode).
  Status start();

  // Mutation hooks — the owning node calls these after a successful
  // local store mutation.
  /// `expires_at`: the item's absolute expiry on the store's clock
  /// (0 = never), so replay restores the deadline, not a fresh TTL.
  Status on_write_latest(std::string_view key, std::string_view value,
                         Timestamp ts, std::uint32_t flags,
                         std::uint64_t expires_at = 0);
  Status on_write_all(std::string_view key, NodeId source,
                      std::string_view value, Timestamp ts);
  /// Logs the full post-merge causal record so replay is an idempotent
  /// semilattice join (re-applying a prefix cannot lose siblings).
  Status on_write_causal(std::string_view key,
                         const store::CausalRecord& record);
  Status on_delete(std::string_view key);

  /// Writes a full snapshot; under kWal also truncates the log.
  Status flush_snapshot();

  /// Restores store state: snapshot first, then WAL replay. A torn or
  /// corrupt log tail is truncated, so later appends replay too.
  /// Returns total records/items applied.
  Result<std::uint64_t> recover();

  [[nodiscard]] const PersistenceConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t snapshots_taken() const { return snapshots_; }
  [[nodiscard]] std::uint64_t wal_records() const {
    return log_ ? log_->records_appended() : 0;
  }
  [[nodiscard]] std::string snapshot_path() const {
    return config_.dir + "/snapshot.bin";
  }
  [[nodiscard]] std::string wal_path() const { return config_.dir + "/wal.log"; }

 private:
  Status append(const WalRecord& rec);

  PersistenceConfig config_;
  store::LocalStore& store_;
  std::unique_ptr<WriteAheadLog> log_;
  std::uint64_t snapshots_ = 0;
  std::uint64_t records_since_snapshot_ = 0;
};

}  // namespace sedna::wal

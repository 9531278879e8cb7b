#include "wal/persistence.h"

#include <filesystem>

namespace sedna::wal {

PersistenceManager::PersistenceManager(PersistenceConfig config,
                                       store::LocalStore& store)
    : config_(std::move(config)), store_(store) {}

Status PersistenceManager::start() {
  if (config_.mode == PersistMode::kNone) return Status::Ok();
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) return Status::IoError("cannot create dir: " + config_.dir);
  if (config_.mode == PersistMode::kWal) {
    log_ = std::make_unique<WriteAheadLog>(wal_path());
    return log_->open();
  }
  return Status::Ok();
}

Status PersistenceManager::append(const WalRecord& rec) {
  if (config_.mode != PersistMode::kWal || log_ == nullptr) {
    return Status::Ok();
  }
  Status st = log_->append(rec);
  if (!st.ok()) return st;
  if (config_.sync_each_write) {
    st = log_->sync();
    if (!st.ok()) return st;
  }
  ++records_since_snapshot_;
  if (config_.snapshot_every_records != 0 &&
      records_since_snapshot_ >= config_.snapshot_every_records) {
    return flush_snapshot();
  }
  return Status::Ok();
}

Status PersistenceManager::on_write_latest(std::string_view key,
                                           std::string_view value,
                                           Timestamp ts,
                                           std::uint32_t flags,
                                           std::uint64_t expires_at) {
  WalRecord rec;
  rec.type = WalRecord::Type::kWriteLatest;
  rec.key.assign(key);
  rec.value.assign(value);
  rec.ts = ts;
  rec.flags = flags;
  rec.expires_at = expires_at;
  return append(rec);
}

Status PersistenceManager::on_write_all(std::string_view key, NodeId source,
                                        std::string_view value,
                                        Timestamp ts) {
  WalRecord rec;
  rec.type = WalRecord::Type::kWriteAll;
  rec.key.assign(key);
  rec.value.assign(value);
  rec.ts = ts;
  rec.source = source;
  return append(rec);
}

Status PersistenceManager::on_write_causal(std::string_view key,
                                           const store::CausalRecord& record) {
  WalRecord rec;
  rec.type = WalRecord::Type::kWriteCausal;
  rec.key.assign(key);
  rec.value = record.encode_string();
  return append(rec);
}

Status PersistenceManager::on_delete(std::string_view key) {
  WalRecord rec;
  rec.type = WalRecord::Type::kDelete;
  rec.key.assign(key);
  return append(rec);
}

Status PersistenceManager::flush_snapshot() {
  if (config_.mode == PersistMode::kNone) return Status::Ok();
  Status st = Snapshot::write(snapshot_path(), store_);
  if (!st.ok()) return st;
  ++snapshots_;
  records_since_snapshot_ = 0;
  if (config_.mode == PersistMode::kWal && log_ != nullptr) {
    // The snapshot covers everything in the log; truncate it.
    return log_->reset();
  }
  return Status::Ok();
}

Result<std::uint64_t> PersistenceManager::recover() {
  if (config_.mode == PersistMode::kNone) return std::uint64_t{0};

  auto snap = Snapshot::load(snapshot_path(), store_);
  if (!snap.ok()) return snap.status();
  std::uint64_t applied = snap.value();

  if (config_.mode == PersistMode::kWal) {
    std::uint64_t intact_end = 0;
    auto replayed = WriteAheadLog::replay(
        wal_path(), [this](const WalRecord& rec) {
          switch (rec.type) {
            case WalRecord::Type::kWriteLatest:
              store_.write_latest(rec.key, rec.value, rec.ts, rec.flags);
              if (rec.expires_at != 0) {
                store_.expire_at(rec.key, rec.expires_at);
              }
              break;
            case WalRecord::Type::kWriteAll:
              store_.write_all(rec.key, rec.source, rec.value, rec.ts);
              break;
            case WalRecord::Type::kDelete:
              store_.del(rec.key);
              break;
            case WalRecord::Type::kWriteCausal: {
              const auto record =
                  store::CausalRecord::decode_string(rec.value);
              if (!record.empty()) store_.merge_causal(rec.key, record);
              break;
            }
          }
        },
        &intact_end);
    if (!replayed.ok()) return replayed.status();
    applied += replayed.value();
    // Cut a torn or corrupt tail off before the next append: left in
    // place, it would hide every record appended after it from the next
    // replay.
    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(wal_path(), ec);
    if (!ec && size > intact_end) {
      if (log_ != nullptr) log_->close();  // append() reopens it
      std::filesystem::resize_file(wal_path(), intact_end, ec);
      if (ec) return Status::IoError("cannot truncate wal: " + wal_path());
    }
  }
  return applied;
}

}  // namespace sedna::wal

// Write-ahead log: the paper's "write-ahead logs" persistency strategy
// (Table I, "Persistency Strategy: periodically flush or write-ahead logs
// according [to] users' needs").
//
// Format: a stream of records, one frame each (wal/frame.h). Replay stops
// cleanly at the first torn/corrupt frame — exactly the state a crash
// mid-append leaves behind.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/codec.h"
#include "common/status.h"
#include "common/types.h"

namespace sedna::wal {

struct WalRecord {
  enum class Type : std::uint8_t {
    kWriteLatest = 1,
    kWriteAll = 2,
    kDelete = 3,
    /// Causal write: `value` holds the encoded CausalRecord (the full
    /// post-merge state, so replay is an idempotent join).
    kWriteCausal = 4,
  };

  Type type = Type::kWriteLatest;
  std::string key;
  std::string value;
  Timestamp ts = 0;
  std::uint32_t flags = 0;
  /// Source node for kWriteAll records.
  NodeId source = kInvalidNode;
  /// Absolute expiry of a kWriteLatest record (the store's clock);
  /// 0 = never. A tail, so records without a TTL keep their bytes.
  std::uint64_t expires_at = 0;

  static void wire(auto& io, auto& m) {
    io(m.type, m.key, m.value, m.ts, m.flags, m.source);
    io.tail(m.expires_at != 0, m.expires_at);
    io.check(io.exhausted() && m.type >= Type::kWriteLatest &&
             m.type <= Type::kWriteCausal);
  }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  [[nodiscard]] static Result<WalRecord> decode(std::string_view payload) {
    return wire_decode<WalRecord>(payload, "bad wal record");
  }

  friend bool operator==(const WalRecord& a, const WalRecord& b) {
    return a.type == b.type && a.key == b.key && a.value == b.value &&
           a.ts == b.ts && a.flags == b.flags && a.source == b.source &&
           a.expires_at == b.expires_at;
  }
};

class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::string path) : path_(std::move(path)) {}
  ~WriteAheadLog() { close(); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if needed) for appending.
  Status open();
  void close();

  Status append(const WalRecord& record);
  /// Flushes buffered appends to the OS.
  Status sync();

  /// Replays all intact records from the start of the file, invoking `fn`
  /// for each. A torn tail is not an error — replay just stops there and
  /// reports how many records were recovered. `intact_end` (optional)
  /// receives the file offset just past the last record replayed.
  static Result<std::uint64_t> replay(
      const std::string& path,
      const std::function<void(const WalRecord&)>& fn,
      std::uint64_t* intact_end = nullptr);

  /// Truncates the log (after a snapshot made its prefix redundant).
  Status reset();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t records_appended() const { return appended_; }
  [[nodiscard]] std::uint64_t bytes_appended() const { return bytes_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace sedna::wal

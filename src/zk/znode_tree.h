// ZnodeTree: the hierarchical data tree at the heart of the ZooKeeper-lite
// coordination service (paper Section III.E uses ZooKeeper for vnode
// distribution, node existence via ephemeral znodes, and status data).
//
// Paths are "/a/b/c". Supported node kinds match ZooKeeper: persistent,
// ephemeral (bound to a session, removed on expiry), and their sequential
// variants (a zero-padded, parent-scoped counter is appended to the name).
// Every mutation carries the zxid that caused it, so replicas that apply
// the same committed operations in the same order converge byte-for-byte.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sedna::zk {

enum class CreateMode : std::uint8_t {
  kPersistent = 0,
  kEphemeral = 1,
  kPersistentSequential = 2,
  kEphemeralSequential = 3,
};

[[nodiscard]] constexpr bool is_ephemeral(CreateMode m) {
  return m == CreateMode::kEphemeral || m == CreateMode::kEphemeralSequential;
}
[[nodiscard]] constexpr bool is_sequential(CreateMode m) {
  return m == CreateMode::kPersistentSequential ||
         m == CreateMode::kEphemeralSequential;
}

struct ZnodeStat {
  /// zxid of the create / last modification.
  std::uint64_t czxid = 0;
  std::uint64_t mzxid = 0;
  /// Data version, bumped on every set().
  std::int64_t version = 0;
  /// Owning session for ephemerals; 0 for persistent nodes.
  std::uint64_t ephemeral_owner = 0;
  std::uint32_t num_children = 0;

  static void wire(auto& io, auto& m) {
    io(m.czxid, m.mzxid, m.version, m.ephemeral_owner, m.num_children);
  }
};

class ZnodeTree {
 public:
  ZnodeTree();

  /// Creates a znode. Parent must exist; ephemeral parents cannot have
  /// children (ZooKeeper rule). For sequential modes the stored name gets
  /// a 10-digit suffix; the result is the actual path.
  Result<std::string> create(std::string_view path, std::string_view data,
                             CreateMode mode, std::uint64_t session_id,
                             std::uint64_t zxid);

  Result<std::pair<std::string, ZnodeStat>> get(std::string_view path) const;

  /// Sets data; `expected_version` of -1 skips the version check.
  Result<ZnodeStat> set(std::string_view path, std::string_view data,
                        std::int64_t expected_version, std::uint64_t zxid);

  /// Deletes a leaf znode (children must be removed first).
  Status remove(std::string_view path, std::int64_t expected_version);

  [[nodiscard]] Result<ZnodeStat> exists(std::string_view path) const;

  /// Child names (not full paths), sorted.
  Result<std::vector<std::string>> children(std::string_view path) const;

  /// Removes every ephemeral owned by `session_id`; returns their paths
  /// (used to fire watches and to tell Sedna which real nodes vanished).
  std::vector<std::string> remove_session_ephemerals(std::uint64_t session_id);

  /// Deep visit of all znodes: fn(path, data, stat).
  void for_each(const std::function<void(const std::string&,
                                         const std::string&,
                                         const ZnodeStat&)>& fn) const;

  /// Serialization for full-state transfer to (re)joining ensemble members.
  [[nodiscard]] std::string serialize() const;
  static Result<ZnodeTree> deserialize(std::string_view bytes);

  [[nodiscard]] std::size_t node_count() const;

 private:
  struct Znode {
    std::string data;
    ZnodeStat stat;
    std::uint64_t next_sequence = 0;
    std::map<std::string, std::unique_ptr<Znode>> children;
  };

  /// Walks to the node at `path`; nullptr when absent.
  [[nodiscard]] Znode* walk(std::string_view path);
  [[nodiscard]] const Znode* walk(std::string_view path) const;

  /// Splits path into parent path + leaf name. Returns false on malformed
  /// paths ("", "foo", "/", trailing slash).
  static bool split(std::string_view path, std::string_view& parent,
                    std::string_view& leaf);

  std::unique_ptr<Znode> root_;
};

}  // namespace sedna::zk

// Rebalancer: vnode assignment planning.
//
// Implements the cluster-membership flows of Sections III.B/III.D:
//   * initial assignment when the cluster first boots (nodes "ask for
//     virtual nodes and store them locally");
//   * join: a new node steals vnodes from the most loaded nodes until
//     loads level out — incremental scalability with minimal movement;
//   * leave/failure: the dead node's vnodes are spread over the least
//     loaded survivors.
//
// Load-driven moves between live nodes are the traffic rebalancer's job
// (cluster/rebalancer.h).
//
// All plans are deterministic functions of their inputs (ties broken by
// id), so every node computes identical plans from identical ZooKeeper
// state.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "ring/vnode_table.h"

namespace sedna::ring {

struct VnodeMove {
  VnodeId vnode = kInvalidVnode;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;

  friend bool operator==(const VnodeMove& a, const VnodeMove& b) {
    return a.vnode == b.vnode && a.from == b.from && a.to == b.to;
  }
};

class Rebalancer {
 public:
  /// Even round-robin assignment over `nodes` (sorted by id first).
  static VnodeTable initial_assignment(std::uint32_t total_vnodes,
                                       std::uint32_t replicas,
                                       std::vector<NodeId> nodes);

  /// Moves to level the table after `joiner` enters: the joiner receives
  /// ceil(total/(n+1)) vnodes taken from the currently largest holders.
  static std::vector<VnodeMove> plan_join(const VnodeTable& table,
                                          NodeId joiner);

  /// Moves reassigning every vnode of `leaver` to the least-loaded
  /// survivors.
  static std::vector<VnodeMove> plan_leave(const VnodeTable& table,
                                           NodeId leaver);

  static void apply(VnodeTable& table, const std::vector<VnodeMove>& moves);
};

}  // namespace sedna::ring

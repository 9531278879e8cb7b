#include "ring/rebalancer.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace sedna::ring {

namespace {

/// Sorted (count, node) view of holders; deterministic tie-break by id.
std::vector<std::pair<std::uint32_t, NodeId>> sorted_loads(
    const VnodeTable& table) {
  std::vector<std::pair<std::uint32_t, NodeId>> loads;
  // Use an ordered map for deterministic iteration.
  std::map<NodeId, std::uint32_t> counts;
  for (const auto& [node, count] : table.counts()) counts[node] = count;
  loads.reserve(counts.size());
  for (const auto& [node, count] : counts) loads.emplace_back(count, node);
  std::sort(loads.begin(), loads.end());
  return loads;
}

}  // namespace

VnodeTable Rebalancer::initial_assignment(std::uint32_t total_vnodes,
                                          std::uint32_t replicas,
                                          std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  VnodeTable table(total_vnodes, replicas);
  if (nodes.empty()) return table;
  // Block assignment (node0 gets [0, k), node1 [k, 2k)...) would put a
  // vnode's replica successors on the same real node run; interleaved
  // round-robin keeps clockwise successors on distinct nodes.
  for (std::uint32_t v = 0; v < total_vnodes; ++v) {
    table.assign(v, nodes[v % nodes.size()]);
  }
  return table;
}

std::vector<VnodeMove> Rebalancer::plan_join(const VnodeTable& table,
                                             NodeId joiner) {
  std::vector<VnodeMove> moves;
  auto loads = sorted_loads(table);
  if (loads.empty()) {
    // First node: claim everything.
    for (std::uint32_t v = 0; v < table.total_vnodes(); ++v) {
      moves.push_back({v, table.owner(v), joiner});
    }
    return moves;
  }
  const std::uint32_t n_after =
      static_cast<std::uint32_t>(loads.size()) + 1;
  const std::uint32_t target =
      (table.total_vnodes() + n_after - 1) / n_after;  // ceil

  // Steal from the most loaded first; spread steals across their vnodes
  // (every k-th vnode) so the joiner's slices stay scattered on the ring.
  // Per-victim steal budgets: donors may be drawn down to the *floor* of
  // the post-join average (ceil-capped budgets can strand the joiner well
  // below its fair share when total does not divide evenly).
  const std::uint32_t donor_floor = table.total_vnodes() / n_after;
  std::map<NodeId, std::uint32_t> budget;
  std::uint32_t stealable = 0;
  for (const auto& [count, victim] : loads) {
    const std::uint32_t surplus =
        count > donor_floor ? count - donor_floor : 0;
    budget[victim] = surplus;
    stealable += surplus;
  }
  const std::uint32_t want = std::min(target, stealable);
  if (want == 0) return moves;

  // Claim ring positions in golden-ratio order: a step coprime to the
  // ring size gives a low-discrepancy scatter, so the joiner's vnodes
  // never clump. Consecutive claimed vnodes would collapse the replica
  // walks of neighbouring slices onto the brand-new node all at once.
  const std::uint32_t n = table.total_vnodes();
  std::uint32_t step = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(0.6180339887 * n));
  while (std::gcd(step, n) != 1) ++step;

  std::uint32_t claimed = 0;
  std::uint32_t pos = 0;
  for (std::uint32_t k = 0; k < n && claimed < want;
       ++k, pos = (pos + step) % n) {
    const NodeId victim = table.owner(pos);
    const auto it = budget.find(victim);
    if (it == budget.end() || it->second == 0) continue;
    --it->second;
    moves.push_back({pos, victim, joiner});
    ++claimed;
  }
  return moves;
}

std::vector<VnodeMove> Rebalancer::plan_leave(const VnodeTable& table,
                                              NodeId leaver) {
  std::vector<VnodeMove> moves;
  const auto orphans = table.vnodes_of(leaver);
  if (orphans.empty()) return moves;

  // Min-heap behaviour over survivor loads via a sorted map we update.
  std::map<NodeId, std::uint32_t> counts;
  for (const auto& [node, count] : table.counts()) {
    if (node != leaver) counts[node] = count;
  }
  if (counts.empty()) return moves;  // nowhere to go

  for (VnodeId v : orphans) {
    auto coldest = counts.begin();
    for (auto it = counts.begin(); it != counts.end(); ++it) {
      if (it->second < coldest->second) coldest = it;
    }
    moves.push_back({v, leaver, coldest->first});
    ++coldest->second;
  }
  return moves;
}

void Rebalancer::apply(VnodeTable& table,
                       const std::vector<VnodeMove>& moves) {
  for (const auto& move : moves) table.assign(move.vnode, move.to);
}

}  // namespace sedna::ring

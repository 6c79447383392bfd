#include "check/invariants.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "key/key_path.h"

namespace pgrid {
namespace check {
namespace {

/// Collects violations up to the configured cap.
class Collector {
 public:
  explicit Collector(const InvariantOptions& options, InvariantReport* report)
      : options_(options), report_(report) {}

  bool full() const { return report_->truncated; }

  void Add(Category category, PeerId peer, size_t level, std::string detail) {
    if (report_->violations.size() >= options_.max_violations) {
      report_->truncated = true;
      return;
    }
    report_->violations.push_back(
        Violation{category, peer, level, std::move(detail)});
  }

 private:
  const InvariantOptions& options_;
  InvariantReport* report_;
};

std::string Fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  char buf[256];
  vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return std::string(buf);
}

std::string PathStr(const KeyPath& path) {
  std::string s = path.ToString();
  return s.empty() ? "<root>" : s;
}

// --- Per-peer access structure (paper Sec. 2: the (p_i, R_i) sequence). ---

bool LiveAt(const std::vector<uint8_t>* dead, PeerId p) {
  // Peers beyond the mask joined after it was captured, hence are live.
  return dead == nullptr || p >= dead->size() || (*dead)[p] == 0;
}

void CheckStructure(const Grid& grid, const ExchangeConfig& config,
                    const InvariantOptions& options, Collector* out) {
  for (const PeerState& a : grid) {
    if (out->full()) return;
    if (a.depth() > config.maxl) {
      out->Add(Category::kMaxl, a.id(), 0,
               Fmt("path %s has %zu bits, maxl is %zu", PathStr(a.path()).c_str(),
                   a.depth(), config.maxl));
    }
    for (size_t level = 1; level <= a.depth(); ++level) {
      const auto refs = a.RefsAt(level);
      if (refs.size() > config.refmax) {
        out->Add(Category::kRefmax, a.id(), level,
                 Fmt("%zu references at level %zu, refmax is %zu", refs.size(),
                     level, config.refmax));
      }
      for (PeerId t : refs) {
        if (t == a.id()) {
          out->Add(Category::kSelfReference, a.id(), level,
                   Fmt("level-%zu reference points at the peer itself", level));
          continue;
        }
        if (t >= grid.size()) {
          out->Add(Category::kReference, a.id(), level,
                   Fmt("level-%zu reference targets unknown peer %u", level, t));
          continue;
        }
        // A dead peer's reference property cannot be judged from its in-memory
        // state: a sim kill step wipes it (the durable copy lives on disk, see
        // StepKind::kKill). Dangling references to dead peers are the *strict*
        // convergence check's business (kDeadReference), not a structure error.
        if (!LiveAt(options.dead, t)) continue;
        const PeerState& target = grid.peer(t);
        if (!CanReference(a.path(), level, target.path())) {
          out->Add(
              Category::kReference, a.id(), level,
              Fmt("level-%zu ref to peer %u: path %s does not complement %s",
                  level, t, PathStr(target.path()).c_str(),
                  PathStr(a.path()).c_str()));
        }
      }
    }
    for (PeerId b : a.buddies()) {
      if (b == a.id()) {
        out->Add(Category::kBuddy, a.id(), 0, "peer lists itself as a buddy");
        continue;
      }
      if (b < grid.size() && !LiveAt(options.dead, b)) continue;  // see above
      if (b >= grid.size() || grid.peer(b).path() != a.path()) {
        out->Add(Category::kBuddy, a.id(), 0,
                 Fmt("buddy %u does not share path %s", b,
                     PathStr(a.path()).c_str()));
      }
    }
  }
}

// --- Key-space coverage (the union of I(p.path) over all peers is [0,1)). ---

struct TrieNode {
  bool terminal = false;  // some peer's path ends exactly here
  std::unique_ptr<TrieNode> child[2];
};

bool Covered(const TrieNode& node) {
  if (node.terminal) return true;
  return node.child[0] && node.child[1] && Covered(*node.child[0]) &&
         Covered(*node.child[1]);
}

/// Reports the *maximal* uncovered prefixes under `node` (an uncovered subtree is
/// one hole, not one hole per leaf).
void ReportHoles(const TrieNode& node, const std::string& prefix,
                 Collector* out) {
  if (out->full() || Covered(node)) return;
  for (int bit = 0; bit < 2; ++bit) {
    const std::string sub = prefix + static_cast<char>('0' + bit);
    if (!node.child[bit]) {
      out->Add(Category::kCoverage, kInvalidPeer, 0,
               Fmt("no peer path covers prefix %s", sub.c_str()));
    } else {
      ReportHoles(*node.child[bit], sub, out);
    }
  }
}

void CheckCoverage(const Grid& grid, Collector* out) {
  if (grid.size() == 0) return;
  TrieNode root;
  for (const PeerState& p : grid) {
    TrieNode* node = &root;
    const KeyPath& path = p.path();
    for (size_t i = 0; i < path.length(); ++i) {
      const int bit = path.bit(i);
      if (!node->child[bit]) node->child[bit] = std::make_unique<TrieNode>();
      node = node->child[bit].get();
    }
    node->terminal = true;
  }
  ReportHoles(root, "", out);
}

// --- Data placement and replica agreement (Sec. 2: D restricted to I(path)). ---

void CheckPlacement(const Grid& grid, Collector* out) {
  for (const PeerState& p : grid) {
    if (out->full()) return;
    p.index().ForEach([&p, out](const IndexEntry& e) {
      if (!PathsOverlap(p.path(), e.key)) {
        out->Add(Category::kPlacement, p.id(), 0,
                 Fmt("entry (holder=%u item=%llu key=%s) outside path %s", e.holder,
                     static_cast<unsigned long long>(e.item_id),
                     PathStr(e.key).c_str(), PathStr(p.path()).c_str()));
      }
    });
  }
}

void CheckReplicaAgreement(const Grid& grid, Collector* out) {
  // First-seen key per (holder, item): every replica's entry must agree on the
  // key. Versions legitimately lag (updates propagate asynchronously); keys never
  // change after insertion.
  std::map<std::pair<PeerId, ItemId>, std::pair<KeyPath, PeerId>> first;
  for (const PeerState& p : grid) {
    if (out->full()) return;
    p.index().ForEach([&first, &p, out](const IndexEntry& e) {
      auto [it, inserted] = first.try_emplace(std::make_pair(e.holder, e.item_id),
                                              e.key, p.id());
      if (!inserted && it->second.first != e.key) {
        out->Add(Category::kReplicaDesync, p.id(), 0,
                 Fmt("entry (holder=%u item=%llu) has key %s here but %s at peer "
                     "%u",
                     e.holder, static_cast<unsigned long long>(e.item_id),
                     PathStr(e.key).c_str(),
                     PathStr(it->second.first).c_str(), it->second.second));
      }
    });
  }
}

// --- Repair convergence (the self-healing target, docs/robustness.md). ---

void CheckRepairConvergence(const Grid& grid, const ExchangeConfig& config,
                            const InvariantOptions& options, Collector* out) {
  const std::vector<uint8_t>* dead = options.dead;
  std::set<std::pair<PeerId, PeerId>> buddy_pairs;
  for (const PeerState& a : grid) {
    if (out->full()) return;
    if (!LiveAt(dead, a.id())) continue;

    for (size_t level = 1; level <= a.depth(); ++level) {
      size_t live_refs = 0;
      for (PeerId t : a.RefsAt(level)) {
        if (!LiveAt(dead, t)) {
          out->Add(Category::kDeadReference, a.id(), level,
                   Fmt("level-%zu reference still points at dead peer %u", level,
                       t));
        } else {
          ++live_refs;
        }
      }
      // The demand is capped by supply: a level can only be as full as the
      // number of live peers that satisfy its reference property at all.
      size_t candidates = 0;
      for (const PeerState& t : grid) {
        if (t.id() != a.id() && LiveAt(dead, t.id()) &&
            CanReference(a.path(), level, t.path())) {
          ++candidates;
        }
      }
      const size_t required = std::min(
          {config.refmax, options.repair_min_live_refs, candidates});
      if (live_refs < required) {
        out->Add(Category::kRefUnderfull, a.id(), level,
                 Fmt("%zu live references at level %zu, %zu required "
                     "(%zu live candidates exist)",
                     live_refs, level, required, candidates));
      }
    }

    // Live buddy pairs must hold identical entry sets at identical versions.
    // Buddy lists may be asymmetric, so each unordered pair is compared once.
    for (PeerId b : a.buddies()) {
      if (b >= grid.size() || !LiveAt(dead, b) ||
          !buddy_pairs
               .insert({std::min(a.id(), b), std::max(a.id(), b)})
               .second) {
        continue;
      }
      const PeerState& buddy = grid.peer(b);
      const PeerState* sides[2] = {&a, &buddy};
      for (int dir = 0; dir < 2 && !out->full(); ++dir) {
        sides[dir]->index().ForEach([&](const IndexEntry& e) {
          const IndexEntry* other =
              sides[1 - dir]->index().Find(e.holder, e.item_id);
          if (other == nullptr) {
            out->Add(Category::kReplicaStale, sides[1 - dir]->id(), 0,
                     Fmt("buddy of peer %u misses entry (holder=%u item=%llu)",
                         sides[dir]->id(), e.holder,
                         static_cast<unsigned long long>(e.item_id)));
          } else if (other->version < e.version) {
            out->Add(Category::kReplicaStale, sides[1 - dir]->id(), 0,
                     Fmt("entry (holder=%u item=%llu) at version %llu, buddy %u "
                         "has %llu",
                         e.holder, static_cast<unsigned long long>(e.item_id),
                         static_cast<unsigned long long>(other->version),
                         sides[dir]->id(),
                         static_cast<unsigned long long>(e.version)));
          }
        });
      }
    }
  }
}

// --- Partition consistency (docs/robustness.md macro faults). ---

void CheckPartitionLeak(const Grid& grid, const InvariantOptions& options,
                        Collector* out) {
  const PartitionView& pv = *options.partition;
  if (pv.items.empty()) return;
  std::map<ItemId, int> origin;
  for (const PartitionView::Quarantined& q : pv.items) {
    origin[q.item] = q.origin_group;
  }
  auto group_of = [&pv](PeerId p) {
    return p < pv.group.size() ? pv.group[p] : -1;
  };
  for (const PeerState& p : grid) {
    if (out->full()) return;
    if (!LiveAt(options.dead, p.id())) continue;
    const int g = group_of(p.id());
    if (g < 0) continue;  // joined after the view was taken
    auto leak = [&](const IndexEntry& e) {
      auto it = origin.find(e.item_id);
      if (it != origin.end() && it->second != g) {
        out->Add(Category::kPartitionLeak, p.id(), 0,
                 Fmt("entry (holder=%u item=%llu) quarantined in group %d "
                     "present at group-%d peer",
                     e.holder, static_cast<unsigned long long>(e.item_id),
                     it->second, g));
      }
    };
    p.index().ForEach(leak);
    for (const IndexEntry& e : p.foreign_entries()) leak(e);
  }
}

void CheckHealConvergence(const Grid& grid, const InvariantOptions& options,
                          Collector* out) {
  // After the heal, anti-entropy must have restored agreement on exactly the
  // items written during the divergence. The general buddy-agreement check
  // (kReplicaStale) covers all entries; this one re-classifies disagreement on
  // quarantined items as kHealDivergence so a macro scenario can assert on the
  // partition-heal path specifically.
  const PartitionView& pv = *options.partition;
  if (pv.items.empty()) return;
  const std::vector<uint8_t>* dead = options.dead;
  std::set<std::pair<PeerId, PeerId>> buddy_pairs;
  for (const PeerState& a : grid) {
    if (out->full()) return;
    if (!LiveAt(dead, a.id())) continue;
    for (PeerId b : a.buddies()) {
      if (b >= grid.size() || !LiveAt(dead, b) ||
          !buddy_pairs.insert({std::min(a.id(), b), std::max(a.id(), b)})
               .second) {
        continue;
      }
      const PeerState& buddy = grid.peer(b);
      for (const PartitionView::Quarantined& q : pv.items) {
        const IndexEntry* mine = a.index().Find(q.holder, q.item);
        const IndexEntry* theirs = buddy.index().Find(q.holder, q.item);
        if (mine == nullptr && theirs == nullptr) continue;  // neither replica
        if (mine == nullptr || theirs == nullptr) {
          out->Add(Category::kHealDivergence,
                   mine == nullptr ? a.id() : buddy.id(), 0,
                   Fmt("post-heal: buddies %u/%u disagree on presence of "
                       "partition-era entry (holder=%u item=%llu)",
                       a.id(), b, q.holder,
                       static_cast<unsigned long long>(q.item)));
        } else if (mine->version != theirs->version) {
          out->Add(Category::kHealDivergence, a.id(), 0,
                   Fmt("post-heal: partition-era entry (holder=%u item=%llu) "
                       "at version %llu here, %llu at buddy %u",
                       q.holder, static_cast<unsigned long long>(q.item),
                       static_cast<unsigned long long>(mine->version),
                       static_cast<unsigned long long>(theirs->version), b));
        }
      }
    }
  }
}

}  // namespace

std::string_view CategoryName(Category c) {
  switch (c) {
    case Category::kReference:
      return "reference";
    case Category::kRefmax:
      return "refmax";
    case Category::kSelfReference:
      return "self-reference";
    case Category::kMaxl:
      return "maxl";
    case Category::kBuddy:
      return "buddy";
    case Category::kCoverage:
      return "coverage";
    case Category::kPlacement:
      return "placement";
    case Category::kReplicaDesync:
      return "replica-desync";
    case Category::kDeadReference:
      return "dead-reference";
    case Category::kRefUnderfull:
      return "ref-underfull";
    case Category::kReplicaStale:
      return "replica-stale";
    case Category::kPartitionLeak:
      return "partition-leak";
    case Category::kHealDivergence:
      return "heal-divergence";
  }
  return "unknown";
}

size_t InvariantReport::CountOf(Category c) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.category == c) ++n;
  }
  return n;
}

std::string InvariantReport::ToString() const {
  if (ok()) return "ok\n";
  std::string out;
  for (const Violation& v : violations) {
    out += CategoryName(v.category);
    if (v.peer != kInvalidPeer) out += Fmt(" peer=%u", v.peer);
    if (v.level != 0) out += Fmt(" level=%zu", v.level);
    out += ": ";
    out += v.detail;
    out += '\n';
  }
  if (truncated) out += "... (truncated)\n";
  return out;
}

InvariantReport GridInvariants::Check(const Grid& grid,
                                      const ExchangeConfig& config,
                                      const InvariantOptions& options) {
  InvariantReport report;
  report.peers_checked = grid.size();
  Collector out(options, &report);
  if (options.check_structure) CheckStructure(grid, config, options, &out);
  if (options.check_coverage) CheckCoverage(grid, &out);
  if (options.check_placement) CheckPlacement(grid, &out);
  if (options.check_replica_agreement) CheckReplicaAgreement(grid, &out);
  if (options.check_repair_convergence) {
    CheckRepairConvergence(grid, config, options, &out);
  }
  if (options.partition != nullptr) {
    if (options.partition->active) {
      CheckPartitionLeak(grid, options, &out);
    } else if (options.check_repair_convergence) {
      CheckHealConvergence(grid, options, &out);
    }
  }
  return report;
}

}  // namespace check
}  // namespace pgrid

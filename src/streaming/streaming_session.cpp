#include "streaming/streaming_session.h"

#include <algorithm>
#include <cstdlib>
#include <ios>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "services/service_graph.h"
#include "util/env.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

/// Registry handles for everything the session reports, resolved once.
struct StreamMetrics {
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& rejected;          ///< joins/regrafts left detached
  obs::Counter& regrafts;
  obs::Counter& repair_failures;   ///< repair-pass orphans with no feasible attach
  obs::Counter& breaks_crash;      ///< edges broken by a crash or a leave
  obs::Counter& breaks_partition;  ///< edges broken by a partition
  obs::Counter& restores;          ///< edges revived in place (recover/heal)
  obs::Counter& ticks_expected;
  obs::Counter& ticks_delivered;
  obs::Histogram& repair_latency_ms;
  obs::Histogram& interruption_ms;

  static StreamMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static const std::vector<double> bounds{1.0,   2.0,   5.0,   10.0,
                                            25.0,  50.0,  100.0, 250.0,
                                            500.0, 1000.0, 2500.0};
    static StreamMetrics m{
        reg.counter("stream.joins"),
        reg.counter("stream.leaves"),
        reg.counter("stream.rejected"),
        reg.counter("stream.regrafts"),
        reg.counter("stream.repair_failures"),
        reg.counter("stream.breaks_crash"),
        reg.counter("stream.breaks_partition"),
        reg.counter("stream.restores"),
        reg.counter("stream.ticks_expected"),
        reg.counter("stream.ticks_delivered"),
        reg.histogram("stream.repair_latency_ms", bounds),
        reg.histogram("stream.interruption_ms", bounds),
    };
    return m;
  }
};

void insert_sorted(std::vector<NodeId>& v, NodeId node) {
  const auto it = std::lower_bound(v.begin(), v.end(), node);
  if (it == v.end() || *it != node) v.insert(it, node);
}

void erase_sorted(std::vector<NodeId>& v, NodeId node) {
  const auto it = std::lower_bound(v.begin(), v.end(), node);
  if (it != v.end() && *it == node) v.erase(it);
}

/// The distinct proxies of hops[1..] — everything the edge claims
/// capacity on (the attach point belongs to the parent's branch).
std::vector<NodeId> edge_claim(const std::vector<ServiceHop>& hops) {
  std::vector<NodeId> out;
  for (std::size_t h = 1; h < hops.size(); ++h) out.push_back(hops[h].proxy);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string hexd(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

}  // namespace

StreamMode stream_mode_from_env() {
  // Choice order follows the enumerators.
  return static_cast<StreamMode>(
      env_choice("HFC_STREAM_MODE", {"locating", "clique"}, 0));
}

StreamingSession::StreamingSession(DynamicHfcOverlay& overlay,
                                   QosManager& qos,
                                   std::vector<NodeId> sources,
                                   StreamingParams params)
    : overlay_(overlay),
      qos_(qos),
      sources_(std::move(sources)),
      params_(std::move(params)),
      tick_rng_(Rng(params_.seed).fork(0x57ea11u)) {
  require(!sources_.empty(), "StreamingSession: no sources");
  require(params_.tick_ms > 0.0, "StreamingSession: tick_ms must be > 0");
  require(params_.repair_delay_ms > 0.0,
          "StreamingSession: repair_delay_ms must be > 0");
  require(params_.demand >= 0.0, "StreamingSession: negative demand");
  if (params_.repair_budget == 0) {
    params_.repair_budget = env_size_t("HFC_STREAM_REPAIR_BUDGET", 8);
  }
  std::vector<NodeId> dedup(sources_);
  std::sort(dedup.begin(), dedup.end());
  require(std::adjacent_find(dedup.begin(), dedup.end()) == dedup.end(),
          "StreamingSession: duplicate sources");
  trees_.reserve(sources_.size());
  for (NodeId s : sources_) {
    require(s.valid() && overlay_.is_active(s),
            "StreamingSession: source must be an active universe node");
    Tree tree;
    tree.source = s;
    trees_.push_back(std::move(tree));
  }
}

void StreamingSession::attach_injector(FaultInjector& injector) {
  require(injector_ == nullptr, "StreamingSession: injector already attached");
  injector_ = &injector;
  injector.set_on_crash([this](NodeId node) {
    require(sim_ != nullptr,
            "StreamingSession: start() must run before injector events");
    on_crash(*sim_, node);
  });
  injector.set_on_recover([this](NodeId node) {
    require(sim_ != nullptr,
            "StreamingSession: start() must run before injector events");
    on_recover(*sim_, node);
  });
  injector.set_on_partition([this](ClusterId a, ClusterId b) {
    require(sim_ != nullptr,
            "StreamingSession: start() must run before injector events");
    on_partition(*sim_, a, b);
  });
  injector.set_on_heal([this](ClusterId a, ClusterId b) {
    require(sim_ != nullptr,
            "StreamingSession: start() must run before injector events");
    on_heal(*sim_, a, b);
  });
}

void StreamingSession::start(Simulator& sim, double horizon_ms) {
  require(!started_, "StreamingSession: already started");
  require(horizon_ms > 0.0, "StreamingSession: horizon must be > 0");
  started_ = true;
  sim_ = &sim;
  horizon_ms_ = horizon_ms;
  const auto ticks =
      static_cast<std::size_t>(horizon_ms / params_.tick_ms);
  for (std::size_t i = 1; i <= ticks; ++i) {
    sim.schedule_at(static_cast<double>(i) * params_.tick_ms,
                    [this](Simulator& s) { tick(s); });
  }
  sim.schedule_at(horizon_ms, [this](Simulator& s) { finish(s); });
  log_event(sim.now(), "start horizon=" + hexd(horizon_ms));
}

// ---------------------------------------------------------------------------
// Small state helpers.

bool StreamingSession::node_up(NodeId node) const {
  // The universe router spans inactive (departed) proxies too, so the
  // active check keeps regrafts off nodes that left through churn.
  if (!overlay_.is_active(node)) return false;
  return injector_ == nullptr || injector_->node_up(node);
}

bool StreamingSession::edge_alive(const Edge& edge) const {
  if (edge.hops.empty()) return false;
  for (const ServiceHop& hop : edge.hops) {
    if (!node_up(hop.proxy)) return false;
  }
  if (injector_ != nullptr) {
    for (const auto& [a, b] : edge.crossings) {
      if (injector_->partitioned(a, b)) return false;
    }
  }
  return true;
}

std::uint32_t StreamingSession::parent_blocked(const Tree& tree,
                                               NodeId parent) const {
  if (parent == tree.source) return 0;
  return tree.members.at(parent).blocked;
}

std::int32_t StreamingSession::cluster_label(NodeId node) const {
  return overlay_.universe_topology().cluster_of(node).value();
}

std::vector<NodeId>& StreamingSession::children_of(Tree& tree,
                                                   NodeId parent) {
  if (parent == tree.source) return tree.source_children;
  return tree.members.at(parent).children;
}

void StreamingSession::index_edge(Tree& tree, NodeId node, const Edge& edge,
                                  bool add) {
  for (const ServiceHop& hop : edge.hops) {
    if (add) {
      insert_sorted(tree.by_proxy[hop.proxy], node);
    } else {
      const auto it = tree.by_proxy.find(hop.proxy);
      if (it == tree.by_proxy.end()) continue;
      erase_sorted(it->second, node);
      if (it->second.empty()) tree.by_proxy.erase(it);
    }
  }
}

void StreamingSession::bump_subtree(Simulator& sim, Tree& tree, NodeId node,
                                    std::int64_t delta) {
  if (delta == 0) return;
  StreamMetrics& m = StreamMetrics::get();
  std::vector<NodeId> stack{node};
  while (!stack.empty()) {
    const NodeId at = stack.back();
    stack.pop_back();
    Member& member = tree.members.at(at);
    const std::uint32_t old = member.blocked;
    const std::int64_t next = static_cast<std::int64_t>(old) + delta;
    require(next >= 0, "StreamingSession: blocked count went negative");
    member.blocked = static_cast<std::uint32_t>(next);
    if (old == 0 && member.blocked > 0) {
      member.interrupted_since = sim.now();
    } else if (old > 0 && member.blocked == 0) {
      if (member.interrupted_since >= 0.0) {
        m.interruption_ms.observe(sim.now() - member.interrupted_since);
      }
      member.interrupted_since = -1.0;
    }
    for (NodeId child : member.children) stack.push_back(child);
  }
}

void StreamingSession::mark_edge_broken(Simulator& sim, Tree& tree,
                                        NodeId node, bool wants_repair) {
  Member& member = tree.members.at(node);
  if (member.edge.ok) {
    member.edge.ok = false;
    member.edge.broke_at = sim.now();
    bump_subtree(sim, tree, node, +1);
  }
  if (wants_repair) member.edge.wants_repair = true;
}

void StreamingSession::try_restore_edge(Simulator& sim, Tree& tree,
                                        NodeId node) {
  Member& member = tree.members.at(node);
  if (member.edge.ok || !edge_alive(member.edge)) return;
  member.edge.ok = true;
  member.edge.wants_repair = false;
  StreamMetrics::get().restores.add(1);
  bump_subtree(sim, tree, node, -1);
  log_event(sim.now(), "restore m=" + std::to_string(node.value()));
}

// ---------------------------------------------------------------------------
// Attach machinery (joins, leave-time regrafts, repair passes).

NodeId StreamingSession::resolve_head(Tree& tree,
                                      std::int32_t cluster) const {
  const auto ok = [&](NodeId x) {
    const auto it = tree.members.find(x);
    return it != tree.members.end() && it->second.blocked == 0 &&
           it->second.cluster == cluster && node_up(x);
  };
  const auto hit = tree.head.find(cluster);
  if (hit != tree.head.end() && ok(hit->second)) return hit->second;
  const auto cit = tree.by_cluster.find(cluster);
  if (cit != tree.by_cluster.end()) {
    for (NodeId x : cit->second) {
      if (ok(x)) {
        tree.head[cluster] = x;
        return x;
      }
    }
  }
  if (hit != tree.head.end()) tree.head.erase(cluster);
  return NodeId{};
}

std::vector<StreamingSession::Candidate> StreamingSession::collect_candidates(
    Tree& tree, NodeId node, NodeId exclude) const {
  const OverlayNetwork& net = overlay_.universe_network();
  const auto eligible = [&](NodeId x) {
    if (x == node || x == exclude || !node_up(x)) return false;
    const auto it = tree.members.find(x);
    return it != tree.members.end() && it->second.blocked == 0;
  };
  const auto nearer = [&](NodeId a, NodeId b) {
    const double da = net.coord_distance(a, node);
    const double db = net.coord_distance(b, node);
    if (da != db) return da < db;
    return a < b;
  };
  const std::int32_t label = cluster_label(node);
  std::vector<NodeId> pool;
  if (params_.mode == StreamMode::kClique) {
    const NodeId head = resolve_head(tree, label);
    if (head.valid() && head != node && head != exclude) {
      // Clustered dissemination: strictly through the cluster head.
      pool.push_back(head);
    } else {
      // No eligible own-cluster head: this member attaches cross-cluster
      // (and becomes the head on success). Other heads form the backbone.
      for (const auto& [cluster, unused] : tree.by_cluster) {
        (void)unused;
        if (cluster == label) continue;
        const NodeId other = resolve_head(tree, cluster);
        if (other.valid() && other != node && other != exclude) {
          pool.push_back(other);
        }
      }
      std::sort(pool.begin(), pool.end(), nearer);
      if (pool.size() > params_.repair_budget) {
        pool.resize(params_.repair_budget);
      }
    }
  } else {
    // Locating-first: own-cluster members by coordinate distance; fall
    // back to a global scan only when the cluster offers nothing.
    const auto cit = tree.by_cluster.find(label);
    if (cit != tree.by_cluster.end()) {
      for (NodeId x : cit->second) {
        if (eligible(x)) pool.push_back(x);
      }
    }
    if (pool.empty()) {
      for (const auto& [x, member] : tree.members) {
        (void)member;
        if (eligible(x)) pool.push_back(x);
      }
    }
    std::sort(pool.begin(), pool.end(), nearer);
    if (pool.size() > params_.repair_budget) {
      pool.resize(params_.repair_budget);
    }
  }
  std::vector<Candidate> out;
  out.reserve(pool.size() + 1);
  for (NodeId x : pool) {
    if (params_.mode == StreamMode::kClique || eligible(x)) {
      out.push_back(Candidate{x, ServicePath{}, 0.0});
    }
  }
  // The source is always a candidate of last resort (first-in-tree joins,
  // head promotions) unless it is down.
  if (node_up(tree.source) && tree.source != exclude) {
    out.push_back(Candidate{tree.source, ServicePath{}, 0.0});
  }
  return out;
}

void StreamingSession::route_candidate(const HierarchicalServiceRouter& router,
                                       const Tree& tree, NodeId node,
                                       Candidate& cand,
                                       NodeId exclude) const {
  const OverlayNetwork& net = overlay_.universe_network();
  if (cand.attach != tree.source &&
      cluster_label(cand.attach) == cluster_label(node)) {
    // Intra-cluster attach: clusters are fully connected, the chain was
    // applied upstream of the attach — a direct relay edge suffices (the
    // locating step; no router refinement needed).
    cand.path.found = true;
    cand.path.hops = {ServiceHop{cand.attach, ServiceId{}},
                      ServiceHop{node, ServiceId{}}};
    cand.cost = net.coord_distance(cand.attach, node);
    cand.path.cost = cand.cost;
    return;
  }
  // Cross-cluster (or source) attach: refine through the unicast router.
  // Only a source attach still has services to place — a member attach
  // sits downstream of the full chain.
  const std::vector<ServiceId> suffix =
      cand.attach == tree.source ? params_.chain : std::vector<ServiceId>{};
  const ServiceRequest request{cand.attach, node,
                               ServiceGraph::linear(suffix)};
  const auto up = [this, exclude](NodeId x) {
    return node_up(x) && x != exclude;
  };
  cand.path = router.route_degraded(request, up).path;
  if (!cand.path.found) return;
  cand.cost = 0.0;
  for (std::size_t h = 1; h < cand.path.hops.size(); ++h) {
    cand.cost += net.coord_distance(cand.path.hops[h - 1].proxy,
                                    cand.path.hops[h].proxy);
  }
}

bool StreamingSession::apply_attach(Simulator& sim, std::size_t tree_index,
                                    NodeId node,
                                    std::vector<Candidate>& candidates) {
  Tree& tree = trees_[tree_index];
  Member& member = tree.members.at(node);
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [](const Candidate& c) {
                                    return !c.path.found;
                                  }),
                   candidates.end());
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.attach < b.attach;
            });
  // Release the old claim first so a regraft that reuses proxies of the
  // old edge sees the capacity it is about to return; restore it if no
  // candidate turns out feasible.
  const std::vector<NodeId> old_claim = member.edge.claimed;
  if (!old_claim.empty()) qos_.release_nodes(old_claim, params_.demand);
  for (Candidate& cand : candidates) {
    // Re-check eligibility: earlier applies in this pass may have
    // consumed capacity (never blocked an attach point, though — repairs
    // only unblock subtrees).
    if (cand.attach == tree.source) {
      if (!node_up(tree.source)) continue;
    } else {
      const auto it = tree.members.find(cand.attach);
      if (it == tree.members.end() || it->second.blocked != 0 ||
          !node_up(cand.attach)) {
        continue;
      }
    }
    const std::vector<NodeId> claim = edge_claim(cand.path.hops);
    if (!qos_.feasible_nodes(claim, params_.demand)) continue;
    qos_.reserve_nodes(claim, params_.demand);

    if (member.parent.valid()) {
      erase_sorted(children_of(tree, member.parent), node);
    }
    index_edge(tree, node, member.edge, /*add=*/false);

    Edge edge;
    edge.hops = std::move(cand.path.hops);
    edge.claimed = claim;
    for (std::size_t h = 1; h < edge.hops.size(); ++h) {
      const ClusterId a = overlay_.universe_topology().cluster_of(
          edge.hops[h - 1].proxy);
      const ClusterId b =
          overlay_.universe_topology().cluster_of(edge.hops[h].proxy);
      if (a.valid() && b.valid() && a != b) edge.crossings.emplace_back(a, b);
    }
    edge.ok = true;
    edge.ok = edge_alive(edge);  // a partition can break it at birth
    edge.wants_repair = false;
    edge.broke_at = edge.ok ? 0.0 : sim.now();

    const std::uint32_t new_blocked =
        parent_blocked(tree, cand.attach) + (edge.ok ? 0u : 1u);
    const std::int64_t delta = static_cast<std::int64_t>(new_blocked) -
                               static_cast<std::int64_t>(member.blocked);
    member.edge = std::move(edge);
    member.parent = cand.attach;
    insert_sorted(children_of(tree, cand.attach), node);
    index_edge(tree, node, member.edge, /*add=*/true);
    bump_subtree(sim, tree, node, delta);
    if (params_.mode == StreamMode::kClique &&
        (cand.attach == tree.source ||
         tree.members.at(cand.attach).cluster != member.cluster)) {
      tree.head[member.cluster] = node;  // cross-cluster entry point
    }
    log_event(sim.now(), "attach tree=" + std::to_string(tree_index) +
                             " m=" + std::to_string(node.value()) +
                             " parent=" + std::to_string(cand.attach.value()) +
                             " cost=" + hexd(cand.cost) +
                             (member.edge.ok ? "" : " born-broken"));
    return true;
  }
  if (!old_claim.empty()) qos_.reserve_nodes(old_claim, params_.demand);
  return false;
}

bool StreamingSession::try_attach(Simulator& sim, std::size_t tree_index,
                                  NodeId node, NodeId exclude) {
  Tree& tree = trees_[tree_index];
  std::vector<Candidate> candidates = collect_candidates(tree, node, exclude);
  const HierarchicalServiceRouter& router = overlay_.universe_router();
  for (Candidate& cand : candidates) {
    route_candidate(router, tree, node, cand, exclude);
  }
  return apply_attach(sim, tree_index, node, candidates);
}

// ---------------------------------------------------------------------------
// Membership.

void StreamingSession::subscribe(Simulator& sim, NodeId node) {
  require(!finished_, "StreamingSession::subscribe: session finished");
  require(node.valid() && overlay_.is_active(node),
          "StreamingSession::subscribe: node must be active");
  require(std::find(sources_.begin(), sources_.end(), node) ==
              sources_.end(),
          "StreamingSession::subscribe: node is a source");
  require(!is_member(node), "StreamingSession::subscribe: already a member");
  StreamMetrics& m = StreamMetrics::get();
  m.joins.add(1);
  log_event(sim.now(), "join m=" + std::to_string(node.value()));
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    Tree& tree = trees_[ti];
    Member member;
    member.parent = NodeId{};
    member.blocked = 1;  // the missing edge counts as broken
    member.cluster = cluster_label(node);
    member.edge.ok = false;
    member.edge.wants_repair = true;
    member.edge.broke_at = sim.now();
    tree.members.emplace(node, std::move(member));
    insert_sorted(tree.by_cluster[tree.members.at(node).cluster], node);
    const bool attached =
        node_up(node) && try_attach(sim, ti, node, NodeId{});
    if (!attached) {
      m.rejected.add(1);
      log_event(sim.now(), "join-detached tree=" + std::to_string(ti) +
                               " m=" + std::to_string(node.value()));
      schedule_repair(sim);
    }
  }
}

void StreamingSession::unsubscribe(Simulator& sim, NodeId node) {
  require(!finished_, "StreamingSession::unsubscribe: session finished");
  require(is_member(node), "StreamingSession::unsubscribe: not a member");
  StreamMetrics& m = StreamMetrics::get();
  m.leaves.add(1);
  log_event(sim.now(), "leave m=" + std::to_string(node.value()));
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    Tree& tree = trees_[ti];
    Member& member = tree.members.at(node);
    if (member.blocked > 0 && member.interrupted_since >= 0.0) {
      m.interruption_ms.observe(sim.now() - member.interrupted_since);
    }
    // Everyone whose edge rides the leaver: its children (their edges
    // start at it) plus members relaying through it.
    std::vector<NodeId> affected;
    const auto bit = tree.by_proxy.find(node);
    if (bit != tree.by_proxy.end()) {
      for (NodeId x : bit->second) {
        if (x != node) affected.push_back(x);
      }
    }
    if (!member.edge.claimed.empty()) {
      qos_.release_nodes(member.edge.claimed, params_.demand);
    }
    index_edge(tree, node, member.edge, /*add=*/false);
    if (member.parent.valid()) {
      erase_sorted(children_of(tree, member.parent), node);
    }
    {
      const auto cit = tree.by_cluster.find(member.cluster);
      if (cit != tree.by_cluster.end()) {
        erase_sorted(cit->second, node);
        if (cit->second.empty()) tree.by_cluster.erase(cit);
      }
      const auto hit = tree.head.find(member.cluster);
      if (hit != tree.head.end() && hit->second == node) {
        tree.head.erase(hit);
      }
    }
    tree.members.erase(node);
    // Detach every affected member first (so none is picked as a
    // candidate for another), then regraft, avoiding the leaver's proxy.
    for (NodeId x : affected) {
      Member& mx = tree.members.at(x);
      if (!mx.edge.claimed.empty()) {
        qos_.release_nodes(mx.edge.claimed, params_.demand);
      }
      index_edge(tree, x, mx.edge, /*add=*/false);
      if (mx.parent.valid() && mx.parent != node) {
        erase_sorted(children_of(tree, mx.parent), x);
      }
      mx.parent = NodeId{};
      mx.edge = Edge{};
      mx.edge.wants_repair = true;
      mx.edge.broke_at = sim.now();
      m.breaks_crash.add(1);
      bump_subtree(sim, tree, x,
                   1 - static_cast<std::int64_t>(mx.blocked));
    }
    for (NodeId x : affected) {
      if (node_up(x) && try_attach(sim, ti, x, node)) {
        regrafts_++;
        m.regrafts.add(1);
      } else {
        m.rejected.add(1);
        schedule_repair(sim);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fault reactions.

void StreamingSession::on_crash(Simulator& sim, NodeId node) {
  if (finished_) return;
  StreamMetrics& m = StreamMetrics::get();
  bool any = false;
  for (Tree& tree : trees_) {
    const auto bit = tree.by_proxy.find(node);
    if (bit == tree.by_proxy.end()) continue;
    const std::vector<NodeId> affected = bit->second;  // copy: we mutate
    for (NodeId x : affected) {
      Member& member = tree.members.at(x);
      if (member.edge.ok) m.breaks_crash.add(1);
      // wants_repair even if the edge was already partition-severed: one
      // of its proxies is gone now, so waiting for the heal is pointless.
      mark_edge_broken(sim, tree, x, /*wants_repair=*/true);
      any = true;
    }
  }
  if (any) {
    log_event(sim.now(), "crash p=" + std::to_string(node.value()));
    schedule_repair(sim);
  }
}

void StreamingSession::on_recover(Simulator& sim, NodeId node) {
  if (finished_) return;
  for (Tree& tree : trees_) {
    const auto bit = tree.by_proxy.find(node);
    if (bit == tree.by_proxy.end()) continue;
    const std::vector<NodeId> affected = bit->second;
    for (NodeId x : affected) try_restore_edge(sim, tree, x);
  }
  // A recovered member may be a detached orphan (its edge is empty, so
  // by_proxy does not know it) — let the next pass pick it up.
  schedule_repair(sim);
}

void StreamingSession::on_partition(Simulator& sim, ClusterId a,
                                    ClusterId b) {
  if (finished_) return;
  StreamMetrics& m = StreamMetrics::get();
  const auto crosses = [&](const Edge& edge) {
    for (const auto& [ca, cb] : edge.crossings) {
      if ((ca == a && cb == b) || (ca == b && cb == a)) return true;
    }
    return false;
  };
  for (Tree& tree : trees_) {
    std::vector<NodeId> hit;
    for (const auto& [x, member] : tree.members) {
      if (member.edge.ok && crosses(member.edge)) hit.push_back(x);
    }
    for (NodeId x : hit) {
      m.breaks_partition.add(1);
      // A severed edge is intact — both ends will still be there when
      // the partition heals — so no regraft: wait it out.
      mark_edge_broken(sim, tree, x, /*wants_repair=*/false);
    }
  }
}

void StreamingSession::on_heal(Simulator& sim, ClusterId a, ClusterId b) {
  if (finished_) return;
  (void)a;
  (void)b;
  for (Tree& tree : trees_) {
    std::vector<NodeId> broken;
    for (const auto& [x, member] : tree.members) {
      if (!member.edge.ok && !member.edge.hops.empty()) broken.push_back(x);
    }
    for (NodeId x : broken) try_restore_edge(sim, tree, x);
  }
}

// ---------------------------------------------------------------------------
// Repair passes.

void StreamingSession::schedule_repair(Simulator& sim) {
  if (finished_ || repair_pending_) return;
  if (horizon_ms_ >= 0.0 &&
      sim.now() + params_.repair_delay_ms > horizon_ms_) {
    return;  // the session ends before the pass would run
  }
  repair_pending_ = true;
  sim.schedule_in(params_.repair_delay_ms, [this](Simulator& s) {
    repair_pending_ = false;
    repair_pass(s);
  });
}

void StreamingSession::repair_pass(Simulator& sim) {
  if (finished_) return;
  StreamMetrics& m = StreamMetrics::get();
  struct Job {
    std::size_t tree;
    NodeId node;
    std::vector<Candidate> candidates;
  };
  std::vector<Job> jobs;
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    for (const auto& [x, member] : trees_[ti].members) {
      if (member.edge.wants_repair && node_up(x)) {
        jobs.push_back(Job{ti, x, {}});
      }
    }
  }
  if (jobs.empty()) return;
  // Candidate shortlists serially (clique head election mutates state)…
  for (Job& job : jobs) {
    job.candidates = collect_candidates(trees_[job.tree], job.node, NodeId{});
  }
  // …then the routing fan-out: read-only route_degraded calls against the
  // pre-synced universe router, one slot per orphan, merged serially —
  // the digest is thread-count independent.
  const HierarchicalServiceRouter& router = overlay_.universe_router();
  parallel_for(jobs.size(), 1, [&](std::size_t i) {
    Job& job = jobs[i];
    for (Candidate& cand : job.candidates) {
      route_candidate(router, trees_[job.tree], job.node, cand, NodeId{});
    }
  });
  for (Job& job : jobs) {
    Tree& tree = trees_[job.tree];
    const auto it = tree.members.find(job.node);
    if (it == tree.members.end() || !it->second.edge.wants_repair) continue;
    const double broke_at = it->second.edge.broke_at;
    if (apply_attach(sim, job.tree, job.node, job.candidates)) {
      regrafts_++;
      m.regrafts.add(1);
      m.repair_latency_ms.observe(sim.now() - broke_at);
    } else {
      repair_failures_++;
      m.repair_failures.add(1);
    }
  }
  bool remaining = false;
  for (const Tree& tree : trees_) {
    for (const auto& [x, member] : tree.members) {
      (void)x;
      if (member.edge.wants_repair) {
        remaining = true;
        break;
      }
    }
    if (remaining) break;
  }
  if (remaining) schedule_repair(sim);
}

// ---------------------------------------------------------------------------
// Continuity ticks and session close.

void StreamingSession::tick(Simulator& sim) {
  if (finished_) return;
  StreamMetrics& m = StreamMetrics::get();
  const double loss =
      injector_ == nullptr
          ? 0.0
          : std::max(injector_->plan().base_loss(),
                     injector_->current_burst_loss());
  TickPoint point;
  point.time_ms = sim.now();
  for (Tree& tree : trees_) {
    for (const auto& [x, member] : tree.members) {
      (void)x;
      ++point.expected;
      bool delivered = member.blocked == 0;
      if (delivered && loss > 0.0 && tick_rng_.chance(loss)) {
        delivered = false;
      }
      if (delivered) ++point.delivered;
    }
  }
  m.ticks_expected.add(point.expected);
  m.ticks_delivered.add(point.delivered);
  ticks_.push_back(point);
}

void StreamingSession::finish(Simulator& sim) {
  if (finished_) return;
  finished_ = true;
  StreamMetrics& m = StreamMetrics::get();
  for (Tree& tree : trees_) {
    for (auto& [x, member] : tree.members) {
      (void)x;
      if (member.blocked > 0 && member.interrupted_since >= 0.0) {
        m.interruption_ms.observe(sim.now() - member.interrupted_since);
        member.interrupted_since = -1.0;
      }
      if (!member.edge.claimed.empty()) {
        qos_.release_nodes(member.edge.claimed, params_.demand);
        member.edge.claimed.clear();
      }
    }
  }
  log_event(sim.now(), "finish members=" + std::to_string(member_count()));
}

// ---------------------------------------------------------------------------
// Inspection.

NodeId StreamingSession::source(std::size_t tree) const {
  require(tree < trees_.size(), "StreamingSession::source: bad tree");
  return trees_[tree].source;
}

std::size_t StreamingSession::member_count() const {
  return trees_.empty() ? 0 : trees_.front().members.size();
}

bool StreamingSession::is_member(NodeId node) const {
  return !trees_.empty() &&
         trees_.front().members.find(node) != trees_.front().members.end();
}

std::size_t StreamingSession::unblocked_count(std::size_t tree) const {
  require(tree < trees_.size(), "StreamingSession: bad tree");
  std::size_t n = 0;
  for (const auto& [x, member] : trees_[tree].members) {
    (void)x;
    if (member.blocked == 0) ++n;
  }
  return n;
}

std::size_t StreamingSession::orphan_count(std::size_t tree) const {
  require(tree < trees_.size(), "StreamingSession: bad tree");
  std::size_t n = 0;
  for (const auto& [x, member] : trees_[tree].members) {
    (void)x;
    if (!member.edge.ok) ++n;
  }
  return n;
}

std::vector<ServiceHop> StreamingSession::branch_of(std::size_t tree,
                                                    NodeId node) const {
  require(tree < trees_.size(), "StreamingSession::branch_of: bad tree");
  const Tree& t = trees_[tree];
  std::vector<NodeId> chain;
  NodeId at = node;
  while (true) {
    const auto it = t.members.find(at);
    if (it == t.members.end()) return {};  // not a member
    chain.push_back(at);
    if (!it->second.parent.valid()) return {};  // detached somewhere
    if (it->second.parent == t.source) break;
    at = it->second.parent;
  }
  std::reverse(chain.begin(), chain.end());
  std::vector<ServiceHop> out{ServiceHop{t.source, ServiceId{}}};
  for (NodeId m : chain) {
    const Edge& edge = t.members.at(m).edge;
    if (edge.hops.empty()) return {};
    const std::size_t first = edge.hops.front().is_relay() ? 1 : 0;
    for (std::size_t h = first; h < edge.hops.size(); ++h) {
      out.push_back(edge.hops[h]);
    }
  }
  return out;
}

StreamingSession::TreeExport StreamingSession::as_multicast_tree(
    std::size_t tree) const {
  require(tree < trees_.size(), "StreamingSession: bad tree");
  const Tree& t = trees_[tree];
  TreeExport out;
  out.request.source = t.source;
  out.request.graph = ServiceGraph::linear(params_.chain);
  MulticastTree& mt = out.tree;
  mt.nodes.push_back(MulticastTree::TreeNode{
      t.source, ServiceId{}, MulticastTree::TreeNode::kNoParent});
  std::map<NodeId, std::size_t> leaf;
  // DFS from the source over attached edges; children vectors are sorted,
  // so the node order is deterministic.
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (auto it = t.source_children.rbegin(); it != t.source_children.rend();
       ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [m, parent_leaf] = stack.back();
    stack.pop_back();
    const Member& member = t.members.at(m);
    if (member.edge.hops.empty()) continue;
    std::size_t parent = parent_leaf;
    const std::size_t first = member.edge.hops.front().is_relay() ? 1 : 0;
    for (std::size_t h = first; h < member.edge.hops.size(); ++h) {
      mt.nodes.push_back(MulticastTree::TreeNode{
          member.edge.hops[h].proxy, member.edge.hops[h].service, parent});
      parent = mt.nodes.size() - 1;
    }
    leaf[m] = parent;
    for (auto it = member.children.rbegin(); it != member.children.rend();
         ++it) {
      stack.emplace_back(*it, parent);
    }
  }
  for (const auto& [m, index] : leaf) {
    out.request.destinations.push_back(m);
    mt.destination_leaf.push_back(index);
  }
  mt.found = true;
  for (std::size_t n = 1; n < mt.nodes.size(); ++n) {
    const NodeId a = mt.nodes[mt.nodes[n].parent].proxy;
    const NodeId b = mt.nodes[n].proxy;
    if (a != b) {
      mt.cost += overlay_.universe_network().coord_distance(a, b);
    }
  }
  return out;
}

ContinuityStats StreamingSession::continuity(double after_ms) const {
  ContinuityStats stats;
  for (const TickPoint& point : ticks_) {
    if (point.time_ms <= after_ms) continue;
    stats.expected += point.expected;
    stats.delivered += point.delivered;
  }
  return stats;
}

void StreamingSession::log_event(double time_ms, const std::string& line) {
  log_.push_back("t=" + hexd(time_ms) + " " + line);
}

std::string StreamingSession::digest() const {
  std::ostringstream os;
  os << std::hexfloat;
  os << "streaming mode="
     << (params_.mode == StreamMode::kLocating ? "locating" : "clique")
     << " sources=" << sources_.size() << " budget=" << params_.repair_budget
     << " chain=" << params_.chain.size() << "\n";
  for (const std::string& line : log_) os << line << "\n";
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    const Tree& tree = trees_[ti];
    os << "tree " << ti << " source=" << tree.source.value() << "\n";
    for (const auto& [x, member] : tree.members) {
      os << "  m=" << x.value() << " parent=" << member.parent.value()
         << " blocked=" << member.blocked
         << " ok=" << (member.edge.ok ? 1 : 0) << " hops=";
      for (const ServiceHop& hop : member.edge.hops) {
        os << hop.proxy.value() << "/" << hop.service.value() << ",";
      }
      os << "\n";
    }
  }
  for (const TickPoint& point : ticks_) {
    os << "tick " << point.time_ms << " " << point.expected << " "
       << point.delivered << "\n";
  }
  os << "regrafts=" << regrafts_ << " repair_failures=" << repair_failures_
     << " reserved=" << qos_.reserved_total() << "\n";
  return os.str();
}

}  // namespace hfc

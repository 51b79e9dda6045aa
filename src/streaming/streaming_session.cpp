#include "streaming/streaming_session.h"

#include <algorithm>
#include <cstdlib>
#include <ios>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "services/service_graph.h"
#include "spatial/spatial_index.h"
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
  obs::Counter& candidate_routes;  ///< pending candidates routed
  /// Pending candidates left unrouted at a graft: they could not win.
  obs::Counter& candidate_routes_skipped;
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
        reg.counter("stream.candidate_routes"),
        reg.counter("stream.candidate_routes_skipped"),
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

/// A pending candidate's key: its attach-to-node coordinate distance ê
/// times this factor, a lower bound on the cost its route will have.
///
/// A route runs from the attach point to the node, so by the triangle
/// inequality its true hop-distance sum is at least the true distance e.
/// Only rounding can break the bound. With u = 2^-53 and
/// γ_n = n·u / (1 − n·u): euclidean() over k axes rounds each difference,
/// square, the k-term sum and the root, so every computed distance is
/// within a factor (1 ± γ_{k+3}) of the true one; the left-to-right sum of
/// m computed hop distances loses at most another factor (1 − γ_{m−1}).
/// The computed cost is therefore at least
/// (1 − γ_{m−1})(1 − γ_{k+3}) / (1 + γ_{k+3}) · ê ≥ (1 − γ_{m+2k+6}) · ê,
/// and the rounded product ê · (1 − s) is at most ê · (1 − s)(1 + u). A
/// slack s ≥ γ_{m+2k+8} suffices: 1e-9 covers m + 2k up to ~9·10^6,
/// far beyond any path length or coordinate dimension here.
/// route_candidate checks the bound on every route it solves.
constexpr double kBoundShrink = 1.0 - 1e-9;

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

/// v[i], growing `v` to i + 1 slots first when it is shorter.
template <typename T>
T& grow_at(std::vector<T>& v, std::size_t i) {
  if (i >= v.size()) v.resize(i + 1);
  return v[i];
}

/// fn(id, member) over the tree's subscribed members, ascending id.
template <typename Tree, typename Fn>
void for_each_member(Tree& tree, Fn&& fn) {
  for (std::size_t i = 0; i < tree.members.size(); ++i) {
    if (tree.members[i].present) {
      fn(NodeId(static_cast<std::int32_t>(i)), tree.members[i]);
    }
  }
}

}  // namespace

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
  require(params_.repair_budget >= 1,
          "StreamingSession: repair_budget must be >= 1");
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
  log_event(LogRecord::Kind::kStart, sim.now()).value = horizon_ms;
}

// ---------------------------------------------------------------------------
// Small state helpers.

const StreamingSession::Member* StreamingSession::find_member(
    const Tree& tree, NodeId node) {
  if (!node.valid() || node.idx() >= tree.members.size()) return nullptr;
  const Member& member = tree.members[node.idx()];
  return member.present ? &member : nullptr;
}

StreamingSession::Member* StreamingSession::find_member(Tree& tree,
                                                        NodeId node) {
  return const_cast<Member*>(find_member(std::as_const(tree), node));
}

StreamingSession::Member& StreamingSession::member_at(Tree& tree,
                                                      NodeId node) {
  Member* member = find_member(tree, node);
  ensure(member != nullptr, "StreamingSession: not a member");
  return *member;
}

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
  const Member* member = find_member(tree, parent);
  ensure(member != nullptr, "StreamingSession: parent is not a member");
  return member->blocked;
}

std::int32_t StreamingSession::cluster_label(NodeId node) const {
  return overlay_.universe_topology().cluster_of(node).value();
}

std::vector<NodeId>& StreamingSession::children_of(Tree& tree,
                                                   NodeId parent) {
  if (parent == tree.source) return tree.source_children;
  return member_at(tree, parent).children;
}

void StreamingSession::index_edge(Tree& tree, NodeId node, const Edge& edge,
                                  bool add) {
  for (const ServiceHop& hop : edge.hops) {
    if (add) {
      insert_sorted(grow_at(tree.by_proxy, hop.proxy.idx()), node);
    } else if (hop.proxy.idx() < tree.by_proxy.size()) {
      erase_sorted(tree.by_proxy[hop.proxy.idx()], node);
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
    Member& member = member_at(tree, at);
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
  Member& member = member_at(tree, node);
  if (member.edge.ok) {
    member.edge.ok = false;
    member.edge.broke_at = sim.now();
    bump_subtree(sim, tree, node, +1);
  }
  if (wants_repair) member.edge.wants_repair = true;
}

void StreamingSession::try_restore_edge(Simulator& sim, Tree& tree,
                                        NodeId node) {
  Member& member = member_at(tree, node);
  if (member.edge.ok || !edge_alive(member.edge)) return;
  member.edge.ok = true;
  member.edge.wants_repair = false;
  StreamMetrics::get().restores.add(1);
  bump_subtree(sim, tree, node, -1);
  log_event(LogRecord::Kind::kRestore, sim.now(), node);
}

// ---------------------------------------------------------------------------
// Attach machinery (joins, leave-time regrafts, repair passes).

NodeId StreamingSession::resolve_head(Tree& tree,
                                      std::int32_t cluster) const {
  const auto ok = [&](NodeId x) {
    const Member* member = find_member(tree, x);
    return member != nullptr && member->blocked == 0 &&
           member->cluster == cluster && node_up(x);
  };
  const auto c = static_cast<std::size_t>(cluster);
  if (c < tree.head.size() && ok(tree.head[c])) return tree.head[c];
  NodeId elected;
  if (c < by_cluster_.size()) {
    for (NodeId x : by_cluster_[c]) {
      if (ok(x)) {
        elected = x;
        break;
      }
    }
  }
  if (elected.valid() || c < tree.head.size()) grow_at(tree.head, c) = elected;
  return elected;
}

void StreamingSession::widen_cluster_box(std::size_t cluster, NodeId node) {
  const std::span<const double> at =
      overlay_.universe_network().coordinate(node);
  const std::size_t dim = at.size();
  if (cluster_box_.size() < (cluster + 1) * 2 * dim) {
    // New labels start empty: lows at +inf, highs at -inf.
    for (std::size_t c = cluster_box_.size() / (2 * dim); c <= cluster; ++c) {
      cluster_box_.insert(cluster_box_.end(), dim,
                          std::numeric_limits<double>::infinity());
      cluster_box_.insert(cluster_box_.end(), dim,
                          -std::numeric_limits<double>::infinity());
    }
  }
  double* box = &cluster_box_[cluster * 2 * dim];
  widen_box(box, box + dim, at);
}

std::vector<AttachKey> StreamingSession::own_keys(NodeId node) const {
  const auto c = static_cast<std::size_t>(cluster_label(node));
  if (params_.mode != StreamMode::kLocating || c >= by_cluster_.size()) {
    return {};
  }
  const OverlayNetwork& net = overlay_.universe_network();
  std::vector<AttachKey> keys;
  keys.reserve(by_cluster_[c].size());
  for (NodeId x : by_cluster_[c]) {
    if (x != node) keys.emplace_back(net.coord_distance(x, node), x);
  }
  return keys;
}

std::vector<StreamingSession::Candidate> StreamingSession::collect_candidates(
    Tree& tree, NodeId node, NodeId exclude,
    std::span<const AttachKey> own) const {
  const OverlayNetwork& net = overlay_.universe_network();
  const std::int32_t label = cluster_label(node);
  const auto distance = [&](NodeId x) { return net.coord_distance(x, node); };
  std::vector<AttachKey> keys;
  if (params_.mode == StreamMode::kClique) {
    // Clustered dissemination: strictly through the own cluster's head.
    // Without an eligible one this member attaches cross-cluster (and
    // becomes the head on success); the other heads form the backbone.
    const NodeId head = resolve_head(tree, label);
    std::vector<AttachKey> head_key;
    if (head.valid()) head_key.emplace_back(distance(head), head);
    keys = select_attach_keys(
        head_key, params_.repair_budget,
        [&](NodeId x) { return x != node && x != exclude; }, distance,
        [&](const auto& offer, const auto& /*reach*/) {
          for (std::size_t c = 0; c < by_cluster_.size(); ++c) {
            const auto cluster = static_cast<std::int32_t>(c);
            if (by_cluster_[c].empty() || cluster == label) continue;
            const NodeId other = resolve_head(tree, cluster);
            if (other.valid()) offer(other);
          }
        });
  } else {
    // Locating-first: own-cluster members by coordinate distance; fall
    // back to a global scan only when the cluster offers nothing.
    const auto eligible = [&](NodeId x) {
      // Every listed or offered id is a subscribed member: read its slot.
      return x != node && x != exclude &&
             tree.members[x.idx()].blocked == 0 && node_up(x);
    };
    // The fallback visits clusters nearest box first and stops at the
    // first whose box lies beyond the reach of the keys kept so far.
    const auto everyone = [&](const auto& offer, const auto& reach) {
      const std::span<const double> at = net.coordinate(node);
      std::vector<std::pair<double, std::size_t>> order;
      for (std::size_t c = 0; c < by_cluster_.size(); ++c) {
        if (by_cluster_[c].empty()) continue;
        const double* box = &cluster_box_[c * 2 * at.size()];
        order.emplace_back(box_distance(box, box + at.size(), at), c);
      }
      std::sort(order.begin(), order.end());
      for (const auto& [bound, c] : order) {
        if (bound > reach()) break;
        for (NodeId x : by_cluster_[c]) offer(x);
      }
    };
    keys = select_attach_keys(own, params_.repair_budget, eligible, distance,
                              everyone);
  }

  std::vector<Candidate> out;
  out.reserve(keys.size() + 1);
  for (const auto& [d, x] : keys) {
    if (cluster_label(x) == label) {
      // Intra-cluster attach: clusters are fully connected, the chain was
      // applied upstream of the attach — a direct relay edge suffices (the
      // locating step; no router refinement needed).
      out.push_back(Candidate{x, ServicePath{}, d, false, true});
    } else {
      out.push_back(Candidate{x, ServicePath{}, d * kBoundShrink, true});
    }
  }
  // The source is always a candidate of last resort (first-in-tree joins,
  // head promotions) unless it is down.
  if (node_up(tree.source) && tree.source != exclude) {
    out.push_back(Candidate{tree.source, ServicePath{},
                            distance(tree.source) * kBoundShrink, true});
  }
  return out;
}

void StreamingSession::route_candidate(const HierarchicalServiceRouter& router,
                                       const Tree& tree, NodeId node,
                                       Candidate& cand,
                                       NodeId exclude) const {
  StreamMetrics::get().candidate_routes.add(1);
  const OverlayNetwork& net = overlay_.universe_network();
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
  cand.pending = false;
  if (!cand.path.found) return;
  const double bound = cand.cost;
  cand.cost = 0.0;
  for (std::size_t h = 1; h < cand.path.hops.size(); ++h) {
    cand.cost += net.coord_distance(cand.path.hops[h - 1].proxy,
                                    cand.path.hops[h].proxy);
  }
  ensure(cand.cost >= bound,
         "StreamingSession: routed cost below its attach lower bound");
}

std::size_t StreamingSession::next_winner(
    const HierarchicalServiceRouter& router, const Tree& tree, NodeId node,
    std::vector<Candidate>& candidates, NodeId exclude) const {
  // (cost, pending before exact, attach): attach ids are distinct, so
  // the order is total.
  const auto before = [](const Candidate& a, const Candidate& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    if (a.pending != b.pending) return a.pending;
    return a.attach < b.attach;
  };
  while (!candidates.empty()) {
    const auto best =
        std::min_element(candidates.begin(), candidates.end(), before);
    if (!best->pending) {
      return static_cast<std::size_t>(best - candidates.begin());
    }
    route_candidate(router, tree, node, *best, exclude);
    if (!best->path.found) candidates.erase(best);
  }
  return candidates.size();
}

bool StreamingSession::apply_attach(Simulator& sim,
                                    const HierarchicalServiceRouter& router,
                                    std::size_t tree_index, NodeId node,
                                    std::vector<Candidate>& candidates,
                                    NodeId exclude) {
  HFC_TRACE_SPAN("streaming.attach");
  Tree& tree = trees_[tree_index];
  Member& member = member_at(tree, node);
  // Release the old claim first so a regraft that reuses proxies of the
  // old edge sees the capacity it is about to return; restore it if no
  // candidate turns out feasible.
  const std::vector<NodeId> old_claim = member.edge.claimed;
  if (!old_claim.empty()) qos_.release_nodes(old_claim, params_.demand);
  StreamMetrics& m = StreamMetrics::get();
  while (true) {
    const std::size_t i =
        next_winner(router, tree, node, candidates, exclude);
    if (i == candidates.size()) break;
    Candidate cand = std::move(candidates[i]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
    // Re-check eligibility: earlier applies in this pass may have
    // consumed capacity (never blocked an attach point, though — repairs
    // only unblock subtrees).
    if (cand.attach == tree.source) {
      if (!node_up(tree.source)) continue;
    } else {
      const Member* attach = find_member(tree, cand.attach);
      if (attach == nullptr || attach->blocked != 0 ||
          !node_up(cand.attach)) {
        continue;
      }
    }
    std::vector<ServiceHop> hops =
        cand.relay ? std::vector<ServiceHop>{ServiceHop{cand.attach, {}},
                                             ServiceHop{node, {}}}
                   : std::move(cand.path.hops);
    const std::vector<NodeId> claim = edge_claim(hops);
    if (!qos_.feasible_nodes(claim, params_.demand)) continue;
    qos_.reserve_nodes(claim, params_.demand);

    if (member.parent.valid()) {
      erase_sorted(children_of(tree, member.parent), node);
    }
    index_edge(tree, node, member.edge, /*add=*/false);

    Edge edge;
    edge.hops = std::move(hops);
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
         member_at(tree, cand.attach).cluster != member.cluster)) {
      // Cross-cluster entry point.
      grow_at(tree.head, static_cast<std::size_t>(member.cluster)) = node;
    }
    LogRecord& attach = log_event(LogRecord::Kind::kAttach, sim.now(), node);
    attach.born_broken = !member.edge.ok;
    attach.parent = cand.attach;
    attach.index = tree_index;
    attach.value = cand.cost;
    m.candidate_routes_skipped.add(static_cast<std::uint64_t>(
        std::count_if(candidates.begin(), candidates.end(),
                      [](const Candidate& c) { return c.pending; })));
    return true;
  }
  if (!old_claim.empty()) qos_.reserve_nodes(old_claim, params_.demand);
  return false;
}

bool StreamingSession::try_attach(Simulator& sim, std::size_t tree_index,
                                  NodeId node, NodeId exclude,
                                  std::span<const AttachKey> own) {
  std::vector<Candidate> candidates =
      collect_candidates(trees_[tree_index], node, exclude, own);
  return apply_attach(sim, overlay_.universe_router(), tree_index, node,
                      candidates, exclude);
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
  log_event(LogRecord::Kind::kJoin, sim.now(), node);
  ++member_count_;
  const std::int32_t label = cluster_label(node);
  ensure(label >= 0, "StreamingSession::subscribe: active node unclustered");
  insert_sorted(grow_at(by_cluster_, static_cast<std::size_t>(label)), node);
  widen_cluster_box(static_cast<std::size_t>(label), node);
  // Distances from the own cluster are computed once; each tree applies
  // its own eligibility to them.
  const std::vector<AttachKey> own = own_keys(node);
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    Tree& tree = trees_[ti];
    Member& member = grow_at(tree.members, node.idx());
    member.present = true;
    member.blocked = 1;  // the missing edge counts as broken
    member.cluster = label;
    member.edge.wants_repair = true;
    member.edge.broke_at = sim.now();
    const bool attached =
        node_up(node) && try_attach(sim, ti, node, NodeId{}, own);
    if (!attached) {
      m.rejected.add(1);
      log_event(LogRecord::Kind::kJoinDetached, sim.now(), node).index = ti;
      schedule_repair(sim);
    }
  }
}

void StreamingSession::unsubscribe(Simulator& sim, NodeId node) {
  require(!finished_, "StreamingSession::unsubscribe: session finished");
  require(is_member(node), "StreamingSession::unsubscribe: not a member");
  StreamMetrics& m = StreamMetrics::get();
  m.leaves.add(1);
  log_event(LogRecord::Kind::kLeave, sim.now(), node);
  --member_count_;
  erase_sorted(
      by_cluster_[static_cast<std::size_t>(
          member_at(trees_.front(), node).cluster)],
      node);
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    Tree& tree = trees_[ti];
    Member& member = member_at(tree, node);
    if (member.blocked > 0 && member.interrupted_since >= 0.0) {
      m.interruption_ms.observe(sim.now() - member.interrupted_since);
    }
    // Everyone whose edge rides the leaver: its children (their edges
    // start at it) plus members relaying through it.
    std::vector<NodeId> affected;
    if (node.idx() < tree.by_proxy.size()) {
      for (NodeId x : tree.by_proxy[node.idx()]) {
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
    const auto c = static_cast<std::size_t>(member.cluster);
    if (c < tree.head.size() && tree.head[c] == node) tree.head[c] = NodeId{};
    member = Member{};  // the slot is free for a later subscribe
    // Detach every affected member first (so none is picked as a
    // candidate for another), then regraft, avoiding the leaver's proxy.
    for (NodeId x : affected) {
      Member& mx = member_at(tree, x);
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
      if (node_up(x) && try_attach(sim, ti, x, node, own_keys(x))) {
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
    if (node.idx() >= tree.by_proxy.size()) continue;
    const std::vector<NodeId> affected =
        tree.by_proxy[node.idx()];  // copy: we mutate
    for (NodeId x : affected) {
      Member& member = member_at(tree, x);
      if (member.edge.ok) m.breaks_crash.add(1);
      // wants_repair even if the edge was already partition-severed: one
      // of its proxies is gone now, so waiting for the heal is pointless.
      mark_edge_broken(sim, tree, x, /*wants_repair=*/true);
      any = true;
    }
  }
  if (any) {
    log_event(LogRecord::Kind::kCrash, sim.now(), node);
    schedule_repair(sim);
  }
}

void StreamingSession::on_recover(Simulator& sim, NodeId node) {
  if (finished_) return;
  for (Tree& tree : trees_) {
    if (node.idx() >= tree.by_proxy.size()) continue;
    const std::vector<NodeId> affected = tree.by_proxy[node.idx()];
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
    for_each_member(tree, [&](NodeId x, const Member& member) {
      if (member.edge.ok && crosses(member.edge)) hit.push_back(x);
    });
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
    for_each_member(tree, [&](NodeId x, const Member& member) {
      if (!member.edge.ok && !member.edge.hops.empty()) broken.push_back(x);
    });
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
  HFC_TRACE_SPAN("streaming.repair_pass");
  StreamMetrics& m = StreamMetrics::get();
  struct Job {
    std::size_t tree;
    NodeId node;
    std::vector<Candidate> candidates;
  };
  std::vector<Job> jobs;
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    for_each_member(trees_[ti], [&](NodeId x, const Member& member) {
      if (member.edge.wants_repair && node_up(x)) {
        jobs.push_back(Job{ti, x, {}});
      }
    });
  }
  if (jobs.empty()) return;
  // Candidate shortlists serially (clique head election mutates state)…
  for (Job& job : jobs) {
    job.candidates = collect_candidates(trees_[job.tree], job.node, NodeId{},
                                        own_keys(job.node));
  }
  // …then the routing fan-out: each orphan's selection runs read-only up
  // to its first exact winner against the pre-synced universe router, one
  // slot per orphan. The serial graft continues the same selection; a
  // route depends only on the router and the crash set, neither of which
  // a graft changes, so the digest is thread-count independent.
  const HierarchicalServiceRouter& router = overlay_.universe_router();
  parallel_for(jobs.size(), 1, [&](std::size_t i) {
    Job& job = jobs[i];
    (void)next_winner(router, trees_[job.tree], job.node, job.candidates,
                      NodeId{});
  });
  for (Job& job : jobs) {
    const Member* member = find_member(trees_[job.tree], job.node);
    if (member == nullptr || !member->edge.wants_repair) continue;
    const double broke_at = member->edge.broke_at;
    if (apply_attach(sim, router, job.tree, job.node, job.candidates,
                     NodeId{})) {
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
    for_each_member(tree, [&](NodeId, const Member& member) {
      remaining = remaining || member.edge.wants_repair;
    });
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
  for (const Tree& tree : trees_) {
    for_each_member(tree, [&](NodeId, const Member& member) {
      ++point.expected;
      bool delivered = member.blocked == 0;
      if (delivered && loss > 0.0 && tick_rng_.chance(loss)) {
        delivered = false;
      }
      if (delivered) ++point.delivered;
    });
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
    for_each_member(tree, [&](NodeId, Member& member) {
      if (member.blocked > 0 && member.interrupted_since >= 0.0) {
        m.interruption_ms.observe(sim.now() - member.interrupted_since);
        member.interrupted_since = -1.0;
      }
      if (!member.edge.claimed.empty()) {
        qos_.release_nodes(member.edge.claimed, params_.demand);
        member.edge.claimed.clear();
      }
    });
  }
  log_event(LogRecord::Kind::kFinish, sim.now()).index = member_count();
}

// ---------------------------------------------------------------------------
// Inspection.

NodeId StreamingSession::source(std::size_t tree) const {
  require(tree < trees_.size(), "StreamingSession::source: bad tree");
  return trees_[tree].source;
}

std::size_t StreamingSession::member_count() const { return member_count_; }

bool StreamingSession::is_member(NodeId node) const {
  return !trees_.empty() && find_member(trees_.front(), node) != nullptr;
}

std::size_t StreamingSession::unblocked_count(std::size_t tree) const {
  require(tree < trees_.size(), "StreamingSession: bad tree");
  std::size_t n = 0;
  for_each_member(trees_[tree], [&](NodeId, const Member& member) {
    if (member.blocked == 0) ++n;
  });
  return n;
}

std::size_t StreamingSession::orphan_count(std::size_t tree) const {
  require(tree < trees_.size(), "StreamingSession: bad tree");
  std::size_t n = 0;
  for_each_member(trees_[tree], [&](NodeId, const Member& member) {
    if (!member.edge.ok) ++n;
  });
  return n;
}

std::vector<ServiceHop> StreamingSession::branch_of(std::size_t tree,
                                                    NodeId node) const {
  require(tree < trees_.size(), "StreamingSession::branch_of: bad tree");
  const Tree& t = trees_[tree];
  std::vector<NodeId> chain;
  NodeId at = node;
  while (true) {
    const Member* member = find_member(t, at);
    if (member == nullptr) return {};  // not a member
    chain.push_back(at);
    if (!member->parent.valid()) return {};  // detached somewhere
    if (member->parent == t.source) break;
    at = member->parent;
  }
  std::reverse(chain.begin(), chain.end());
  std::vector<ServiceHop> out{ServiceHop{t.source, ServiceId{}}};
  for (NodeId m : chain) {
    const Edge& edge = t.members[m.idx()].edge;
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
  std::vector<std::pair<NodeId, std::size_t>> leaf;
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
    const Member& member = t.members[m.idx()];
    if (member.edge.hops.empty()) continue;
    std::size_t parent = parent_leaf;
    const std::size_t first = member.edge.hops.front().is_relay() ? 1 : 0;
    for (std::size_t h = first; h < member.edge.hops.size(); ++h) {
      mt.nodes.push_back(MulticastTree::TreeNode{
          member.edge.hops[h].proxy, member.edge.hops[h].service, parent});
      parent = mt.nodes.size() - 1;
    }
    leaf.emplace_back(m, parent);
    for (auto it = member.children.rbegin(); it != member.children.rend();
         ++it) {
      stack.emplace_back(*it, parent);
    }
  }
  std::sort(leaf.begin(), leaf.end());
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

StreamingSession::LogRecord& StreamingSession::log_event(LogRecord::Kind kind,
                                                        double time_ms,
                                                        NodeId node) {
  LogRecord& record = log_.emplace_back();
  record.kind = kind;
  record.node = node;
  record.time_ms = time_ms;
  return record;
}

std::string StreamingSession::digest() const {
  std::ostringstream os;
  os << std::hexfloat;
  os << "streaming mode="
     << (params_.mode == StreamMode::kLocating ? "locating" : "clique")
     << " sources=" << sources_.size() << " budget=" << params_.repair_budget
     << " chain=" << params_.chain.size() << "\n";
  for (const LogRecord& r : log_) {
    using Kind = LogRecord::Kind;
    const std::string m = std::to_string(r.node.value());
    os << "t=" << hexd(r.time_ms) << " ";
    switch (r.kind) {
      case Kind::kStart:
        os << "start horizon=" << hexd(r.value);
        break;
      case Kind::kJoin:
        os << "join m=" << m;
        break;
      case Kind::kAttach:
        os << "attach tree=" << std::to_string(r.index) << " m=" << m
           << " parent=" << std::to_string(r.parent.value())
           << " cost=" << hexd(r.value)
           << (r.born_broken ? " born-broken" : "");
        break;
      case Kind::kJoinDetached:
        os << "join-detached tree=" << std::to_string(r.index) << " m=" << m;
        break;
      case Kind::kRestore:
        os << "restore m=" << m;
        break;
      case Kind::kCrash:
        os << "crash p=" << m;
        break;
      case Kind::kLeave:
        os << "leave m=" << m;
        break;
      case Kind::kFinish:
        os << "finish members=" << std::to_string(r.index);
        break;
    }
    os << "\n";
  }
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    const Tree& tree = trees_[ti];
    os << "tree " << ti << " source=" << tree.source.value() << "\n";
    for_each_member(tree, [&](NodeId x, const Member& member) {
      os << "  m=" << x.value() << " parent=" << member.parent.value()
         << " blocked=" << member.blocked
         << " ok=" << (member.edge.ok ? 1 : 0) << " hops=";
      for (const ServiceHop& hop : member.edge.hops) {
        os << hop.proxy.value() << "/" << hop.service.value() << ",";
      }
      os << "\n";
    });
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

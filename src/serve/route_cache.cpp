#include "serve/route_cache.h"

#include <algorithm>

#include "util/require.h"
#include "util/rng.h"

namespace hfc::serve {

RequestKey RequestKey::make(const ServiceRequest& request,
                            const RouteSnapshot& snap) {
  const ClusterId src = snap.cluster_of(request.source);
  const ClusterId dst = snap.cluster_of(request.destination);
  require(src.valid() && dst.valid(),
          "RequestKey::make: request endpoints must be clustered");

  RequestKey key;
  key.source = request.source;
  key.destination = request.destination;
  key.sg_encoding = request.graph.canonical_encoding();
  std::uint64_t h = splitmix64(0x524b6579ull ^ request.graph.structural_hash());
  h = splitmix64(h ^ static_cast<std::uint64_t>(request.source.idx()));
  h = splitmix64(h ^ static_cast<std::uint64_t>(request.destination.idx()));
  key.hash = h;
  return key;
}

CachedRoute make_cached_route(ServicePath path, const ServiceRequest& request,
                              const RouteSnapshot& snap) {
  CachedRoute entry;
  entry.crash_epoch = snap.crash_epoch();

  std::vector<ClusterId> clusters = {snap.cluster_of(request.source),
                                     snap.cluster_of(request.destination)};
  for (const ServiceHop& hop : path.hops) {
    clusters.push_back(snap.cluster_of(hop.proxy));
  }
  std::sort(clusters.begin(), clusters.end());
  clusters.erase(std::unique(clusters.begin(), clusters.end()),
                 clusters.end());
  entry.cluster_tags.reserve(clusters.size());
  for (ClusterId c : clusters) {
    require(c.valid(), "make_cached_route: unclustered hop proxy");
    entry.cluster_tags.emplace_back(c, snap.cluster_generation(c));
  }

  const std::vector<ServiceId> services = request.graph.distinct_services();
  entry.service_tags.reserve(services.size());
  for (ServiceId s : services) {
    entry.service_tags.emplace_back(s, snap.service_fingerprint(s));
  }

  entry.path = std::move(path);
  return entry;
}

bool route_current(const CachedRoute& entry, const RouteSnapshot& snap) {
  if (entry.crash_epoch != snap.crash_epoch()) return false;
  for (const auto& [cluster, gen] : entry.cluster_tags) {
    if (!snap.cluster_generation_is(cluster, gen)) return false;
  }
  for (const auto& [service, fp] : entry.service_tags) {
    if (snap.service_fingerprint(service) != fp) return false;
  }
  return true;
}

RouteCache::RouteCache(std::size_t capacity) : capacity_(capacity) {
  require(capacity >= 1, "RouteCache: need capacity of at least one entry");
}

std::size_t RouteCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::optional<CachedRoute> RouteCache::find(const RequestKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

RouteCache::InsertResult RouteCache::insert(const RequestKey& key,
                                            CachedRoute entry) {
  std::lock_guard<std::mutex> lock(mu_);

  InsertResult result;
  entry.insert_seq = ++next_seq_;
  const auto [it, inserted] = map_.insert_or_assign(key, std::move(entry));
  result.replaced = !inserted;
  fifo_.emplace_back(key, it->second.insert_seq);

  while (map_.size() > capacity_) {
    require(!fifo_.empty(), "RouteCache: FIFO lost track of a resident entry");
    auto [victim, seq] = std::move(fifo_.front());
    fifo_.pop_front();
    const auto vit = map_.find(victim);
    // Skip stale records: the key was refreshed after this record was
    // queued (its live seq is newer) or already evicted.
    if (vit == map_.end() || vit->second.insert_seq != seq) continue;
    map_.erase(vit);
    ++result.evicted;
  }
  // Stale records would only be skipped on pop: drop them once the queue
  // passes twice the live entries, so a refreshed working set below
  // capacity cannot grow it without bound. Live records keep their order.
  if (fifo_.size() > 2 * map_.size()) {
    std::erase_if(fifo_, [this](const auto& record) {
      const auto it = map_.find(record.first);
      return it == map_.end() || it->second.insert_seq != record.second;
    });
  }
  return result;
}

std::size_t RouteCache::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fifo_.size();
}

}  // namespace hfc::serve

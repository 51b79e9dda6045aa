// The exact-tie block lattice shared by the CSP suites: proxies on an
// integer lattice, 3 x 3 blocks of unit spacing, the blocks 10 apart on a
// 4 x 4 grid, so every adjacent block pair's closest pair is exactly 8
// long and many CSPs tie at exactly equal cost. Services repeat in a
// pattern shared by every block. Under the L1 distance, paths through
// different numbers of blocks tie as well.
#pragma once

#include <vector>

#include "coords/point.h"
#include "services/workload.h"
#include "util/ids.h"

namespace hfc {

struct BlockLattice {
  std::vector<Point> coords;
  ServicePlacement placement;
  WorkloadParams workload;  ///< requests over the lattice's services
};

inline BlockLattice block_lattice() {
  BlockLattice lattice;
  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 4; ++bx) {
      for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 3; ++x) {
          lattice.coords.push_back({10.0 * bx + x, 10.0 * by + y});
          lattice.placement.push_back({ServiceId((x + y) % 3)});
          if ((bx + by) % 2 == 0 && x == y) {
            lattice.placement.back().push_back(ServiceId(3));
          }
        }
      }
    }
  }
  WorkloadParams& params = lattice.workload;
  params.catalog_size = 4;
  params.services_per_proxy_min = 1;
  params.services_per_proxy_max = 2;
  params.request_length_min = 2;
  params.request_length_max = 4;
  params.nonlinear_fraction = 0.5;
  return lattice;
}

}  // namespace hfc

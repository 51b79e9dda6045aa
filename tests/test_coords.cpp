// Tests for src/coords: Nelder-Mead minimisation and the GNP coordinate
// pipeline.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "coords/gnp.h"
#include "distance/latency_oracle.h"
#include "topology/shortest_paths.h"
#include "coords/nelder_mead.h"
#include "coords/point.h"
#include "coords/point_set.h"
#include "topology/transit_stub.h"
#include "topology/overlay_placement.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

TEST(Point, Euclidean) {
  EXPECT_DOUBLE_EQ(euclidean(Point{0.0, 0.0}, Point{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(euclidean(Point{1.0}, Point{1.0}), 0.0);
  EXPECT_THROW((void)euclidean(Point{1.0}, Point{1.0, 2.0}),
               std::invalid_argument);
}

/// euclidean() as it was written over two Points, before the span
/// kernel: the reference the kernel must reproduce bit for bit.
double per_point_euclidean(const Point& a, const Point& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

TEST(Point, EuclideanRowsBitEqual) {
  // Coordinates from the awkward corners of IEEE arithmetic: signed
  // zeros, subnormals, values whose squares overflow or underflow, and
  // ordinary magnitudes, mixed per axis.
  const double min_sub = std::numeric_limits<double>::denorm_min();
  const double min_norm = std::numeric_limits<double>::min();
  const std::vector<double> specials{
      0.0,     -0.0,      min_sub,   -min_sub, 3 * min_sub, min_norm / 2,
      min_norm, -min_norm, 1e-300,   -1e-300,  1e-160,      1e300,
      -1e300,  1.7e308,   1e154,    0.1,      -2.5,        1234.5678};
  Rng rng(77);
  const auto draw = [&] {
    return rng.chance(0.5)
               ? specials[rng.pick_index(specials.size())]
               : rng.uniform_real(-1.0, 1.0) *
                     std::pow(10.0, rng.uniform_real(-310.0, 308.0));
  };
  for (std::size_t dim = 1; dim <= 8; ++dim) {
    std::vector<Point> points;
    for (std::size_t i = 0; i < 64; ++i) {
      Point p(dim);
      for (double& c : p) c = draw();
      points.push_back(std::move(p));
    }
    const PointSet rows(points);
    ASSERT_EQ(rows.dim(), dim);
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = 0; j < points.size(); ++j) {
        const double want = per_point_euclidean(points[i], points[j]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(euclidean(rows[i], rows[j])),
                  std::bit_cast<std::uint64_t>(want))
            << "dim " << dim << " rows " << i << ", " << j;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(euclidean(points[i], rows[j])),
                  std::bit_cast<std::uint64_t>(want));
      }
    }
  }
  EXPECT_THROW((void)euclidean(PointSet{{1.0, 2.0}}[0], Point{1.0}),
               std::invalid_argument);
}

TEST(NelderMead, QuadraticBowl) {
  const Objective f = [](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const NelderMeadResult r = nelder_mead(f, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.argmin[0], 3.0, 1e-3);
  EXPECT_NEAR(r.argmin[1], -2.0, 1e-3);
  EXPECT_NEAR(r.value, 0.0, 1e-6);
}

TEST(NelderMead, Rosenbrock) {
  const Objective f = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadParams params;
  params.max_iterations = 20000;
  params.tolerance = 1e-14;
  const NelderMeadResult r = nelder_mead(f, {-1.2, 1.0}, params);
  EXPECT_NEAR(r.argmin[0], 1.0, 1e-2);
  EXPECT_NEAR(r.argmin[1], 1.0, 1e-2);
}

TEST(NelderMead, OneDimension) {
  const Objective f = [](const std::vector<double>& x) {
    return std::cosh(x[0] - 0.5);
  };
  const NelderMeadResult r = nelder_mead(f, {4.0});
  EXPECT_NEAR(r.argmin[0], 0.5, 1e-3);
}

TEST(NelderMead, RejectsEmptyStart) {
  const Objective f = [](const std::vector<double>&) { return 0.0; };
  EXPECT_THROW((void)nelder_mead(f, {}), std::invalid_argument);
}

TEST(NelderMead, MultistartEscapesLocalMinimum) {
  // f has a local minimum near x=4 (value ~1) and the global one at x=-3
  // (value 0); a start at the midpoint slides into the local basin.
  const Objective f = [](const std::vector<double>& v) {
    const double x = v[0];
    const double g = (x + 3.0) * (x + 3.0) / 10.0;
    const double l = (x - 4.0) * (x - 4.0) + 1.0;
    return std::min(g, l);
  };
  Rng rng(5);
  const NelderMeadResult multi =
      nelder_mead_multistart(f, 1, -10.0, 10.0, 20, rng);
  EXPECT_NEAR(multi.argmin[0], -3.0, 0.1);
}

/// Random points in a box, exact pairwise distances.
std::vector<Point> random_points(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<Point> pts(n, Point(dim, 0.0));
  for (auto& p : pts) {
    for (double& c : p) c = rng.uniform_real(0.0, 100.0);
  }
  return pts;
}

SymMatrix<double> exact_distances(const std::vector<Point>& pts) {
  SymMatrix<double> d(pts.size(), 0.0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      d.at(i, j) = euclidean(pts[i], pts[j]);
    }
  }
  return d;
}

TEST(Gnp, LandmarkEmbeddingRecoversGeometry) {
  Rng rng(7);
  const std::vector<Point> truth = random_points(8, 2, rng);
  const SymMatrix<double> delays = exact_distances(truth);
  GnpParams params;
  Rng embed_rng(8);
  const CoordinateSystem system = embed_landmarks(delays, params, embed_rng);
  ASSERT_EQ(system.landmark_coords.size(), 8u);
  // Distances (rotation/translation-invariant) should be recovered well.
  const EmbeddingQuality q =
      evaluate_embedding(system.landmark_coords, delays);
  EXPECT_LT(q.median_rel_error, 0.05);
}

TEST(Gnp, SolveHostLocatesNewPoint) {
  Rng rng(9);
  const std::vector<Point> landmarks = random_points(8, 2, rng);
  CoordinateSystem system;
  system.dimensions = 2;
  system.landmark_coords = landmarks;
  const Point host{37.0, 59.0};
  std::vector<double> delays;
  for (const Point& l : landmarks) delays.push_back(euclidean(host, l));
  GnpParams params;
  Rng solve_rng(10);
  const Point solved = solve_host(system, delays, params, solve_rng);
  EXPECT_NEAR(euclidean(solved, host), 0.0, 1.0);
}

TEST(Gnp, SolveHostValidatesInput) {
  CoordinateSystem system;
  system.dimensions = 2;
  system.landmark_coords = {{0.0, 0.0}, {1.0, 1.0}};
  GnpParams params;
  Rng rng(1);
  EXPECT_THROW((void)solve_host(system, {1.0}, params, rng),
               std::invalid_argument);
}

TEST(Gnp, FullPipelineOnUnderlay) {
  Rng rng(11);
  const TransitStubTopology topo =
      generate_transit_stub(TransitStubParams::for_total_routers(300), rng);
  PlacementParams pp;
  pp.proxies = 60;
  pp.landmarks = 8;
  pp.clients = 0;
  Rng prng(12);
  const OverlayPlacement placement = place_overlay(topo, pp, prng);
  std::vector<RouterId> endpoints = placement.landmark_routers;
  endpoints.insert(endpoints.end(), placement.proxy_routers.begin(),
                   placement.proxy_routers.end());
  LatencyOracle oracle(topo.network, endpoints, 0.0, Rng(13));
  GnpParams params;
  Rng grng(14);
  const DistanceMap map = build_distance_map(oracle, 8, params, grng);
  ASSERT_EQ(map.proxy_coords.size(), 60u);

  // Measurement budget: exactly O(m^2 + nm) probes.
  const std::size_t expected =
      (8 * 7 / 2 + 60 * 8) * params.probes_per_measurement;
  EXPECT_EQ(map.probes_used, expected);

  // Estimated distances should correlate with truth (generous bound: 2-d
  // embeddings of transit-stub delays are approximate, not exact).
  const SymMatrix<double> truth =
      pairwise_delays(topo.network, placement.proxy_routers);
  const EmbeddingQuality q = evaluate_embedding(map.proxy_coords, truth);
  EXPECT_LT(q.median_rel_error, 0.5);
}

TEST(Gnp, EvaluateEmbeddingPerfectCase) {
  Rng rng(15);
  const std::vector<Point> pts = random_points(10, 3, rng);
  const EmbeddingQuality q = evaluate_embedding(pts, exact_distances(pts));
  EXPECT_NEAR(q.mean_rel_error, 0.0, 1e-12);
  EXPECT_NEAR(q.p90_rel_error, 0.0, 1e-12);
}

TEST(Gnp, RequiresTwoLandmarks) {
  SymMatrix<double> one(1, 0.0);
  GnpParams params;
  Rng rng(1);
  EXPECT_THROW((void)embed_landmarks(one, params, rng),
               std::invalid_argument);
}

TEST(Gnp, ParallelPipelineMatchesSerial) {
  // The full distance-map pipeline — noisy measurements included — must be
  // bit-identical under the serial fallback (HFC_THREADS=1 equivalent) and
  // a 4-thread pool: per-proxy solves draw from Rng::split(p) streams and
  // the oracle's noise is counter-based, so thread scheduling is invisible.
  Rng rng(21);
  const TransitStubTopology topo =
      generate_transit_stub(TransitStubParams::for_total_routers(300), rng);
  PlacementParams pp;
  pp.proxies = 40;
  pp.landmarks = 8;
  pp.clients = 0;
  Rng prng(22);
  const OverlayPlacement placement = place_overlay(topo, pp, prng);
  std::vector<RouterId> endpoints = placement.landmark_routers;
  endpoints.insert(endpoints.end(), placement.proxy_routers.begin(),
                   placement.proxy_routers.end());
  GnpParams params;

  const auto run = [&] {
    LatencyOracle oracle(topo.network, endpoints, 0.3, Rng(23));
    Rng grng(24);
    return build_distance_map(oracle, 8, params, grng);
  };
  set_global_threads(1);
  const DistanceMap serial = run();
  set_global_threads(4);
  const DistanceMap parallel = run();
  set_global_threads(0);

  EXPECT_EQ(serial.system.landmark_coords, parallel.system.landmark_coords);
  EXPECT_EQ(serial.proxy_coords, parallel.proxy_coords);  // bit-identical
  EXPECT_EQ(serial.probes_used, parallel.probes_used);
}

TEST(Gnp, HigherDimensionEmbedsBetter) {
  // 3-d ground truth embedded into 1-d vs 3-d: more dimensions must not be
  // worse (paper §6.1 raises the dimension question; ablation A2 sweeps it).
  Rng rng(16);
  const std::vector<Point> truth = random_points(10, 3, rng);
  const SymMatrix<double> delays = exact_distances(truth);
  GnpParams low;
  low.dimensions = 1;
  GnpParams high;
  high.dimensions = 3;
  high.landmark_restarts = 12;
  Rng r1(17);
  Rng r2(18);
  const auto e_low =
      evaluate_embedding(embed_landmarks(delays, low, r1).landmark_coords,
                         delays);
  const auto e_high =
      evaluate_embedding(embed_landmarks(delays, high, r2).landmark_coords,
                         delays);
  EXPECT_LT(e_high.median_rel_error, e_low.median_rel_error + 1e-9);
}

}  // namespace
}  // namespace hfc

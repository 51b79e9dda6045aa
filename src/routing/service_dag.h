// Service DAG construction and shortest-path solving — the core technique
// of [11] that the paper reuses at both routing levels (§5).
//
// Service routing cannot run a shortest-path algorithm on the overlay
// graph directly: paths must visit services in dependency order
// (functionality + dependency constraints). The mapping phase removes both
// constraints by construction: the DAG has one node per (service-graph
// vertex, candidate location) pair plus a source and a sink; its edges
// follow the service graph's dependency edges, weighted with the distance
// between the chosen locations. Every source->sink path in the DAG is then
// a viable service path, and DAG-shortest-paths returns the optimal one.
//
// "Location" is deliberately abstract (an integer): at the proxy level
// locations are proxies (candidates looked up in SCT_P), at the cluster
// level they are clusters (looked up in SCT_C).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "services/service_graph.h"
#include "util/require.h"

namespace hfc {

/// Distance between two abstract locations; must be non-negative.
using LocationDistance = std::function<double(int, int)>;

/// Inputs of the mapping phase, with the distance behind a function: the
/// form the unit tests hand-write.
struct ServiceDagProblem {
  const ServiceGraph* graph = nullptr;
  /// candidates[v] = locations able to run graph vertex v. A vertex with
  /// no candidates makes the request unsatisfiable through that vertex.
  std::vector<std::vector<int>> candidates;
  int source_location = 0;
  int destination_location = 0;
  /// Distance between candidate locations (and the endpoints).
  LocationDistance distance;
};

/// One element of the solved mapping: SG vertex -> location.
struct DagAssignment {
  std::size_t sg_vertex = 0;
  int location = 0;
  friend bool operator==(const DagAssignment&, const DagAssignment&) = default;
};

struct DagSolution {
  bool found = false;
  double cost = 0.0;
  /// The chosen configuration in order, one assignment per SG vertex on
  /// the chosen source->sink path.
  std::vector<DagAssignment> assignments;
};

namespace dag_detail {

/// The best cost reaching one (SG vertex, candidate) DAG node.
struct Label {
  double cost = std::numeric_limits<double>::infinity();
  // Back-pointer: predecessor SG vertex and candidate index (or npos for
  // the virtual source).
  std::size_t prev_vertex = static_cast<std::size_t>(-1);
  std::size_t prev_candidate = static_cast<std::size_t>(-1);
};

}  // namespace dag_detail

/// Build the service DAG over `candidates` (one list per vertex of
/// `graph`) and solve it with DAG-shortest-paths (relaxation in
/// service-graph topological order) between `source` and `destination`.
/// O(sum over SG edges of |cand(u)|*|cand(v)|). `distance(a, b)` is any
/// callable pricing two locations, called inline: the router passes a
/// lambda over coordinate rows, so no call crosses a function wrapper.
template <typename Distance>
[[nodiscard]] DagSolution solve_service_dag(
    const ServiceGraph& graph, const std::vector<std::vector<int>>& candidates,
    int source, int destination, const Distance& distance) {
  require(candidates.size() == graph.size(),
          "solve_service_dag: one candidate list per SG vertex required");

  DagSolution solution;
  if (graph.empty()) {
    // Nothing to compose: the path is the direct source->destination hop.
    solution.found = true;
    solution.cost = distance(source, destination);
    return solution;
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Label = dag_detail::Label;
  std::vector<std::vector<Label>> labels(graph.size());
  for (std::size_t v = 0; v < graph.size(); ++v) {
    labels[v].resize(candidates[v].size());
  }

  // Initialise SG source vertices from the virtual source.
  for (std::size_t v : graph.sources()) {
    for (std::size_t i = 0; i < candidates[v].size(); ++i) {
      labels[v][i].cost = distance(source, candidates[v][i]);
    }
  }

  // Relax every SG edge in topological order of the service graph: the
  // service DAG's edges are exactly (u, cand_i) -> (v, cand_j) for each SG
  // edge u -> v.
  for (std::size_t u : graph.topological_order()) {
    for (std::size_t v : graph.successors(u)) {
      for (std::size_t i = 0; i < candidates[u].size(); ++i) {
        if (labels[u][i].cost == kInf) continue;
        for (std::size_t j = 0; j < candidates[v].size(); ++j) {
          const double cost =
              labels[u][i].cost + distance(candidates[u][i], candidates[v][j]);
          if (cost < labels[v][j].cost) {
            labels[v][j] = Label{cost, u, i};
          }
        }
      }
    }
  }

  // Close at the virtual sink over the SG sink vertices.
  double best = kInf;
  std::size_t best_vertex = 0;
  std::size_t best_candidate = 0;
  for (std::size_t v : graph.sinks()) {
    for (std::size_t i = 0; i < candidates[v].size(); ++i) {
      if (labels[v][i].cost == kInf) continue;
      const double cost =
          labels[v][i].cost + distance(candidates[v][i], destination);
      if (cost < best) {
        best = cost;
        best_vertex = v;
        best_candidate = i;
      }
    }
  }
  if (best == kInf) return solution;  // unsatisfiable

  solution.found = true;
  solution.cost = best;
  for (std::size_t v = best_vertex, i = best_candidate;
       v != static_cast<std::size_t>(-1);) {
    solution.assignments.push_back(DagAssignment{v, candidates[v][i]});
    const Label& label = labels[v][i];
    v = label.prev_vertex;
    i = label.prev_candidate;
  }
  std::reverse(solution.assignments.begin(), solution.assignments.end());
  return solution;
}

/// The same over a ServiceDagProblem. Throws on a null graph or distance.
[[nodiscard]] DagSolution solve_service_dag(const ServiceDagProblem& problem);

}  // namespace hfc

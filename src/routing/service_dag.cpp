#include "routing/service_dag.h"

#include "util/require.h"

namespace hfc {

DagSolution solve_service_dag(const ServiceDagProblem& problem) {
  require(problem.graph != nullptr, "solve_service_dag: null graph");
  require(static_cast<bool>(problem.distance),
          "solve_service_dag: null distance");
  return solve_service_dag(*problem.graph, problem.candidates,
                           problem.source_location,
                           problem.destination_location, problem.distance);
}

}  // namespace hfc

// The former name of HierarchicalServiceRouter, kept while bench/e2e
// names it.
#pragma once

#include "routing/hierarchical_router.h"

namespace hfc {
using MultiLevelRouter = HierarchicalServiceRouter;
}  // namespace hfc

// The former name of HfcTopology, kept while bench/e2e names it.
#pragma once

#include "overlay/hfc_topology.h"

namespace hfc {
using MultiLevelHierarchy = HfcTopology;
}  // namespace hfc

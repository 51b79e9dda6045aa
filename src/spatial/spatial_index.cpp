#include "spatial/spatial_index.h"

#include "util/env.h"

namespace hfc {

std::size_t spatial_min_n() {
  return env_size_t("HFC_SPATIAL_MIN_N", 256, 2);
}

bool spatial_enabled(std::size_t n) { return n >= spatial_min_n(); }

}  // namespace hfc

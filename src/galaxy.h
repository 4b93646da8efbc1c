#pragma once

/// Umbrella header for the galaxy library: aggregate skyline queries
/// ("From Stars to Galaxies: skyline queries on aggregate data",
/// EDBT 2013) plus the relational, skyline, spatial and SQL substrates.
/// Include this for the full public API, or the individual headers for
/// faster builds.

#include "common/geometry.h"      // IWYU pragma: export
#include "common/rng.h"           // IWYU pragma: export
#include "common/status.h"        // IWYU pragma: export
#include "common/timer.h"         // IWYU pragma: export
#include "common/zipf.h"          // IWYU pragma: export
#include "core/aggregate_skyline.h"  // IWYU pragma: export
#include "core/domination_matrix.h"  // IWYU pragma: export
#include "core/gamma.h"           // IWYU pragma: export
#include "core/group.h"           // IWYU pragma: export
#include "core/options.h"         // IWYU pragma: export
#include "datagen/distributions.h"  // IWYU pragma: export
#include "datagen/groups.h"       // IWYU pragma: export
#include "datagen/movies.h"       // IWYU pragma: export
#include "nba/nba_gen.h"          // IWYU pragma: export
#include "relation/csv.h"         // IWYU pragma: export
#include "relation/table.h"       // IWYU pragma: export
#include "skyline/skyline.h"      // IWYU pragma: export
#include "spatial/rtree.h"        // IWYU pragma: export
#include "sql/catalog.h"          // IWYU pragma: export
#include "sql/skyline_query.h"    // IWYU pragma: export


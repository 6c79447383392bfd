// Routed insertion of data items (the library-level publish operation).
//
// The experiment harnesses seed grids with oracle placement (workload/corpus.h)
// because Sec. 5.2 assumes a perfectly consistent starting state. A real system
// inserts through the structure itself: the holder stores the item, then the index
// entry is propagated to co-responsible peers using the same breadth-first routing
// as updates (an insert IS an update from version 0). Coverage is therefore
// probabilistic, governed by the same recbreadth/repetition trade-off as Sec. 5.2.

#pragma once

#include "core/config.h"
#include "core/grid.h"
#include "core/update.h"
#include "sim/online_model.h"
#include "storage/data_item.h"
#include "util/rng.h"

namespace pgrid {

/// Outcome of one routed insert.
struct InsertOutcome {
  /// Messages spent propagating the entry.
  uint64_t messages = 0;

  /// Replicas that installed the index entry.
  size_t replicas_reached = 0;
};

/// Publishes items into a grid by routing.
class InsertEngine {
 public:
  /// `online` may be null (everyone online).
  InsertEngine(Grid* grid, const OnlineModel* online, Rng* rng);

  /// Stores `item` at `holder` and installs its index entry at every replica a
  /// breadth-first propagation (parameters in `config`) reaches. FailedPrecondition
  /// if no replica could be reached (the entry is still stored at the holder; a
  /// retry can succeed under different availability).
  Result<InsertOutcome> Insert(const DataItem& item, PeerId holder,
                               const UpdateConfig& config);

 private:
  Grid* grid_;
  UpdateEngine update_;  // finds the replicas an entry is installed at

  // Cached registry instrument (owned by the grid; see docs/observability.md).
  obs::Counter* installed_;  // MessageStats kDataTransfer
};

}  // namespace pgrid

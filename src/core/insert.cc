#include "core/insert.h"

namespace pgrid {

InsertEngine::InsertEngine(Grid* grid, const OnlineModel* online, Rng* rng)
    : grid_(grid), update_(grid, online, rng) {  // update_ checks grid and rng
  installed_ = grid->metrics().GetCounter("insert.entries_installed");
}

Result<InsertOutcome> InsertEngine::Insert(const DataItem& item, PeerId holder,
                                           const UpdateConfig& config) {
  PGRID_RETURN_IF_ERROR(config.Validate());
  grid_->peer(holder).store().Upsert(item);

  IndexEntry entry;
  entry.holder = holder;
  entry.item_id = item.id;
  entry.key = item.key;
  entry.version = item.version;

  UpdateOutcome reached =
      update_.Probe(item.key, UpdateStrategy::kBreadthFirst, config);

  InsertOutcome out;
  out.messages = reached.messages;
  for (PeerId p : reached.reached) {
    if (grid_->peer(p).index().InsertOrRefresh(entry)) installed_->Increment();
    ++out.replicas_reached;
  }
  // The holder itself may be co-responsible; index locally too (free).
  if (PathsOverlap(grid_->peer(holder).path(), entry.key)) {
    grid_->peer(holder).index().InsertOrRefresh(entry);
    if (out.replicas_reached == 0) out.replicas_reached = 1;
  }
  if (out.replicas_reached == 0) {
    return Status::FailedPrecondition(
        "no replica reachable for key " + item.key.ToString() +
        "; item stored at holder only");
  }
  return out;
}

}  // namespace pgrid

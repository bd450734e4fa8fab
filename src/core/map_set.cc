#include "core/map_set.h"

#include "updates/ripple.h"

namespace crackdb {

MapSet::MapSet(const Relation& relation, const std::string& head_attr)
    : relation_(&relation),
      head_attr_(head_attr),
      snapshot_(LivePairs(relation, head_attr)),
      pending_(relation, relation.ColumnOrdinal(head_attr)),
      key_map_(BuildFromSnapshot(kKeyMapAttr)) {}

const Column* MapSet::TailColumn(const std::string& tail_attr) const {
  return tail_attr == kKeyMapAttr ? nullptr : &relation_->column(tail_attr);
}

std::unique_ptr<CrackerMap> MapSet::BuildFromSnapshot(
    const std::string& tail_attr) const {
  auto map = std::make_unique<CrackerMap>(tail_attr);
  map->store() = ResolveTails(snapshot_, TailColumn(tail_attr));
  return map;
}

bool MapSet::HasMap(const std::string& tail_attr) const {
  return maps_.count(tail_attr) != 0;
}

CrackerMap& MapSet::GetOrCreateMap(const std::string& tail_attr,
                                   bool* created) {
  auto it = maps_.find(tail_attr);
  if (it != maps_.end()) {
    if (created != nullptr) *created = false;
    return *it->second;
  }
  if (created != nullptr) *created = true;
  auto map = BuildFromSnapshot(tail_attr);
  CrackerMap& ref = *map;
  maps_.emplace(tail_attr, std::move(map));
  return ref;
}

void MapSet::DropMap(const std::string& tail_attr) { maps_.erase(tail_attr); }

void MapSet::AlignTo(CrackerMap& map, size_t target_cursor) {
  map.set_cursor(Replay(tape_, map.cursor(), target_cursor, map.store(),
                        map.index(), TailColumn(map.tail_attr())));
}

void MapSet::Align(CrackerMap& map) { AlignTo(map, tape_.size()); }

void MapSet::PullUpdates(const RangePredicate& pred) {
  pending_.Pull();
  if (pending_.pending_count() == 0) return;
  const std::vector<PendingUpdate> batch = pending_.ExtractMatching(pred);
  for (const PendingUpdate& u : batch) {
    if (u.kind == UpdateEvent::Kind::kInsert) {
      // Logged once; every map (including M_A,key) applies it during its
      // own alignment, resolving the tail value through the base columns.
      tape_.AppendInsert(u.key, u.head_value);
    } else {
      // Deletions need an aligned position: bring M_A,key to the tape end,
      // locate the key, then log position + key (Section 3.5).
      Align(*key_map_);
      const std::optional<size_t> pos =
          FindEntry(key_map_->store(), key_map_->index(), u.head_value,
                    static_cast<Value>(u.key));
      if (!pos.has_value()) continue;  // row never reached this set
      tape_.AppendDelete(*pos, u.key, u.head_value);
      Align(*key_map_);  // apply the delete we just logged
    }
  }
}

PositionRange MapSet::SidewaysSelect(CrackerMap& map,
                                     const RangePredicate& pred) {
  PullUpdates(pred);
  Align(map);
  const CrackResult result = CrackOnPredicate(map.store(), map.index(), pred);
  if (result.reorganized) {
    tape_.AppendCrack(pred);
  }
  map.set_cursor(tape_.size());
  map.RecordAccess();
  return result.area;
}

CrackerIndex::Estimate MapSet::EstimateMatches(
    const RangePredicate& pred) const {
  // Pick the most aligned map: largest cursor = smallest distance to the
  // tape end = most accurate histogram (Section 3.3).
  const CrackerMap* best = key_map_.get();
  for (const auto& [attr, map] : maps_) {
    if (best == nullptr || map->cursor() > best->cursor()) best = map.get();
  }
  if (best == nullptr || best->index().empty()) {
    CrackerIndex::Estimate est;
    est.lower_bound = 0;
    est.upper_bound = snapshot_.size();
    est.interpolated = static_cast<double>(est.upper_bound);
    return est;
  }
  return best->index().EstimateMatches(pred, best->size());
}

size_t MapSet::MapStorageTuples() const {
  size_t total = 0;
  for (const auto& [attr, map] : maps_) total += map->StorageTuples();
  return total;
}

std::vector<std::string> MapSet::MapNames() const {
  std::vector<std::string> names;
  names.reserve(maps_.size());
  for (const auto& [attr, map] : maps_) names.push_back(attr);
  return names;
}

}  // namespace crackdb

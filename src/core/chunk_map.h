#ifndef CRACKDB_CORE_CHUNK_MAP_H_
#define CRACKDB_CORE_CHUNK_MAP_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/tape.h"
#include "cracking/crack.h"
#include "cracking/cracker_index.h"
#include "storage/relation.h"
#include "updates/pending.h"

namespace crackdb {

/// Identifier of a chunk-map area: the cut bound where the area starts in
/// value space (nullopt = the first area, starting at -infinity). Area
/// starts are stable once a boundary exists, which makes them the natural
/// key joining H_A areas with the chunks materialized from them.
using AreaStart = std::optional<Bound>;

/// Cut order over area starts; nullopt sorts first.
struct AreaStartLess {
  bool operator()(const AreaStart& a, const AreaStart& b) const {
    if (!a.has_value()) return b.has_value();
    if (!b.has_value()) return false;
    return BoundLess(*a, *b);
  }
};

/// One area `w` of a chunk map H_A (paper Section 4.1). The area owns its
/// own (A value, key) store — areas are physically independent so updates
/// rippling inside one area never disturb the layouts other chunks copied.
///
/// A *fetched* area has at least one chunk materialized from it and a tape
/// logging every crack/update/sort its chunks perform; `h_cursor` is the
/// area store's own replay position in that tape (H_A lags lazily like any
/// other structure). An *unfetched* area has an empty tape and is updated
/// physically in place.
struct ChunkMapArea {
  AreaStart start;
  CrackPairs store;    // head = A values, tail = tuple keys
  CrackerIndex index;  // interior splits, kept in lockstep with `store`
  CrackerTape tape;
  size_t h_cursor = 0;
  /// Tape position past the last *update* entry. Partial alignment may
  /// stop early for cracks (they only trade performance), but chunks must
  /// replay at least this far before answering — updates change results.
  size_t min_replay_cursor = 0;
  bool fetched = false;
  int refs = 0;

  size_t size() const { return store.size(); }
};

/// The chunk map H_A of a partial map set (paper Section 4.1): provides
/// partial maps with any missing chunks, remembers which value ranges are
/// fetched, and carries each area's tape. It is the set-level authority
/// for update positions (playing the role M_A,key plays for full maps).
class ChunkMap {
 public:
  ChunkMap(const Relation& relation, const std::string& head_attr);

  ChunkMap(const ChunkMap&) = delete;
  ChunkMap& operator=(const ChunkMap&) = delete;

  const Relation& relation() const { return *relation_; }
  const std::string& head_attr() const { return head_attr_; }

  /// One area of a resolved predicate cover, annotated with which
  /// predicate edges fall strictly inside it (those require chunk-level
  /// cracking; only boundary areas can carry them).
  struct ResolvedArea {
    ChunkMapArea* area = nullptr;
    bool crack_low = false;
    bool crack_high = false;
  };

  /// Applies pending updates relevant to `pred`, then returns the
  /// consecutive areas covering `pred` in value order. Unfetched boundary
  /// areas are split at the predicate's bounds so only the relevant value
  /// range need ever be materialized; fetched areas are returned whole
  /// (they must not be re-cut, Section 4.1 "Creating Chunks") and flagged
  /// for chunk-level boundary cracking.
  std::vector<ResolvedArea> ResolveAreas(const RangePredicate& pred);

  /// Replays the area's tape onto its own (A,key) store up to the end.
  void AlignArea(ChunkMapArea& area);

  /// Marks the area fetched and bumps its reference count (a chunk is
  /// being materialized from it). The area is aligned first so the new
  /// chunk is born at the tape end.
  void FetchArea(ChunkMapArea& area);

  /// Releases one chunk reference. When the last chunk of an area is
  /// dropped the area is marked unfetched again and its tape is removed
  /// (Section 4.1): pending tape knowledge is drained into the store
  /// first, interior splits persist as retained knowledge.
  void ReleaseArea(ChunkMapArea& area);

  /// Area containing value `v` (for update routing).
  ChunkMapArea& AreaContaining(Value v);

  /// Area with exactly this start, or null.
  ChunkMapArea* AreaByStart(const AreaStart& start);

  /// All areas in value order (tests, storage reports).
  std::vector<const ChunkMapArea*> Areas() const;

  /// Self-organizing histogram over the area directory plus interior
  /// splits.
  CrackerIndex::Estimate EstimateMatches(const RangePredicate& pred) const;

  size_t total_rows() const;

  /// Pulls and applies pending updates whose head value matches `pred`
  /// (exposed so engines can sync before estimating).
  void PullUpdates(const RangePredicate& pred);

 private:
  void ApplyUpdate(const PendingUpdate& update);

  /// Splits an unfetched area at `bound`, creating a new area starting at
  /// `bound`. No-op if the bound already is an area start.
  void SplitAreaAt(ChunkMapArea& area, const Bound& bound);

  const Relation* relation_;
  std::string head_attr_;
  std::map<AreaStart, ChunkMapArea, AreaStartLess> areas_;
  PendingQueue pending_;
};

}  // namespace crackdb

#endif  // CRACKDB_CORE_CHUNK_MAP_H_

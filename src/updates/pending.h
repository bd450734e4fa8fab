#ifndef CRACKDB_UPDATES_PENDING_H_
#define CRACKDB_UPDATES_PENDING_H_

#include <vector>

#include "common/types.h"
#include "storage/relation.h"

namespace crackdb {

/// One update waiting to be merged into a cracked structure. `head_value`
/// is the organizing attribute's value for the affected row, which decides
/// whether a given query's value range makes the update "relevant" (paper
/// Section 3.5: updates are applied only when a query needs the data).
struct PendingUpdate {
  UpdateEvent::Kind kind = UpdateEvent::Kind::kInsert;
  Key key = kInvalidKey;
  Value head_value = 0;
};

/// Per-structure queue of updates not yet merged. A structure (cracker
/// column, map set, chunk map) owns one queue per organizing attribute;
/// the queue lazily pulls the suffix of the relation's update log past its
/// watermark and hands out the subset relevant to the running query.
class PendingQueue {
 public:
  /// Creates a queue whose watermark is the relation's current log version
  /// (the structure was just built from current base data).
  PendingQueue(const Relation& relation, size_t organizing_column);

  /// Ingests log entries past the watermark, resolving head values through
  /// the organizing base column.
  void Pull();

  /// Removes and returns, in arrival order, all pending updates whose head
  /// value matches `pred`. (An insert and a later delete of the same row
  /// share the head value, so they are always extracted together, keeping
  /// replay order consistent.) Call Pull() first.
  std::vector<PendingUpdate> ExtractMatching(const RangePredicate& pred);

  size_t pending_count() const { return pending_.size(); }

 private:
  const Relation* relation_;
  size_t organizing_column_;
  size_t watermark_;
  std::vector<PendingUpdate> pending_;
};

}  // namespace crackdb

#endif  // CRACKDB_UPDATES_PENDING_H_

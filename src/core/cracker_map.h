#ifndef CRACKDB_CORE_CRACKER_MAP_H_
#define CRACKDB_CORE_CRACKER_MAP_H_

#include <string>

#include "cracking/crack.h"
#include "cracking/cracker_index.h"

namespace crackdb {

/// A fully-materialized cracker map M_AB (paper Section 3.1): head holds
/// values of the set's head attribute A, tail holds values of `tail_attr`
/// B (or tuple keys for the per-set deletion map M_A,key). The map's
/// `cursor` points at the first tape entry it has not yet replayed; the
/// MapSet owns the tape and aligns the map through Replay (core/tape.h).
class CrackerMap {
 public:
  explicit CrackerMap(std::string tail_attr)
      : tail_attr_(std::move(tail_attr)) {}

  CrackerMap(const CrackerMap&) = delete;
  CrackerMap& operator=(const CrackerMap&) = delete;
  CrackerMap(CrackerMap&&) = default;
  CrackerMap& operator=(CrackerMap&&) = default;

  const std::string& tail_attr() const { return tail_attr_; }

  CrackPairs& store() { return store_; }
  const CrackPairs& store() const { return store_; }
  CrackerIndex& index() { return index_; }
  const CrackerIndex& index() const { return index_; }

  size_t cursor() const { return cursor_; }
  void set_cursor(size_t c) { cursor_ = c; }

  size_t size() const { return store_.size(); }

  /// Tuples of auxiliary storage this map occupies (one per (A,B) pair),
  /// the unit of the paper's storage-threshold experiments.
  size_t StorageTuples() const { return store_.size(); }

  /// Access statistics for the least-frequently-used map-drop policy of
  /// the storage-restricted experiments (paper Section 4.2).
  size_t accesses() const { return accesses_; }
  void RecordAccess() { ++accesses_; }

 private:
  std::string tail_attr_;
  CrackPairs store_;
  CrackerIndex index_;
  size_t cursor_ = 0;
  size_t accesses_ = 0;
};

}  // namespace crackdb

#endif  // CRACKDB_CORE_CRACKER_MAP_H_

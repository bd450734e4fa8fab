#include "storage/partitioner.h"

#include <algorithm>

#include "common/die.h"

namespace crackdb {

namespace {

/// splitmix64 finalizer: full-avalanche mixing so that dense integer
/// domains (the common case here) still spread across partitions.
uint64_t MixHash(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// True when no integer value can satisfy `pred` (values are int64, so
/// exclusive bounds normalize to closed form: the open interval (v, v+1)
/// is empty).
bool PredicateEmpty(const RangePredicate& pred) {
  Value lo = pred.low;
  if (!pred.low_inclusive) {
    if (lo == kMaxValue) return true;
    ++lo;
  }
  Value hi = pred.high;
  if (!pred.high_inclusive) {
    if (hi == kMinValue) return true;
    --hi;
  }
  return lo > hi;
}

}  // namespace

PartitionedRelation::PartitionedRelation(std::string name, PartitionSpec spec,
                                         std::vector<Relation*> partitions,
                                         size_t organizing_ordinal)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      partitions_(std::move(partitions)),
      organizing_ordinal_(organizing_ordinal),
      next_partition_id_(partitions_.size()) {
  if (partitions_.empty()) Die("partitioner", "no partitions", name_);
  mutexes_.reserve(partitions_.size());
  for (size_t i = 0; i < partitions_.size(); ++i) {
    mutexes_.push_back(std::make_unique<MutexBox>());
  }
  if (spec_.kind == PartitionSpec::Kind::kRange) {
    if (spec_.domain_lo > spec_.domain_hi) {
      Die("partitioner", "range partitioning needs domain_lo <= domain_hi",
          name_);
    }
    const size_t n = partitions_.size();
    // Even split of [lo, hi] into n slices; the first `remainder` slices
    // are one value wider. Unsigned arithmetic sidesteps signed overflow;
    // a full-int64 domain (width wraps to 0) gets equal 2^64/n slices.
    const uint64_t width_total = static_cast<uint64_t>(spec_.domain_hi) -
                                 static_cast<uint64_t>(spec_.domain_lo) + 1;
    uint64_t slice = width_total / n;
    uint64_t remainder = width_total % n;
    if (width_total == 0) {  // wrapped: 2^64 values
      slice = ~0ull / n;
      remainder = 0;
    }
    slice_starts_.resize(n);
    uint64_t start = static_cast<uint64_t>(spec_.domain_lo);
    for (size_t i = 0; i < n; ++i) {
      slice_starts_[i] = static_cast<Value>(start);
      start += slice + (i < remainder ? 1 : 0);
    }
  }
}

size_t PartitionedRelation::PartitionOf(Value organizing_value) const {
  const size_t n = partitions_.size();
  if (n == 1) return 0;
  if (spec_.kind == PartitionSpec::Kind::kHash) {
    return static_cast<size_t>(
        MixHash(static_cast<uint64_t>(organizing_value)) % n);
  }
  const Value v =
      std::clamp(organizing_value, spec_.domain_lo, spec_.domain_hi);
  size_t idx = static_cast<size_t>(
      std::upper_bound(slice_starts_.begin(), slice_starts_.end(), v) -
      slice_starts_.begin() - 1);
  // Degenerate zero-width slices (more partitions than domain values)
  // produce duplicate starts; route to the first of the run so the others
  // stay provably empty for MayContain.
  while (idx > 0 && slice_starts_[idx] == slice_starts_[idx - 1]) --idx;
  return idx;
}

bool PartitionedRelation::MayContain(size_t i,
                                     const RangePredicate& pred) const {
  if (PredicateEmpty(pred)) return false;
  const size_t n = partitions_.size();
  if (n == 1) return true;
  if (spec_.kind == PartitionSpec::Kind::kHash) {
    // Only point predicates route deterministically under hashing.
    if (pred.low == pred.high) return PartitionOf(pred.low) == i;
    return true;
  }
  // Effective cover of slice i: its [start, next_start) range, widened to
  // -inf / +inf at the edges because PartitionOf clamps out-of-domain
  // values into the edge partitions. With more partitions than domain
  // values, trailing slices start beyond domain_hi and are unreachable
  // (clamping routes everything above the domain into the slice holding
  // domain_hi), so the +inf widening belongs to that slice, not to index
  // n-1.
  if (i + 1 < n && slice_starts_[i] == slice_starts_[i + 1]) {
    return false;  // zero-width slice: provably empty
  }
  if (i > 0 && slice_starts_[i] > spec_.domain_hi) {
    return false;  // starts beyond the domain: unreachable by clamping
  }
  const bool effectively_last =
      i + 1 == n || slice_starts_[i + 1] > spec_.domain_hi;
  const Value cover_lo = i == 0 ? kMinValue : slice_starts_[i];
  const Value cover_hi =
      effectively_last ? kMaxValue : slice_starts_[i + 1] - 1;
  if (pred.high < cover_lo || (pred.high == cover_lo && !pred.high_inclusive)) {
    return false;
  }
  if (pred.low > cover_hi || (pred.low == cover_hi && !pred.low_inclusive)) {
    return false;
  }
  return true;
}

Key PartitionedRelation::Append(std::span<const Value> values) {
  return AppendTo(PartitionOf(values[organizing_ordinal_]), values);
}

Key PartitionedRelation::AppendTo(size_t target,
                                  std::span<const Value> values) {
  const Key local = partitions_[target]->AppendRow(values);
  key_map_.push_back({static_cast<uint32_t>(target), local});
  return static_cast<Key>(key_map_.size() - 1);
}

bool PartitionedRelation::Delete(Key global_key) {
  const std::optional<Location> loc = Locate(global_key);
  if (!loc.has_value()) return false;
  Relation& part = *partitions_[loc->partition];
  if (part.IsDeleted(loc->local_key)) return false;
  part.DeleteRow(loc->local_key);
  return true;
}

std::optional<PartitionedRelation::Location> PartitionedRelation::Locate(
    Key global_key) const {
  if (global_key >= key_map_.size()) return std::nullopt;
  return key_map_[global_key];
}

size_t PartitionedRelation::num_live_rows() const {
  size_t live = 0;
  for (const Relation* part : partitions_) live += part->num_live_rows();
  return live;
}

Value PartitionedRelation::SliceCoverLo(size_t i) const {
  if (spec_.kind != PartitionSpec::Kind::kRange) {
    Die("partitioner", "slice cover of a hash partition", name_);
  }
  return slice_starts_[i];
}

Value PartitionedRelation::SliceCoverHi(size_t i) const {
  if (spec_.kind != PartitionSpec::Kind::kRange) {
    Die("partitioner", "slice cover of a hash partition", name_);
  }
  if (i + 1 < slice_starts_.size() && slice_starts_[i + 1] <= spec_.domain_hi) {
    return slice_starts_[i + 1] - 1;
  }
  return spec_.domain_hi;
}

void PartitionedRelation::SpliceRange(
    size_t first, size_t removed, std::vector<Relation*> added,
    std::vector<Value> starts, const std::vector<std::vector<Location>>& remap) {
  if (spec_.kind != PartitionSpec::Kind::kRange) {
    Die("partitioner", "splice of a hash partition map", name_);
  }
  const size_t n = partitions_.size();
  if (removed == 0 || first + removed > n) {
    Die("partitioner", "splice range out of bounds", name_);
  }
  if (added.empty() || added.size() != starts.size() ||
      remap.size() != removed) {
    Die("partitioner", "splice arity mismatch", name_);
  }
  // The added slices must tile exactly the cover of the removed ones:
  // same first start, strictly increasing, all reachable (<= domain_hi),
  // ending strictly before the next surviving slice.
  if (starts.front() != slice_starts_[first]) {
    Die("partitioner", "splice start moved", name_);
  }
  for (size_t j = 1; j < starts.size(); ++j) {
    if (starts[j] <= starts[j - 1]) {
      Die("partitioner", "splice starts not increasing", name_);
    }
  }
  if (starts.back() > spec_.domain_hi) {
    Die("partitioner", "splice start beyond domain", name_);
  }
  if (first + removed < n && starts.back() >= slice_starts_[first + removed]) {
    Die("partitioner", "splice overruns the next slice", name_);
  }
  for (size_t j = 0; j < removed; ++j) {
    if (remap[j].size() != partitions_[first + j]->num_rows()) {
      Die("partitioner", "splice remap does not cover the replaced partition",
          name_);
    }
  }

  // Rewrite the global-key router: replaced partitions map through
  // `remap`, later partitions shift by the size delta.
  const auto shift = static_cast<int64_t>(added.size()) -
                     static_cast<int64_t>(removed);
  for (Location& loc : key_map_) {
    if (loc.partition < first) continue;
    if (loc.partition < first + removed) {
      const Location& to = remap[loc.partition - first][loc.local_key];
      loc.partition = static_cast<uint32_t>(first + to.partition);
      loc.local_key = to.local_key;
    } else {
      loc.partition =
          static_cast<uint32_t>(static_cast<int64_t>(loc.partition) + shift);
    }
  }

  const auto begin = static_cast<std::ptrdiff_t>(first);
  const auto end = static_cast<std::ptrdiff_t>(first + removed);
  partitions_.erase(partitions_.begin() + begin, partitions_.begin() + end);
  partitions_.insert(partitions_.begin() + begin, added.begin(), added.end());
  slice_starts_.erase(slice_starts_.begin() + begin,
                      slice_starts_.begin() + end);
  slice_starts_.insert(slice_starts_.begin() + begin, starts.begin(),
                       starts.end());
  // Fresh mutexes for the new shards: with the map gate held exclusively
  // nobody holds or waits on the replaced ones.
  mutexes_.erase(mutexes_.begin() + begin, mutexes_.begin() + end);
  for (size_t j = 0; j < added.size(); ++j) {
    mutexes_.insert(mutexes_.begin() + begin + static_cast<std::ptrdiff_t>(j),
                    std::make_unique<MutexBox>());
  }
  spec_.num_partitions = partitions_.size();
}

std::string Partitioner::Validate(const Catalog& catalog,
                                  const Relation& source,
                                  const PartitionSpec& spec) {
  if (spec.num_partitions == 0) return "num_partitions must be >= 1";
  if (!source.HasColumn(spec.column)) {
    return "unknown organizing column '" + spec.column + "' in relation '" +
           source.name() + "'";
  }
  if (spec.kind == PartitionSpec::Kind::kRange &&
      spec.domain_lo > spec.domain_hi) {
    return "range partitioning needs domain_lo <= domain_hi";
  }
  for (size_t i = 0; i < spec.num_partitions; ++i) {
    const std::string name = source.name() + "#p" + std::to_string(i);
    if (catalog.HasRelation(name)) {
      return "partition relation '" + name + "' already exists";
    }
  }
  return "";
}

PartitionedRelation Partitioner::Partition(Catalog* catalog,
                                           const Relation& source,
                                           const PartitionSpec& spec) {
  const std::string invalid = Validate(*catalog, source, spec);
  if (!invalid.empty()) Die("partitioner", "invalid partitioning", invalid);
  const size_t organizing = source.ColumnOrdinal(spec.column);

  std::vector<Relation*> partitions;
  partitions.reserve(spec.num_partitions);
  for (size_t i = 0; i < spec.num_partitions; ++i) {
    Relation& part = catalog->CreateRelation(source.name() + "#p" +
                                             std::to_string(i));
    for (const std::string& column : source.column_names()) {
      part.AddColumn(column);
    }
    partitions.push_back(&part);
  }

  PartitionedRelation result(source.name(), spec, std::move(partitions),
                             organizing);

  const size_t num_columns = source.num_columns();
  std::vector<Value> row(num_columns);
  for (size_t key = 0; key < source.num_rows(); ++key) {
    for (size_t c = 0; c < num_columns; ++c) row[c] = source.column(c)[key];
    const size_t target = result.PartitionOf(row[organizing]);
    Relation& part = *result.partitions_[target];
    const Key local = part.BulkLoadRow(row);
    result.key_map_.push_back(
        {static_cast<uint32_t>(target), local});
    // Replicate tombstones so global key k answers exactly like source key
    // k. The logged delete event is harmless: engines are built later and
    // start their pending-update watermarks at the then-current log
    // version.
    if (source.IsDeleted(static_cast<Key>(key))) part.DeleteRow(local);
  }
  return result;
}

}  // namespace crackdb

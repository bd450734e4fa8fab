#include "adaptive/workload_histogram.h"

#include <algorithm>

namespace crackdb {

WorkloadHistogram::WorkloadHistogram(size_t num_partitions) {
  Reset(num_partitions);
}

void WorkloadHistogram::RecordAccess(size_t p, size_t sub_queries) {
  if (p >= cells_.size()) return;
  cells_[p]->accesses.fetch_add(sub_queries, std::memory_order_relaxed);
}

void WorkloadHistogram::RecordBoundary(size_t p, Value boundary) {
  if (p >= cells_.size()) return;
  Cell& cell = *cells_[p];
  std::lock_guard<std::mutex> lock(cell.sketch_mu);
  if (cell.ring.size() < kSketchCapacity) {
    cell.ring.push_back(boundary);
  } else {
    cell.ring[cell.ring_next] = boundary;
  }
  cell.ring_next = (cell.ring_next + 1) % kSketchCapacity;
}

WorkloadHistogram::Snapshot WorkloadHistogram::Snap(
    bool with_boundaries) const {
  Snapshot snap;
  snap.partitions.resize(cells_.size());
  for (size_t p = 0; p < cells_.size(); ++p) {
    Cell& cell = *cells_[p];
    PartitionSnapshot& out = snap.partitions[p];
    out.accesses = cell.accesses.load(std::memory_order_relaxed);
    if (with_boundaries) {
      std::lock_guard<std::mutex> lock(cell.sketch_mu);
      out.boundaries = cell.ring;
    }
    snap.total_accesses += out.accesses;
  }
  return snap;
}

void WorkloadHistogram::Decay(double factor) {
  factor = std::clamp(factor, 0.0, 1.0);
  for (const auto& cell : cells_) {
    // Load-scale-store is approximate under concurrent recorders; the
    // policy only needs shares, not exact counts.
    const uint64_t a = cell->accesses.load(std::memory_order_relaxed);
    cell->accesses.store(static_cast<uint64_t>(static_cast<double>(a) * factor),
                         std::memory_order_relaxed);
  }
}

void WorkloadHistogram::Reset(size_t num_partitions) {
  cells_.clear();
  cells_.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    cells_.push_back(std::make_unique<Cell>());
    cells_.back()->ring.reserve(kSketchCapacity);
  }
}

}  // namespace crackdb

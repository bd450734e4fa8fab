#include "updates/pending.h"

namespace crackdb {

PendingQueue::PendingQueue(const Relation& relation, size_t organizing_column)
    : relation_(&relation),
      organizing_column_(organizing_column),
      watermark_(relation.log_version()) {}

void PendingQueue::Pull() {
  const size_t version = relation_->log_version();
  const Column& organizing = relation_->column(organizing_column_);
  for (; watermark_ < version; ++watermark_) {
    const UpdateEvent& ev = relation_->log_entry(watermark_);
    pending_.push_back({ev.kind, ev.key, organizing[ev.key]});
  }
}

std::vector<PendingUpdate> PendingQueue::ExtractMatching(
    const RangePredicate& pred) {
  // Stable in-place partition: kept updates compact to the front in order,
  // so only the extracted ones allocate.
  std::vector<PendingUpdate> extracted;
  size_t kept = 0;
  for (const PendingUpdate& u : pending_) {
    if (pred.Matches(u.head_value)) {
      extracted.push_back(u);
    } else {
      pending_[kept++] = u;
    }
  }
  pending_.resize(kept);
  return extracted;
}

}  // namespace crackdb

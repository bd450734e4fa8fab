#include "cracking/cracker_column.h"

#include "updates/ripple.h"

namespace crackdb {

CrackerColumn::CrackerColumn(const Relation& relation, const std::string& attr)
    : relation_(&relation),
      attr_(attr),
      store_(LivePairs(relation, attr)),
      pending_(relation, relation.ColumnOrdinal(attr)) {}

void CrackerColumn::MergePending(const RangePredicate& pred) {
  pending_.Pull();
  if (pending_.pending_count() == 0) return;
  for (const PendingUpdate& u : pending_.ExtractMatching(pred)) {
    MergeUpdate(store_, index_, u);
  }
}

PositionRange CrackerColumn::Select(const RangePredicate& pred) {
  MergePending(pred);
  return CrackOnPredicate(store_, index_, pred).area;
}

std::span<const Value> CrackerColumn::SelectKeys(const RangePredicate& pred) {
  const PositionRange area = Select(pred);
  return {store_.tail.data() + area.begin, area.size()};
}

}  // namespace crackdb

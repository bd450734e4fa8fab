#ifndef CRACKDB_ENGINE_SELECTION_CRACKING_ENGINE_H_
#define CRACKDB_ENGINE_SELECTION_CRACKING_ENGINE_H_

#include <map>
#include <memory>
#include <string>

#include "cracking/cracker_column.h"
#include "engine/engine.h"
#include "storage/relation.h"

namespace crackdb {

/// Selection cracking of [7] (paper Section 2.2): one cracker column per
/// selection attribute. Selections get continuously cheaper as cracking
/// refines the columns, but the returned keys are in cracked — not
/// insertion — order, so every tuple reconstruction degenerates into
/// randomly-ordered positional lookups on the base columns. This is the
/// baseline whose reconstruction cost sideways cracking eliminates
/// (Figures 4, 5).
class SelectionCrackingEngine : public Engine {
 public:
  explicit SelectionCrackingEngine(const Relation& relation)
      : relation_(&relation) {}

  std::string name() const override { return "selection-cracking"; }

  std::unique_ptr<SelectionHandle> Select(const QuerySpec& spec) override;

  /// The cracker column of `attr`, creating it if missing (tests).
  CrackerColumn& GetOrCreate(const std::string& attr);

 private:
  const Relation* relation_;
  std::map<std::string, std::unique_ptr<CrackerColumn>> columns_;
};

}  // namespace crackdb

#endif  // CRACKDB_ENGINE_SELECTION_CRACKING_ENGINE_H_

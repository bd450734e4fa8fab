#ifndef CRACKDB_TPCH_QUERIES_H_
#define CRACKDB_TPCH_QUERIES_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "tpch/generator.h"

namespace crackdb::tpch {

/// One engine instance per relation for one system type (plain, presorted,
/// selection cracking, sideways, row-store...). Engines persist across the
/// 30-query parameter sequences, which is what lets the self-organizing
/// systems learn (paper Section 5).
class EngineSet {
 public:
  using Factory =
      std::function<std::unique_ptr<Engine>(const Relation& relation)>;

  EngineSet(TpchDatabase& db, std::string name, Factory factory)
      : db_(&db), name_(std::move(name)), factory_(std::move(factory)) {}

  Engine& For(const std::string& relation_name);

  const std::string& name() const { return name_; }

  /// Total one-off preparation cost (presorting copies) accumulated across
  /// the set's engines; the paper reports this separately from query time.
  double TotalPrepareMicros() const;

 private:
  TpchDatabase* db_;
  std::string name_;
  Factory factory_;
  std::unordered_map<std::string, std::unique_ptr<Engine>> engines_;
};

/// Materialized result rows (aggregates decoded as raw Values; dictionary
/// codes are kept as codes so results compare across engines).
using TpchResult = std::vector<std::vector<Value>>;

/// Parameter bag shared by all queries; Randomize* fills the fields each
/// query uses (TPC-H's substitution-parameter rules, simplified).
struct QueryParams {
  Value date1 = 0;
  Value date2 = 0;
  Value code1 = 0;
  Value code2 = 0;
  Value code3 = 0;
  Value int1 = 0;
  Value int2 = 0;
  Value int3 = 0;
};

struct TpchQueryDef {
  int number;
  std::string name;
  std::function<TpchResult(TpchDatabase&, EngineSet&, const QueryParams&)> run;
  std::function<QueryParams(TpchDatabase&, Rng&)> randomize;
};

/// The twelve queries the paper evaluates (at least one selection on a
/// non-string attribute): 1, 3, 4, 6, 7, 8, 10, 12, 14, 15, 19, 20.
const std::vector<TpchQueryDef>& AllQueries();

}  // namespace crackdb::tpch

#endif  // CRACKDB_TPCH_QUERIES_H_

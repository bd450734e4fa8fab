#ifndef CRACKDB_BENCH_BENCH_COMMON_H_
#define CRACKDB_BENCH_BENCH_COMMON_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/workload.h"
#include "engine/engine.h"
#include "engine/engine_factory.h"
#include "engine/query.h"

namespace crackdb::bench {

/// The one shared spec-assembly helper: the select-project shape every
/// bench used to hand-roll as a `QuerySpec` literal, funneled through the
/// fluent QueryBuilder so predicates are validated at build time (an
/// inverted range dies with a message here instead of asserting deep
/// inside an engine mid-sweep).
inline QuerySpec SelectProject(
    std::initializer_list<QuerySpec::Selection> selections,
    std::vector<std::string> projections) {
  QueryBuilder builder;
  for (const QuerySpec::Selection& sel : selections) {
    builder.Where(sel.attr, sel.pred);
  }
  builder.Project(std::move(projections));
  return builder.Spec();
}

}  // namespace crackdb::bench

#endif  // CRACKDB_BENCH_BENCH_COMMON_H_

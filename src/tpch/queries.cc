#include "tpch/queries.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "engine/operators.h"
#include "engine/query.h"

namespace crackdb::tpch {

Engine& EngineSet::For(const std::string& relation_name) {
  auto it = engines_.find(relation_name);
  if (it == engines_.end()) {
    it = engines_
             .emplace(relation_name,
                      factory_(db_->relation(relation_name)))
             .first;
  }
  return *it->second;
}

double EngineSet::TotalPrepareMicros() const {
  double total = 0;
  for (const auto& [name, engine] : engines_) {
    total += engine->cost().prepare_micros;
  }
  return total;
}

namespace {

using Col = std::vector<Value>;

RangePredicate Le(Value v) { return {kMinValue, v, true, true}; }
RangePredicate Lt(Value v) { return {kMinValue, v, true, false}; }
[[maybe_unused]] RangePredicate Ge(Value v) {
  return {v, kMaxValue, true, true};
}
RangePredicate Gt(Value v) { return {v, kMaxValue, false, true}; }
RangePredicate Between(Value lo, Value hi) { return {lo, hi, true, true}; }
RangePredicate Point(Value v) { return RangePredicate::Point(v); }

Col Gather(std::span<const Value> values, std::span<const uint32_t> ordinals) {
  Col out;
  out.reserve(ordinals.size());
  for (uint32_t o : ordinals) out.push_back(values[o]);
  return out;
}

/// A fetched column that is a zero-copy view when the engine supports it
/// (sideways maps, presorted copies) and owns materialized storage
/// otherwise — the handle-level realization of the paper's
/// non-materialized result views.
struct ViewCol {
  std::vector<Value> storage;
  std::span<const Value> view;

  ViewCol(SelectionHandle* handle, const std::string& attr) {
    view = handle->FetchView(attr, &storage);
  }
  Value operator[](size_t i) const { return view[i]; }
  size_t size() const { return view.size(); }
  operator std::span<const Value>() const { return view; }  // NOLINT
};

/// disc_price = extendedprice * (100 - discount) / 100, in cents.
Value DiscPrice(Value extended, Value discount) {
  return extended * (100 - discount) / 100;
}

/// Rows sorted lexicographically (canonical result order for comparison).
void SortRowsInPlace(TpchResult* rows) {
  std::sort(rows->begin(), rows->end());
}

// ---------------------------------------------------------------------------
// Q1: pricing summary report.
// ---------------------------------------------------------------------------

TpchResult RunQ1(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  (void)db;
  QuerySpec spec;
  spec.selections = {{"l_shipdate", Le(p.date1)}};
  spec.projections = {"l_returnflag",    "l_linestatus", "l_quantity",
                      "l_extendedprice", "l_discount",   "l_tax"};
  auto handle = es.For("lineitem").Select(spec);
  const ViewCol flag(handle.get(), "l_returnflag");
  const ViewCol status(handle.get(), "l_linestatus");
  const ViewCol qty(handle.get(), "l_quantity");
  const ViewCol ext(handle.get(), "l_extendedprice");
  const ViewCol disc(handle.get(), "l_discount");
  const ViewCol tax(handle.get(), "l_tax");
  const size_t num_rows = flag.size();

  const std::vector<std::span<const Value>> keys = {flag, status};
  const Groups g = GroupBySpans(keys);
  Col disc_price(num_rows);
  Col charge(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    disc_price[i] = DiscPrice(ext[i], disc[i]);
    charge[i] = disc_price[i] * (100 + tax[i]) / 100;
  }
  const Col sum_qty = GroupedSum(g, qty);
  const Col sum_base = GroupedSum(g, ext);
  const Col sum_disc = GroupedSum(g, disc_price);
  const Col sum_charge = GroupedSum(g, charge);
  const Col counts = GroupedCount(g);

  TpchResult rows;
  for (size_t gi = 0; gi < g.num_groups(); ++gi) {
    rows.push_back({g.keys[gi][0], g.keys[gi][1], sum_qty[gi], sum_base[gi],
                    sum_disc[gi], sum_charge[gi], counts[gi]});
  }
  SortRowsInPlace(&rows);
  return rows;
}

// ---------------------------------------------------------------------------
// Q3: shipping priority.
// ---------------------------------------------------------------------------

TpchResult RunQ3(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  (void)db;
  // customer leg: segment point selection.
  QuerySpec cspec;
  cspec.selections = {{"c_mktsegment", Point(p.code1)}};
  cspec.projections = {"c_custkey"};
  const QueryResult cust = es.For("customer").Run(cspec);

  // orders leg.
  QuerySpec ospec;
  ospec.selections = {{"o_orderdate", Lt(p.date1)}};
  ospec.projections = {"o_orderkey", "o_custkey", "o_orderdate"};
  auto ho = es.For("orders").Select(ospec);
  const ViewCol o_orderkey(ho.get(), "o_orderkey");
  const ViewCol o_custkey(ho.get(), "o_custkey");

  const std::vector<uint32_t> o_keep = SemiJoin(o_custkey, cust.columns[0]);
  const Col o_orderkey_kept = Gather(o_orderkey, o_keep);

  // lineitem leg.
  QuerySpec lspec;
  lspec.selections = {{"l_shipdate", Gt(p.date1)}};
  lspec.projections = {"l_orderkey", "l_extendedprice", "l_discount"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol l_orderkey(hl.get(), "l_orderkey");

  const JoinPairs jp = HashJoin(l_orderkey, o_orderkey_kept);

  // Post-join tuple reconstructions: scattered access, the Figure 5(c)
  // pattern.
  const Col l_ext = hl->FetchAt("l_extendedprice", jp.left);
  const Col l_disc = hl->FetchAt("l_discount", jp.left);
  std::vector<uint32_t> o_ordinals;
  o_ordinals.reserve(jp.right.size());
  for (uint32_t r : jp.right) o_ordinals.push_back(o_keep[r]);
  const Col o_date = ho->FetchAt("o_orderdate", o_ordinals);
  const Col o_key = Gather(o_orderkey_kept, jp.right);

  Col revenue(jp.size());
  for (size_t i = 0; i < jp.size(); ++i) {
    revenue[i] = DiscPrice(l_ext[i], l_disc[i]);
  }
  const std::vector<Col> keys = {o_key, o_date};
  const Groups g = GroupBy(keys);
  const Col rev = GroupedSum(g, revenue);

  // top 10 by revenue desc, orderdate asc.
  Col group_rev = rev;
  Col group_date(g.num_groups());
  for (size_t i = 0; i < g.num_groups(); ++i) group_date[i] = g.keys[i][1];
  const std::vector<Col> order_cols = {group_rev, group_date};
  const std::vector<bool> asc = {false, true};
  const std::vector<uint32_t> top = TopKRows(order_cols, asc, 10);

  TpchResult rows;
  for (uint32_t t : top) {
    rows.push_back({g.keys[t][0], rev[t], g.keys[t][1]});
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Q4: order priority checking.
// ---------------------------------------------------------------------------

TpchResult RunQ4(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  (void)db;
  QuerySpec ospec;
  ospec.selections = {{"o_orderdate", {p.date1, p.date2, true, false}}};
  ospec.projections = {"o_orderkey", "o_orderpriority"};
  const QueryResult orders = es.For("orders").Run(ospec);

  // Late lineitems: commitdate < receiptdate (a column-column comparison —
  // full positional scan of both date columns, identical work for every
  // engine).
  QuerySpec lspec;
  lspec.projections = {"l_orderkey", "l_commitdate", "l_receiptdate"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol l_orderkey(hl.get(), "l_orderkey");
  const ViewCol l_commit(hl.get(), "l_commitdate");
  const ViewCol l_receipt(hl.get(), "l_receiptdate");
  Col late_orderkeys;
  for (size_t i = 0; i < l_orderkey.size(); ++i) {
    if (l_commit[i] < l_receipt[i]) {
      late_orderkeys.push_back(l_orderkey[i]);
    }
  }

  const std::vector<uint32_t> keep = SemiJoin(orders.columns[0],
                                              late_orderkeys);
  const Col priorities = Gather(orders.columns[1], keep);
  const std::vector<Col> keys = {priorities};
  const Groups g = GroupBy(keys);
  const Col counts = GroupedCount(g);
  TpchResult rows;
  for (size_t i = 0; i < g.num_groups(); ++i) {
    rows.push_back({g.keys[i][0], counts[i]});
  }
  SortRowsInPlace(&rows);
  return rows;
}

// ---------------------------------------------------------------------------
// Q6: forecasting revenue change.
// ---------------------------------------------------------------------------

TpchResult RunQ6(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  (void)db;
  QuerySpec spec;
  spec.selections = {
      {"l_shipdate", {p.date1, p.date2, true, false}},
      {"l_discount", Between(p.int1 - 1, p.int1 + 1)},
      {"l_quantity", Lt(p.int2)},
  };
  spec.projections = {"l_extendedprice", "l_discount"};
  auto handle = es.For("lineitem").Select(spec);
  const ViewCol ext(handle.get(), "l_extendedprice");
  const ViewCol disc(handle.get(), "l_discount");
  Value revenue = 0;
  for (size_t i = 0; i < ext.size(); ++i) {
    revenue += ext[i] * disc[i] / 100;
  }
  return {{revenue}};
}

// ---------------------------------------------------------------------------
// Q7: volume shipping between two nations.
// ---------------------------------------------------------------------------

TpchResult RunQ7(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  (void)db;
  const Value nation1 = p.code1;
  const Value nation2 = p.code2;

  // Dimension legs (tiny): full fetches, filtered in the plan.
  QuerySpec sspec;
  sspec.projections = {"s_suppkey", "s_nationkey"};
  const QueryResult supp = es.For("supplier").Run(sspec);
  std::unordered_map<Value, Value> supp_nation;
  for (size_t i = 0; i < supp.num_rows; ++i) {
    const Value nk = supp.columns[1][i];
    if (nk == nation1 || nk == nation2) {
      supp_nation[supp.columns[0][i]] = nk;
    }
  }

  QuerySpec cspec;
  cspec.projections = {"c_custkey", "c_nationkey"};
  const QueryResult cust = es.For("customer").Run(cspec);
  std::unordered_map<Value, Value> cust_nation;
  for (size_t i = 0; i < cust.num_rows; ++i) {
    const Value nk = cust.columns[1][i];
    if (nk == nation1 || nk == nation2) {
      cust_nation[cust.columns[0][i]] = nk;
    }
  }

  QuerySpec ospec;
  ospec.projections = {"o_orderkey", "o_custkey"};
  const QueryResult orders = es.For("orders").Run(ospec);
  std::unordered_map<Value, Value> order_cust_nation;
  order_cust_nation.reserve(orders.num_rows / 4);
  for (size_t i = 0; i < orders.num_rows; ++i) {
    auto it = cust_nation.find(orders.columns[1][i]);
    if (it != cust_nation.end()) {
      order_cust_nation[orders.columns[0][i]] = it->second;
    }
  }

  // Fact leg: shipdate range selection drives the cracking.
  QuerySpec lspec;
  lspec.selections = {{"l_shipdate", Between(p.date1, p.date2)}};
  lspec.projections = {"l_suppkey", "l_orderkey", "l_extendedprice",
                       "l_discount", "l_shipdate"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol l_suppkey(hl.get(), "l_suppkey");
  const ViewCol l_orderkey(hl.get(), "l_orderkey");

  std::vector<uint32_t> match;
  Col supp_nations;
  Col cust_nations;
  for (uint32_t i = 0; i < l_suppkey.size(); ++i) {
    auto sit = supp_nation.find(l_suppkey[i]);
    if (sit == supp_nation.end()) continue;
    auto oit = order_cust_nation.find(l_orderkey[i]);
    if (oit == order_cust_nation.end()) continue;
    // cross-nation pairs only
    if (sit->second == oit->second) continue;
    match.push_back(i);
    supp_nations.push_back(sit->second);
    cust_nations.push_back(oit->second);
  }
  const Col l_ext = hl->FetchAt("l_extendedprice", match);
  const Col l_disc = hl->FetchAt("l_discount", match);
  const Col l_ship = hl->FetchAt("l_shipdate", match);

  Col years(match.size());
  Col volume(match.size());
  for (size_t i = 0; i < match.size(); ++i) {
    int y, m, d;
    DaysToDate(l_ship[i], &y, &m, &d);
    years[i] = y;
    volume[i] = DiscPrice(l_ext[i], l_disc[i]);
  }
  const std::vector<Col> keys = {supp_nations, cust_nations, years};
  const Groups g = GroupBy(keys);
  const Col rev = GroupedSum(g, volume);
  TpchResult rows;
  for (size_t i = 0; i < g.num_groups(); ++i) {
    rows.push_back({g.keys[i][0], g.keys[i][1], g.keys[i][2], rev[i]});
  }
  SortRowsInPlace(&rows);
  return rows;
}

// ---------------------------------------------------------------------------
// Q8: national market share.
// ---------------------------------------------------------------------------

TpchResult RunQ8(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  const Value target_nation = p.code1;
  const Value region = p.code2;
  const Value type_code = p.code3;

  // part leg: point selection on p_type (the engine-side selection).
  QuerySpec pspec;
  pspec.selections = {{"p_type", Point(type_code)}};
  pspec.projections = {"p_partkey"};
  const QueryResult part = es.For("part").Run(pspec);
  std::unordered_set<Value> partkeys(part.columns[0].begin(),
                                     part.columns[0].end());

  // customers of the region (via nation).
  const Relation& nation = db.relation("nation");
  std::unordered_set<Value> region_nations;
  for (size_t i = 0; i < nation.num_rows(); ++i) {
    if (nation.column("n_regionkey")[i] == region) {
      region_nations.insert(nation.column("n_nationkey")[i]);
    }
  }
  QuerySpec cspec;
  cspec.projections = {"c_custkey", "c_nationkey"};
  const QueryResult cust = es.For("customer").Run(cspec);
  std::unordered_set<Value> region_custkeys;
  for (size_t i = 0; i < cust.num_rows; ++i) {
    if (region_nations.count(cust.columns[1][i]) != 0) {
      region_custkeys.insert(cust.columns[0][i]);
    }
  }

  // orders leg: date range selection.
  QuerySpec ospec;
  ospec.selections = {{"o_orderdate", Between(p.date1, p.date2)}};
  ospec.projections = {"o_orderkey", "o_custkey", "o_orderdate"};
  auto ho = es.For("orders").Select(ospec);
  const ViewCol o_orderkey(ho.get(), "o_orderkey");
  const ViewCol o_custkey(ho.get(), "o_custkey");
  std::unordered_map<Value, uint32_t> order_ordinal;
  order_ordinal.reserve(o_orderkey.size());
  for (uint32_t i = 0; i < o_orderkey.size(); ++i) {
    if (region_custkeys.count(o_custkey[i]) != 0) {
      order_ordinal[o_orderkey[i]] = i;
    }
  }

  // supplier nations.
  QuerySpec sspec;
  sspec.projections = {"s_suppkey", "s_nationkey"};
  const QueryResult supp = es.For("supplier").Run(sspec);
  std::unordered_map<Value, Value> supp_nation;
  for (size_t i = 0; i < supp.num_rows; ++i) {
    supp_nation[supp.columns[0][i]] = supp.columns[1][i];
  }

  // lineitem leg: no constant selection (joins filter); full fetches.
  QuerySpec lspec;
  lspec.projections = {"l_partkey", "l_orderkey", "l_suppkey",
                       "l_extendedprice", "l_discount"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol l_partkey(hl.get(), "l_partkey");
  const ViewCol l_orderkey(hl.get(), "l_orderkey");

  std::vector<uint32_t> match;
  std::vector<uint32_t> o_ordinals;
  for (uint32_t i = 0; i < l_partkey.size(); ++i) {
    if (partkeys.count(l_partkey[i]) == 0) continue;
    auto oit = order_ordinal.find(l_orderkey[i]);
    if (oit == order_ordinal.end()) continue;
    match.push_back(i);
    o_ordinals.push_back(oit->second);
  }
  const Col l_supp = hl->FetchAt("l_suppkey", match);
  const Col l_ext = hl->FetchAt("l_extendedprice", match);
  const Col l_disc = hl->FetchAt("l_discount", match);
  const Col o_date = ho->FetchAt("o_orderdate", o_ordinals);

  // market share of target nation per order year.
  std::unordered_map<Value, std::pair<Value, Value>> by_year;  // year -> (target, total)
  for (size_t i = 0; i < match.size(); ++i) {
    int y, m, d;
    DaysToDate(o_date[i], &y, &m, &d);
    const Value vol = DiscPrice(l_ext[i], l_disc[i]);
    auto& slot = by_year[y];
    slot.second += vol;
    if (supp_nation[l_supp[i]] == target_nation) slot.first += vol;
  }
  TpchResult rows;
  for (const auto& [year, vols] : by_year) {
    const Value share_bp =
        vols.second == 0 ? 0 : vols.first * 10000 / vols.second;
    rows.push_back({year, share_bp});
  }
  SortRowsInPlace(&rows);
  return rows;
}

// ---------------------------------------------------------------------------
// Q10: returned item reporting.
// ---------------------------------------------------------------------------

TpchResult RunQ10(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  (void)db;
  QuerySpec ospec;
  ospec.selections = {{"o_orderdate", {p.date1, p.date2, true, false}}};
  ospec.projections = {"o_orderkey", "o_custkey"};
  auto ho = es.For("orders").Select(ospec);
  const ViewCol o_orderkey(ho.get(), "o_orderkey");

  QuerySpec lspec;
  lspec.selections = {{"l_returnflag", Point(p.code1)}};
  lspec.projections = {"l_orderkey", "l_extendedprice", "l_discount"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol l_orderkey(hl.get(), "l_orderkey");

  const JoinPairs jp = HashJoin(l_orderkey, o_orderkey);
  const Col l_ext = hl->FetchAt("l_extendedprice", jp.left);
  const Col l_disc = hl->FetchAt("l_discount", jp.left);
  const Col o_cust = ho->FetchAt("o_custkey", jp.right);

  Col revenue(jp.size());
  for (size_t i = 0; i < jp.size(); ++i) {
    revenue[i] = DiscPrice(l_ext[i], l_disc[i]);
  }
  const std::vector<Col> keys = {o_cust};
  const Groups g = GroupBy(keys);
  const Col rev = GroupedSum(g, revenue);

  Col group_rev = rev;
  const std::vector<Col> order_cols = {group_rev};
  const std::vector<bool> asc = {false};
  const std::vector<uint32_t> top = TopKRows(order_cols, asc, 20);
  TpchResult rows;
  for (uint32_t t : top) rows.push_back({g.keys[t][0], rev[t]});
  return rows;
}

// ---------------------------------------------------------------------------
// Q12: shipping modes and order priority.
// ---------------------------------------------------------------------------

TpchResult RunQ12(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  QuerySpec lspec;
  lspec.selections = {{"l_receiptdate", {p.date1, p.date2, true, false}}};
  lspec.projections = {"l_orderkey", "l_shipmode", "l_shipdate",
                       "l_commitdate", "l_receiptdate"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol l_orderkey(hl.get(), "l_orderkey");
  const ViewCol l_mode(hl.get(), "l_shipmode");
  const ViewCol l_ship(hl.get(), "l_shipdate");
  const ViewCol l_commit(hl.get(), "l_commitdate");
  const ViewCol l_receipt(hl.get(), "l_receiptdate");

  std::vector<uint32_t> keep;
  for (uint32_t i = 0; i < l_orderkey.size(); ++i) {
    if ((l_mode[i] == p.code1 || l_mode[i] == p.code2) &&
        l_commit[i] < l_receipt[i] && l_ship[i] < l_commit[i]) {
      keep.push_back(i);
    }
  }

  QuerySpec ospec;
  ospec.projections = {"o_orderkey", "o_orderpriority"};
  auto ho = es.For("orders").Select(ospec);
  const ViewCol o_orderkey(ho.get(), "o_orderkey");
  std::unordered_map<Value, uint32_t> order_ordinal;
  order_ordinal.reserve(o_orderkey.size());
  for (uint32_t i = 0; i < o_orderkey.size(); ++i) {
    order_ordinal[o_orderkey[i]] = i;
  }
  std::vector<uint32_t> o_ordinals;
  Col modes;
  for (uint32_t k : keep) {
    auto it = order_ordinal.find(l_orderkey[k]);
    if (it == order_ordinal.end()) continue;
    o_ordinals.push_back(it->second);
    modes.push_back(l_mode[k]);
  }
  const Col prios = ho->FetchAt("o_orderpriority", o_ordinals);

  const Value urgent = db.Code("orders.o_orderpriority", "1-URGENT");
  const Value high = db.Code("orders.o_orderpriority", "2-HIGH");
  std::unordered_map<Value, std::pair<Value, Value>> per_mode;
  for (size_t i = 0; i < prios.size(); ++i) {
    auto& slot = per_mode[modes[i]];
    if (prios[i] == urgent || prios[i] == high) {
      ++slot.first;
    } else {
      ++slot.second;
    }
  }
  TpchResult rows;
  for (const auto& [mode, counts] : per_mode) {
    rows.push_back({mode, counts.first, counts.second});
  }
  SortRowsInPlace(&rows);
  return rows;
}

// ---------------------------------------------------------------------------
// Q14: promotion effect.
// ---------------------------------------------------------------------------

TpchResult RunQ14(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  QuerySpec lspec;
  lspec.selections = {{"l_shipdate", {p.date1, p.date2, true, false}}};
  lspec.projections = {"l_partkey", "l_extendedprice", "l_discount"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol li_partkey(hl.get(), "l_partkey");
  const ViewCol li_ext(hl.get(), "l_extendedprice");
  const ViewCol li_disc(hl.get(), "l_discount");

  QuerySpec pspec;
  pspec.projections = {"p_partkey", "p_type"};
  const QueryResult part = es.For("part").Run(pspec);
  std::unordered_map<Value, Value> part_type;
  part_type.reserve(part.num_rows);
  for (size_t i = 0; i < part.num_rows; ++i) {
    part_type[part.columns[0][i]] = part.columns[1][i];
  }

  // PROMO type codes: p_type starts with "PROMO" — the dictionary is
  // sorted, so the PROMO* types form one contiguous code range.
  const Dictionary& types =
      const_cast<Catalog&>(db.catalog()).dictionary("part.p_type");
  Value promo_lo = kMaxValue, promo_hi = kMinValue;
  for (size_t c = 0; c < types.size(); ++c) {
    if (types.Decode(static_cast<Value>(c)).rfind("PROMO", 0) == 0) {
      promo_lo = std::min(promo_lo, static_cast<Value>(c));
      promo_hi = std::max(promo_hi, static_cast<Value>(c));
    }
  }

  Value promo = 0;
  Value total = 0;
  for (size_t i = 0; i < li_partkey.size(); ++i) {
    const Value vol = DiscPrice(li_ext[i], li_disc[i]);
    total += vol;
    auto it = part_type.find(li_partkey[i]);
    if (it != part_type.end() && it->second >= promo_lo &&
        it->second <= promo_hi) {
      promo += vol;
    }
  }
  const Value promo_bp = total == 0 ? 0 : promo * 10000 / total;
  return {{promo_bp}};
}

// ---------------------------------------------------------------------------
// Q15: top supplier.
// ---------------------------------------------------------------------------

TpchResult RunQ15(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  (void)db;
  QuerySpec lspec;
  lspec.selections = {{"l_shipdate", {p.date1, p.date2, true, false}}};
  lspec.projections = {"l_suppkey", "l_extendedprice", "l_discount"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol li_suppkey(hl.get(), "l_suppkey");
  const ViewCol li_ext(hl.get(), "l_extendedprice");
  const ViewCol li_disc(hl.get(), "l_discount");

  Col revenue(li_suppkey.size());
  for (size_t i = 0; i < li_suppkey.size(); ++i) {
    revenue[i] = DiscPrice(li_ext[i], li_disc[i]);
  }
  const std::vector<std::span<const Value>> keys = {li_suppkey};
  const Groups g = GroupBySpans(keys);
  const Col rev = GroupedSum(g, revenue);
  const Value max_rev = MaxOf(rev);

  TpchResult rows;
  for (size_t i = 0; i < g.num_groups(); ++i) {
    if (rev[i] == max_rev) rows.push_back({g.keys[i][0], rev[i]});
  }
  SortRowsInPlace(&rows);
  return rows;
}

// ---------------------------------------------------------------------------
// Q19: discounted revenue (disjunctive multi-branch predicate).
// ---------------------------------------------------------------------------

TpchResult RunQ19(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  // Three (brand, container-class, quantity-range) branches. The
  // column-store reconstructs lineitem attributes once per branch — the
  // reconstruction-heavy pattern the paper highlights; the row engine
  // evaluates all branches in its single pass per leg.
  struct Branch {
    Value brand;
    std::vector<Value> containers;
    Value qty_lo;
    Value qty_hi;
    Value size_hi;
  };
  auto container_codes = [&](const std::vector<std::string>& names) {
    std::vector<Value> codes;
    for (const std::string& s : names) {
      codes.push_back(db.Code("part.p_container", s));
    }
    return codes;
  };
  const Branch branches[3] = {
      {p.code1,
       container_codes({"SM CASE", "SM BOX", "SM PACK", "SM PKG"}),
       p.int1, p.int1 + 10, 5},
      {p.code2,
       container_codes({"MED BAG", "MED BOX", "MED PKG", "MED PACK"}),
       p.int2, p.int2 + 10, 10},
      {p.code3,
       container_codes({"LG CASE", "LG BOX", "LG PACK", "LG PKG"}),
       p.int3, p.int3 + 10, 15},
  };

  const Value instruct =
      db.Code("lineitem.l_shipinstruct", "DELIVER IN PERSON");
  const Value air = db.Code("lineitem.l_shipmode", "AIR");
  const Value reg_air = db.Code("lineitem.l_shipmode", "REG AIR");

  Value revenue = 0;
  for (const Branch& b : branches) {
    // part side: brand point selection (engine), container/size filters.
    QuerySpec pspec;
    pspec.selections = {{"p_brand", Point(b.brand)}};
    pspec.projections = {"p_partkey", "p_container", "p_size"};
    const QueryResult part = es.For("part").Run(pspec);
    std::unordered_set<Value> partkeys;
    for (size_t i = 0; i < part.num_rows; ++i) {
      const Value c = part.columns[1][i];
      const Value sz = part.columns[2][i];
      if (sz < 1 || sz > b.size_hi) continue;
      if (std::find(b.containers.begin(), b.containers.end(), c) ==
          b.containers.end()) {
        continue;
      }
      partkeys.insert(part.columns[0][i]);
    }

    // lineitem side: quantity range selection (engine), rest filtered.
    QuerySpec lspec;
    lspec.selections = {{"l_quantity", Between(b.qty_lo, b.qty_hi)}};
    lspec.projections = {"l_partkey", "l_extendedprice", "l_discount",
                         "l_shipinstruct", "l_shipmode"};
    auto hl = es.For("lineitem").Select(lspec);
    const ViewCol li_partkey(hl.get(), "l_partkey");
    const ViewCol li_ext(hl.get(), "l_extendedprice");
    const ViewCol li_disc(hl.get(), "l_discount");
    const ViewCol li_instruct(hl.get(), "l_shipinstruct");
    const ViewCol li_mode(hl.get(), "l_shipmode");
    for (size_t i = 0; i < li_partkey.size(); ++i) {
      if (li_instruct[i] != instruct) continue;
      const Value mode = li_mode[i];
      if (mode != air && mode != reg_air) continue;
      if (partkeys.count(li_partkey[i]) == 0) continue;
      revenue += DiscPrice(li_ext[i], li_disc[i]);
    }
  }
  return {{revenue}};
}

// ---------------------------------------------------------------------------
// Q20: potential part promotion.
// ---------------------------------------------------------------------------

TpchResult RunQ20(TpchDatabase& db, EngineSet& es, const QueryParams& p) {
  (void)db;
  // parts named like 'word%': the p_name column stores the first-word
  // code, so the LIKE prefix is a point selection.
  QuerySpec pspec;
  pspec.selections = {{"p_name", Point(p.code1)}};
  pspec.projections = {"p_partkey"};
  const QueryResult part = es.For("part").Run(pspec);
  std::unordered_set<Value> partkeys(part.columns[0].begin(),
                                     part.columns[0].end());

  // lineitem shipped within the year: sum quantity per (part, supp).
  QuerySpec lspec;
  lspec.selections = {{"l_shipdate", {p.date1, p.date2, true, false}}};
  lspec.projections = {"l_partkey", "l_suppkey", "l_quantity"};
  auto hl = es.For("lineitem").Select(lspec);
  const ViewCol li_partkey(hl.get(), "l_partkey");
  const ViewCol li_suppkey(hl.get(), "l_suppkey");
  const ViewCol li_qty(hl.get(), "l_quantity");
  std::unordered_map<Value, Value> shipped;  // (part,supp) packed -> qty
  for (size_t i = 0; i < li_partkey.size(); ++i) {
    const Value pk = li_partkey[i];
    if (partkeys.count(pk) == 0) continue;
    shipped[pk * (1ll << 32) + li_suppkey[i]] += li_qty[i];
  }

  // partsupp: availqty > 0.5 * shipped.
  QuerySpec psspec;
  psspec.projections = {"ps_partkey", "ps_suppkey", "ps_availqty"};
  const QueryResult ps = es.For("partsupp").Run(psspec);
  std::unordered_set<Value> suppkeys;
  for (size_t i = 0; i < ps.num_rows; ++i) {
    const Value pk = ps.columns[0][i];
    if (partkeys.count(pk) == 0) continue;
    auto it = shipped.find(pk * (1ll << 32) + ps.columns[1][i]);
    if (it == shipped.end()) continue;
    if (ps.columns[2][i] * 2 > it->second) suppkeys.insert(ps.columns[1][i]);
  }

  // suppliers of the nation.
  QuerySpec sspec;
  sspec.projections = {"s_suppkey", "s_name", "s_nationkey"};
  const QueryResult supp = es.For("supplier").Run(sspec);
  TpchResult rows;
  for (size_t i = 0; i < supp.num_rows; ++i) {
    if (supp.columns[2][i] != p.code2) continue;
    if (suppkeys.count(supp.columns[0][i]) == 0) continue;
    rows.push_back({supp.columns[0][i], supp.columns[1][i]});
  }
  SortRowsInPlace(&rows);
  return rows;
}

// ---------------------------------------------------------------------------
// Parameter randomizers (TPC-H substitution rules, simplified).
// ---------------------------------------------------------------------------

QueryParams RandQ1(TpchDatabase&, Rng& rng) {
  QueryParams p;
  p.date1 = DateToDays(1998, 12, 1) - rng.Uniform(60, 120);
  return p;
}

QueryParams RandQ3(TpchDatabase& db, Rng& rng) {
  QueryParams p;
  p.code1 = db.Code("customer.c_mktsegment",
                    kSegments[static_cast<size_t>(rng.Uniform(0, 4))]);
  p.date1 = DateToDays(1995, 3, static_cast<int>(rng.Uniform(1, 31)));
  return p;
}

QueryParams RandQ4(TpchDatabase&, Rng& rng) {
  QueryParams p;
  const int year = static_cast<int>(rng.Uniform(1993, 1997));
  const int month = static_cast<int>(rng.Uniform(0, 3)) * 3 + 1;
  p.date1 = DateToDays(year, month, 1);
  p.date2 = p.date1 + 92;
  return p;
}

QueryParams RandQ6(TpchDatabase&, Rng& rng) {
  QueryParams p;
  const int year = static_cast<int>(rng.Uniform(1993, 1997));
  p.date1 = DateToDays(year, 1, 1);
  p.date2 = DateToDays(year + 1, 1, 1);
  p.int1 = rng.Uniform(2, 9);   // discount (hundredths)
  p.int2 = rng.Uniform(24, 25);  // quantity
  return p;
}

QueryParams RandQ7(TpchDatabase& db, Rng& rng) {
  QueryParams p;
  const Value n1 = rng.Uniform(0, 24);
  Value n2 = rng.Uniform(0, 23);
  if (n2 >= n1) ++n2;
  p.code1 = n1;
  p.code2 = n2;
  p.date1 = DateToDays(1995, 1, 1);
  p.date2 = DateToDays(1996, 12, 31);
  (void)db;
  return p;
}

QueryParams RandQ8(TpchDatabase& db, Rng& rng) {
  QueryParams p;
  const size_t nation = static_cast<size_t>(rng.Uniform(0, 24));
  p.code1 = static_cast<Value>(nation);
  p.code2 = static_cast<Value>(kNationRegion[nation]);
  p.code3 = rng.Uniform(0, 149);  // p_type code
  p.date1 = DateToDays(1995, 1, 1);
  p.date2 = DateToDays(1996, 12, 31);
  (void)db;
  return p;
}

QueryParams RandQ10(TpchDatabase& db, Rng& rng) {
  QueryParams p;
  const int year = static_cast<int>(rng.Uniform(1993, 1994));
  const int month = static_cast<int>(rng.Uniform(0, 3)) * 3 + 1;
  p.date1 = DateToDays(year, month, 1);
  p.date2 = p.date1 + 92;
  p.code1 = db.Code("lineitem.l_returnflag", "R");
  return p;
}

QueryParams RandQ12(TpchDatabase& db, Rng& rng) {
  QueryParams p;
  const Value m1 = rng.Uniform(0, 6);
  Value m2 = rng.Uniform(0, 5);
  if (m2 >= m1) ++m2;
  p.code1 = m1;
  p.code2 = m2;
  const int year = static_cast<int>(rng.Uniform(1993, 1997));
  p.date1 = DateToDays(year, 1, 1);
  p.date2 = DateToDays(year + 1, 1, 1);
  (void)db;
  return p;
}

QueryParams RandQ14(TpchDatabase&, Rng& rng) {
  QueryParams p;
  const int year = static_cast<int>(rng.Uniform(1993, 1997));
  const int month = static_cast<int>(rng.Uniform(1, 12));
  p.date1 = DateToDays(year, month, 1);
  p.date2 = month == 12 ? DateToDays(year + 1, 1, 1)
                        : DateToDays(year, month + 1, 1);
  return p;
}

QueryParams RandQ15(TpchDatabase&, Rng& rng) {
  QueryParams p;
  const int year = static_cast<int>(rng.Uniform(1993, 1997));
  const int month = static_cast<int>(rng.Uniform(1, 10));
  p.date1 = DateToDays(year, month, 1);
  p.date2 = p.date1 + 92;
  return p;
}

QueryParams RandQ19(TpchDatabase& db, Rng& rng) {
  QueryParams p;
  auto brand = [&]() {
    const int m = static_cast<int>(rng.Uniform(1, 5));
    const int n = static_cast<int>(rng.Uniform(1, 5));
    return db.Code("part.p_brand",
                   "Brand#" + std::to_string(m) + std::to_string(n));
  };
  p.code1 = brand();
  p.code2 = brand();
  p.code3 = brand();
  p.int1 = rng.Uniform(1, 10);
  p.int2 = rng.Uniform(10, 20);
  p.int3 = rng.Uniform(20, 30);
  return p;
}

QueryParams RandQ20(TpchDatabase& db, Rng& rng) {
  QueryParams p;
  p.code1 = db.Code(
      "part.p_name",
      kNameWords[static_cast<size_t>(rng.Uniform(
          0, static_cast<Value>(kNameWords.size()) - 1))]);
  const int year = static_cast<int>(rng.Uniform(1993, 1997));
  p.date1 = DateToDays(year, 1, 1);
  p.date2 = DateToDays(year + 1, 1, 1);
  p.code2 = rng.Uniform(0, 24);  // nation key
  return p;
}

}  // namespace

const std::vector<TpchQueryDef>& AllQueries() {
  static const std::vector<TpchQueryDef>* kQueries = new std::vector<
      TpchQueryDef>{
      {1, "pricing-summary", RunQ1, RandQ1},
      {3, "shipping-priority", RunQ3, RandQ3},
      {4, "order-priority", RunQ4, RandQ4},
      {6, "forecast-revenue", RunQ6, RandQ6},
      {7, "volume-shipping", RunQ7, RandQ7},
      {8, "market-share", RunQ8, RandQ8},
      {10, "returned-items", RunQ10, RandQ10},
      {12, "ship-modes", RunQ12, RandQ12},
      {14, "promotion-effect", RunQ14, RandQ14},
      {15, "top-supplier", RunQ15, RandQ15},
      {19, "discounted-revenue", RunQ19, RandQ19},
      {20, "part-promotion", RunQ20, RandQ20},
  };
  return *kQueries;
}

}  // namespace crackdb::tpch

#include "layers.h"

#include <algorithm>
#include <unordered_set>

#include "fdb/core/build.h"
#include "fdb/core/enumerate.h"
#include "fdb/core/order.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/obs/metrics.h"
#include "fdb/optimizer/fplan.h"
#include "fdb/optimizer/greedy.h"
#include "fdb/query/binder.h"
#include "fdb/query/parser.h"
#include "fdb/relational/rdb_ops.h"
#include "workload.h"

namespace perfbench {
namespace {

using fdb::AttrId;
using fdb::BoundQuery;
using fdb::Factorisation;
using fdb::Relation;
using fdb::SortDir;
using fdb::SortKey;

// The replay mirrors FdbEngine::ExecuteImpl's choices from the same bound
// query, through public calls only.

bool OrderNeedsResult(const BoundQuery& q) {
  for (const SortKey& k : q.order_by) {
    for (AttrId id : q.task_ids) {
      if (k.attr == id) return true;
    }
  }
  return false;
}

void GroupVisitOrder(const fdb::FTree& tree, const std::vector<AttrId>& group,
                     const std::vector<SortKey>& order, std::vector<int>* visit,
                     std::vector<SortDir>* dirs) {
  std::unordered_set<int> seen;
  for (const SortKey& k : order) {
    int n = tree.NodeOfAttr(k.attr);
    if (seen.insert(n).second) {
      visit->push_back(n);
      dirs->push_back(k.dir);
    }
  }
  std::unordered_set<int> g_nodes;
  for (AttrId a : group) g_nodes.insert(tree.NodeOfAttr(a));
  for (int n : tree.TopologicalOrder()) {
    if (g_nodes.count(n) && seen.insert(n).second) {
      visit->push_back(n);
      dirs->push_back(SortDir::kAsc);
    }
  }
}

void OrderDirs(const fdb::FTree& tree, const std::vector<SortKey>& order,
               const std::vector<int>& visit, std::vector<SortDir>* dirs) {
  dirs->assign(visit.size(), SortDir::kAsc);
  for (const SortKey& k : order) {
    int n = tree.NodeOfAttr(k.attr);
    for (size_t i = 0; i < visit.size(); ++i) {
      if (visit[i] == n) (*dirs)[i] = k.dir;
    }
  }
}

// Bare Enumerator drain, then EnumerateToRelation; the difference is the
// cost of materialising boxed rows. Returns the parts' time in ms.
double EnumerateTimed(const Factorisation& f, const std::vector<int>& visit,
                      const std::vector<SortDir>& dirs,
                      std::optional<int64_t> limit, Relation* out,
                      LayerSums* t) {
  double t0 = Now();
  fdb::Enumerator en(f, visit, dirs);
  fdb::Tuple row(static_cast<size_t>(en.schema().arity()));
  int64_t n = 0;
  while ((!limit.has_value() || n < *limit) && en.Next()) {
    en.Fill(&row);
    ++n;
  }
  double drain = MsSince(t0);
  AllocTally a0 = ReadAllocTally();
  t0 = Now();
  *out = fdb::EnumerateToRelation(f, visit, dirs, limit);
  double full = MsSince(t0);
  AllocTally a1 = ReadAllocTally();
  t->enumerate += drain;
  t->materialise += full - drain;
  t->rows += static_cast<double>(out->size());
  t->materialise_bytes += static_cast<double>(a1.bytes - a0.bytes);
  t->materialise_allocs += static_cast<double>(a1.calls - a0.calls);
  return full;
}

double ProjectTimed(const Relation& in, const std::vector<AttrId>& want,
                    LayerSums* t) {
  AllocTally a0 = ReadAllocTally();
  double t0 = Now();
  Relation out = fdb::Project(in, want, /*dedup=*/false);
  double ms = MsSince(t0);
  AllocTally a1 = ReadAllocTally();
  t->project += ms;
  t->project_bytes += static_cast<double>(a1.bytes - a0.bytes);
  return ms;
}

uint64_t Counter(const char* name) {
  return fdb::obs::Registry::Instance().GetCounter(name).Value();
}

// Replays the execution of `q` call by call; returns the timed parts' sum.
double Replay(fdb::Database* db, const BoundQuery& q, bool fo,
              LayerSums* t) {
  double t0 = Now();
  Factorisation fact = *db->ViewSnapshot(q.from[0]);
  double parts = MsSince(t0);
  t->input += parts;

  fdb::AttributeRegistry* reg = &db->registry();
  fdb::PlannerQuery pq;
  pq.eq_selections = q.eq_selections;
  pq.const_selections = q.const_selections;
  pq.group = q.group;
  pq.tasks = q.tasks;
  bool order_via_result = OrderNeedsResult(q);
  if (!order_via_result) {
    for (const SortKey& k : q.order_by) pq.order.push_back(k.attr);
  }
  t0 = Now();
  fdb::FPlan plan = fdb::GreedyPlan(fact.tree(), *reg, pq);
  double ms = MsSince(t0);
  t->plan += ms;
  parts += ms;
  t->plan_ops += static_cast<double>(plan.size());

  std::vector<fdb::FOpStats> stats;
  fdb::ExecutePlan(&fact, reg, plan, &stats);
  for (const fdb::FOpStats& s : stats) {
    double op_ms = s.seconds * 1e3;
    t->ops += op_ms;
    parts += op_ms;
    if (s.kind == fdb::FOpKind::kSwap) t->swap += op_ms;
    if (s.kind == fdb::FOpKind::kAggregate) t->aggregate += op_ms;
  }
  if (!stats.empty()) {
    t->singletons_after += static_cast<double>(stats.back().singletons_after);
  }
  if (fo) return parts;

  std::optional<int64_t> enum_limit =
      q.having.empty() ? q.limit : std::nullopt;
  if (q.has_aggregates() || q.distinct_projection) {
    // A full aggregation (no GROUP BY) runs engine-internal code: it is
    // left in engine.unattributed_ms.
    if (q.group.empty() && q.has_aggregates()) return parts;
    std::vector<int> visit;
    std::vector<SortDir> dirs;
    GroupVisitOrder(fact.tree(), q.group,
                    order_via_result ? std::vector<SortKey>{} : q.order_by,
                    &visit, &dirs);
    t0 = Now();
    Relation raw = fdb::GroupAggToRelation(
        fact, visit, dirs, q.tasks, q.task_ids,
        order_via_result ? std::nullopt : enum_limit);
    ms = MsSince(t0);
    t->group_aggregate += ms;
    parts += ms;
    if (!order_via_result) return parts;
    Relation out = fdb::AssembleOutputs(q, raw, std::nullopt);
    std::vector<AttrId> path;
    for (const SortKey& k : q.order_by) {
      if (std::find(path.begin(), path.end(), k.attr) == path.end()) {
        path.push_back(k.attr);
      }
    }
    for (AttrId a : out.schema().attrs()) {
      if (std::find(path.begin(), path.end(), a) == path.end()) {
        path.push_back(a);
      }
    }
    Factorisation rf = fdb::FactoriseRelation(out, path);
    std::vector<int> rvisit = rf.tree().TopologicalOrder();
    std::vector<SortDir> rdirs;
    OrderDirs(rf.tree(), q.order_by, rvisit, &rdirs);
    Relation ordered;
    parts += EnumerateTimed(rf, rvisit, rdirs, q.limit, &ordered, t);
    parts += ProjectTimed(ordered, out.schema().attrs(), t);
    return parts;
  }

  std::vector<int> o_nodes;
  for (const SortKey& k : q.order_by) {
    int n = fact.tree().NodeOfAttr(k.attr);
    if (std::find(o_nodes.begin(), o_nodes.end(), n) == o_nodes.end()) {
      o_nodes.push_back(n);
    }
  }
  std::vector<int> visit = fdb::OrderedVisitSequence(fact.tree(), o_nodes);
  std::vector<SortDir> dirs;
  OrderDirs(fact.tree(), q.order_by, visit, &dirs);
  Relation rows;
  parts += EnumerateTimed(fact, visit, dirs, enum_limit, &rows, t);
  std::vector<AttrId> want;
  for (const fdb::OutputColumn& c : q.outputs) want.push_back(c.attr);
  parts += ProjectTimed(rows, want, t);
  return parts;
}

}  // namespace

double SplitStatement(fdb::Database* db, const Stmt& s, const Expected& exp,
                      LayerSums* t, RunResult* res) {
  double t0 = Now();
  fdb::ParsedQuery parsed = fdb::ParseSql(s.sql);
  double parse = MsSince(t0);
  t0 = Now();
  BoundQuery q = fdb::Bind(parsed, db);
  double bind = MsSince(t0);

  fdb::FdbOptions opt;
  opt.factorised_output = s.factorised_output;
  fdb::FdbEngine engine(db);
  uint64_t tasks0 = Counter("taskpool.tasks_run");
  uint64_t steals0 = Counter("taskpool.steals");
  uint64_t idle0 = Counter("taskpool.worker_idle_ns");
  t0 = Now();
  fdb::FdbResult r = engine.Execute(q, opt);
  double execute = MsSince(t0);
  t->tasks_run += static_cast<double>(Counter("taskpool.tasks_run") - tasks0);
  t->steals += static_cast<double>(Counter("taskpool.steals") - steals0);
  t->worker_idle_ms +=
      static_cast<double>(Counter("taskpool.worker_idle_ns") - idle0) / 1e6;
  t->parse += parse;
  t->bind += bind;
  t->execute += execute;

  Relation out =
      r.factorised.has_value() ? Flatten(*r.factorised) : std::move(r.flat);
  std::string err = CheckResult(s, exp, ColumnNames(*db, out), out.rows());
  if (!err.empty()) res->Fail(err);

  t->unattributed += execute - Replay(db, q, s.factorised_output, t);
  return parse + bind + execute;
}

void ReportLayers(const LayerSums& t, double passes, RunResult* res) {
  auto per = [&](double v) { return passes > 0 ? v / passes : 0; };
  const double mb = 1024.0 * 1024.0;
  res->Add("query.parse_ms", per(t.parse), "ms");
  res->Add("query.bind_ms", per(t.bind), "ms");
  res->Add("optimizer.plan_ms", per(t.plan), "ms");
  res->Add("optimizer.plan_ops", per(t.plan_ops), "count");
  res->Add("core.ops_ms", per(t.ops), "ms");
  res->Add("core.ops.swap_ms", per(t.swap), "ms");
  res->Add("core.ops.aggregate_ms", per(t.aggregate), "ms");
  res->Add("core.ops.singletons_after", per(t.singletons_after), "count");
  res->Add("core.enumerate_ms", per(t.enumerate), "ms");
  res->Add("core.materialise_ms", per(t.materialise), "ms");
  res->Add("core.group_aggregate_ms", per(t.group_aggregate), "ms");
  res->Add("core.rows", per(t.rows), "count");
  res->Add("core.materialise_alloc_mb", per(t.materialise_bytes) / mb, "MB");
  res->Add("core.materialise_allocs", per(t.materialise_allocs), "count");
  res->Add("relational.project_ms", per(t.project), "ms");
  res->Add("relational.project_alloc_mb", per(t.project_bytes) / mb, "MB");
  res->Add("engine.input_ms", per(t.input), "ms");
  res->Add("engine.execute_ms", per(t.execute), "ms");
  res->Add("engine.unattributed_ms", per(t.unattributed), "ms");
  res->Add("exec.tasks_run", per(t.tasks_run), "count");
  res->Add("exec.steals", per(t.steals), "count");
  res->Add("exec.worker_idle_ms", per(t.worker_idle_ms), "ms");
}

}  // namespace perfbench

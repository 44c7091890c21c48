#include "workload.h"

#include <algorithm>
#include <stdexcept>

#include "fdb/check/check.h"
#include "fdb/core/build.h"
#include "fdb/core/enumerate.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/serve/client.h"
#include "fdb/workload/generator.h"

namespace perfbench {
namespace {

Stmt Make(std::string label, std::string sql, std::vector<std::string> cols,
          std::vector<std::pair<int, bool>> order = {}) {
  Stmt s;
  s.label = std::move(label);
  s.sql = std::move(sql);
  s.cols = std::move(cols);
  s.order = std::move(order);
  return s;
}

// SELECT * over R1. The columns are listed ORDER BY keys first, so that
// an ordered result is already sorted as the checker compares it.
Stmt Star(std::string label, std::string sql, std::vector<std::string> cols) {
  Stmt s = Make(std::move(label), std::move(sql), std::move(cols),
                {{0, false}, {1, false}, {2, false}});
  s.star = true;
  return s;
}

Stmt WithLimit(Stmt s) {
  s.label += "-lim10";
  s.sql += " LIMIT 10";
  s.limit = 10;
  return s;
}

// Factorised output has no row order: its flattening is checked as a
// multiset only.
Stmt WithFo(Stmt s) {
  s.label += "-fo";
  s.factorised_output = true;
  s.order.clear();
  return s;
}

// Durable rows of the write view, as sorted (customer, date, package).
Rows WriteViewRows(const fdb::Database& db, RunResult* res) {
  std::shared_ptr<const fdb::Factorisation> v = db.ViewSnapshot(kWriteView);
  if (v == nullptr) {
    res->Fail("recovery: the write view is missing after reopening");
    return {};
  }
  fdb::Relation flat = v->Flatten();
  std::vector<std::string> names = ColumnNames(db, flat);
  const std::vector<std::string> want = {"customer", "date", "package"};
  std::vector<int> idx;
  for (const std::string& w : want) {
    int i = -1;
    for (size_t j = 0; j < names.size(); ++j) {
      if (names[j] == w) i = static_cast<int>(j);
    }
    if (i < 0) {
      res->Fail("recovery: the write view lacks column " + w);
      return {};
    }
    idx.push_back(i);
  }
  Rows out;
  for (const fdb::Tuple& t : flat.rows()) {
    out.push_back({t[idx[0]].as_int(), t[idx[1]].as_int(), t[idx[2]].as_int()});
  }
  std::sort(out.begin(), out.end());
  return out;
}

class InProcess : public Front {
 public:
  explicit InProcess(fdb::Database* db) : db_(db), engine_(db) {}

  bool Read(const Stmt& s, std::vector<std::string>* names,
            std::vector<fdb::Tuple>* rows, double* ms) override {
    fdb::FdbOptions opt;
    opt.factorised_output = s.factorised_output;
    try {
      double t0 = Now();
      fdb::FdbResult r = engine_.ExecuteSql(s.sql, opt);
      *ms = MsSince(t0);
      fdb::Relation out = r.factorised.has_value() ? Flatten(*r.factorised)
                                                   : std::move(r.flat);
      *names = ColumnNames(*db_, out);
      *rows = std::move(out.mutable_rows());
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

 private:
  fdb::Database* db_;
  fdb::FdbEngine engine_;
};

std::string InsertSql(const fdb::Tuple& t) {
  return "INSERT INTO " + std::string(kWriteView) + " VALUES (" +
         std::to_string(t[0].as_int()) + ", " + std::to_string(t[1].as_int()) +
         ", " + std::to_string(t[2].as_int()) + ")";
}

class Wire : public Front {
 public:
  explicit Wire(int port) { client_.Connect("127.0.0.1", port); }
  ~Wire() override { client_.Close(); }

  bool Read(const Stmt& s, std::vector<std::string>* names,
            std::vector<fdb::Tuple>* rows, double* ms) override {
    double t0 = Now();
    fdb::serve::Client::Result r = client_.Query(s.sql);
    *ms = MsSince(t0);
    if (!r.ok) return false;
    *names = std::move(r.columns);
    *rows = std::move(r.rows);
    return true;
  }

  bool Insert(const fdb::Tuple& t) override {
    return client_.Query(InsertSql(t)).ok;
  }

  bool Txn(const std::vector<fdb::Tuple>& ts) override {
    bool ok = client_.Query("BEGIN").ok;
    for (const fdb::Tuple& t : ts) ok = ok && client_.Query(InsertSql(t)).ok;
    return ok && client_.Query("COMMIT").ok;
  }

 private:
  fdb::serve::Client client_;
};

}  // namespace

int ScaleOf(const std::string& workload) {
  return workload == "serve_mix" ? 4 : 8;
}

StmtSet StatementsOf(const std::string& workload) {
  StmtSet set;
  if (workload == "agg") {
    // fig5 (Q1-Q5) and fig7 (Q6-Q9).
    const std::string g2 =
        "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY customer";
    const std::string g8 =
        "SELECT date, package, sum(price) AS s FROM R1 GROUP BY date, "
        "package";
    set.flat = {
        Make("Q1",
             "SELECT package, date, customer, sum(price) FROM R1 GROUP BY "
             "package, date, customer",
             {"package", "date", "customer", "sum"}),
        Make("Q2", g2, {"customer", "sum"}),
        Make("Q3",
             "SELECT date, package, sum(price) FROM R1 GROUP BY date, package",
             {"date", "package", "sum"}),
        Make("Q4", "SELECT package, sum(price) FROM R1 GROUP BY package",
             {"package", "sum"}),
        Make("Q5", "SELECT sum(price) FROM R1", {"sum"}),
        Make("Q6", g2 + " ORDER BY customer", {"customer", "sum"},
             {{0, false}}),
        Make("Q7", g2 + " ORDER BY revenue", {"customer", "sum"},
             {{1, false}}),
        Make("Q8", g8 + " ORDER BY date, package", {"date", "package", "sum"},
             {{0, false}, {1, false}}),
        Make("Q9", g8 + " ORDER BY package, date", {"date", "package", "sum"},
             {{1, false}, {0, false}}),
    };
    for (const Stmt& s : set.flat) set.limit.push_back(WithLimit(s));
    for (int q = 0; q < 5; ++q) set.fo.push_back(WithFo(set.flat[q]));
  } else if (workload == "ord") {
    // fig8: Q10-Q12 over R1 (package first), Q13 re-sorts R3.
    set.flat = {
        Star("Q10", "SELECT * FROM R1 ORDER BY package, date, item",
             {"package", "date", "item", "customer", "price"}),
        Star("Q11", "SELECT * FROM R1 ORDER BY package, item, date",
             {"package", "item", "date", "customer", "price"}),
        Star("Q12", "SELECT * FROM R1 ORDER BY date, package, item",
             {"date", "package", "item", "customer", "price"}),
        Star("Q13", "SELECT * FROM R3 ORDER BY customer, date, package",
             {"customer", "date", "package"}),
    };
    set.flat[3].source = Stmt::Source::kOrders;
    for (const Stmt& s : set.flat) set.limit.push_back(WithLimit(s));
    for (const Stmt& s : set.flat) set.fo.push_back(WithFo(s));
  } else if (workload == "serve_mix") {
    set.flat = {
        Make("group",
             "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY "
             "customer ORDER BY revenue DESC",
             {"customer", "sum"}, {{1, true}}),
        Make("wide", "SELECT customer, item FROM R1", {"customer", "item"}),
    };
    for (const Stmt& s : set.flat) set.limit.push_back(WithLimit(s));
    for (const Stmt& s : set.flat) set.fo.push_back(WithFo(s));
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return set;
}

void Answer(Reference* ref, StmtSet* set) {
  for (const Stmt& s : set->flat) set->flat_exp.push_back(ref->Answer(s));
  for (const Stmt& s : set->limit) set->limit_exp.push_back(ref->Answer(s));
  for (const Stmt& s : set->fo) set->fo_exp.push_back(ref->Answer(s));
}

Bench SetUp(const Options& opt, const std::string& dir) {
  Bench b;
  b.dir = dir;
  b.path = dir + "/db.fdbs";
  MakeDirs(dir);
  b.db = std::make_unique<fdb::Database>();
  fdb::Database* db = b.db.get();
  fdb::WorkloadParams params = fdb::SmallParams(ScaleOf(opt.workload));
  params.seed = opt.seed;
  fdb::InstallWorkload(db, params, "R1");
  fdb::AttributeRegistry& reg = db->registry();
  fdb::AttrId customer = *reg.Find("customer"), date = *reg.Find("date"),
              package = *reg.Find("package");
  const fdb::Relation& orders = *db->relation("Orders");
  if (opt.workload == "ord") {
    db->AddView("R3", fdb::FactoriseRelation(orders, {date, customer, package}));
  }
  db->AddView(kWriteView,
              fdb::FactoriseRelation(orders, {customer, date, package}));
  db->EnableWal(b.path);
  return b;
}

OrderGen::OrderGen(uint64_t seed, int writer, int scale)
    : rng_(seed * 1000003u + static_cast<uint64_t>(writer)),
      next_customer_(1'000'000 + static_cast<int64_t>(writer) * 10'000'000),
      dates_(fdb::SmallParams(scale).num_dates),
      packages_(fdb::SmallParams(scale).num_packages) {}

fdb::Tuple OrderGen::Next() {
  fdb::Tuple t;
  t.emplace_back(next_customer_++);
  t.emplace_back(static_cast<int64_t>(rng_() % static_cast<uint64_t>(dates_)));
  t.emplace_back(
      static_cast<int64_t>(rng_() % static_cast<uint64_t>(packages_)));
  return t;
}

void WriteLog::Add(std::vector<fdb::Tuple> group) {
  std::lock_guard<std::mutex> g(mu_);
  groups_.push_back(std::move(group));
}

std::vector<std::vector<fdb::Tuple>> WriteLog::groups() const {
  std::lock_guard<std::mutex> g(mu_);
  return groups_;
}

fdb::Relation Flatten(const fdb::Factorisation& f) {
  std::vector<int> visit = f.tree().TopologicalOrder();
  return fdb::EnumerateToRelation(
      f, visit, std::vector<fdb::SortDir>(visit.size(), fdb::SortDir::kAsc));
}

bool Front::Insert(const fdb::Tuple&) {
  throw std::logic_error("writes go over the wire");
}

bool Front::Txn(const std::vector<fdb::Tuple>&) {
  throw std::logic_error("writes go over the wire");
}

std::unique_ptr<Front> InProcessFront(fdb::Database* db) {
  return std::make_unique<InProcess>(db);
}

std::unique_ptr<Front> WireFront(int port) {
  return std::make_unique<Wire>(port);
}

void Samples::Merge(const Samples& o) {
  auto cat = [](Series* a, const Series& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&read_ms, o.read_ms);
  cat(&pass_ms, o.pass_ms);
  cat(&limit_pass_ms, o.limit_pass_ms);
  cat(&fo_pass_ms, o.fo_pass_ms);
  stmts_per_s.insert(stmts_per_s.end(), o.stmts_per_s.begin(),
                     o.stmts_per_s.end());
  window_s = 0;
  window_stmts = 0;
  read_total_ms += o.read_total_ms;
  reads += o.reads;
  attempted += o.attempted;
  failed += o.failed;
  check_s += o.check_s;
}

void RunRounds(Front* front, const std::vector<Op>& round, const StmtSet& set,
               OrderGen* gen, WriteLog* log, double deadline, int first_cpu,
               Samples* out, RunResult* res) {
  bool has[3] = {false, false, false};
  for (const Op& op : round) {
    if (op.kind <= Op::kFo) has[op.kind] = true;
  }
  std::vector<std::string> names;
  std::vector<fdb::Tuple> rows;
  const double start = Now();
  int64_t commits = 0;
  for (int64_t n = 0;; ++n) {
    if (n % AllowedCpus() == 0 && n > 0 && Now() >= deadline) break;
    int cpu = PinToCpu(first_cpu + static_cast<int>(n));
    // A round runs all of its writes or, when ahead of the pace, none:
    // the mix of write shapes stays that of the round.
    bool writes = commits < kCommitsPerSecond * (Now() - start);
    const double round0 = Now();
    const double check0 = out->check_s;
    const int64_t done0 = out->attempted - out->failed;
    double pass[3] = {0, 0, 0};
    for (const Op& op : round) {
      if (op.kind <= Op::kFo) {
        const std::vector<Stmt>& stmts = op.kind == Op::kFlat    ? set.flat
                                         : op.kind == Op::kLimit ? set.limit
                                                                 : set.fo;
        const std::vector<Expected>& exps =
            op.kind == Op::kFlat    ? set.flat_exp
            : op.kind == Op::kLimit ? set.limit_exp
                                    : set.fo_exp;
        double ms = 0;
        ++out->attempted;
        double r0 = Now();
        bool ok = front->Read(stmts[op.stmt], &names, &rows, &ms);
        // Outside the statement's own time, Read readies the result for
        // the checker (in process: flattens factorised output).
        double c0 = Now();
        out->check_s += c0 - r0 - ms / 1e3;
        if (!ok) {
          ++out->failed;
          continue;
        }
        pass[op.kind] += ms;
        out->read_total_ms += ms;
        ++out->reads;
        if (op.kind == Op::kFlat) out->read_ms.push_back({ms, cpu});
        c0 = Now();
        std::string err =
            CheckResult(stmts[op.stmt], exps[op.stmt], names, rows);
        rows.clear();
        out->check_s += Now() - c0;
        if (!err.empty()) res->Fail(err);
      } else if (!writes) {
        continue;
      } else if (op.kind == Op::kInsert) {
        ++commits;
        fdb::Tuple t = gen->Next();
        ++out->attempted;
        if (!front->Insert(t)) {
          ++out->failed;
          continue;
        }
        log->Add({std::move(t)});
      } else {
        ++commits;
        std::vector<fdb::Tuple> ts;
        for (int i = 0; i < kTxnInserts; ++i) ts.push_back(gen->Next());
        out->attempted += kTxnInserts + 2;
        if (!front->Txn(ts)) {
          out->failed += kTxnInserts + 2;
          continue;
        }
        log->Add(std::move(ts));
      }
    }
    if (has[Op::kFlat]) out->pass_ms.push_back({pass[Op::kFlat], cpu});
    if (has[Op::kLimit]) out->limit_pass_ms.push_back({pass[Op::kLimit], cpu});
    if (has[Op::kFo]) out->fo_pass_ms.push_back({pass[Op::kFo], cpu});
    out->window_s += Now() - round0 - (out->check_s - check0);
    out->window_stmts += out->attempted - out->failed - done0;
    if (out->window_s >= kWindowS) {
      out->stmts_per_s.push_back(static_cast<double>(out->window_stmts) /
                                 out->window_s);
      out->window_s = 0;
      out->window_stmts = 0;
    }
  }
  // A run shorter than one window reports its rounds as one.
  if (out->stmts_per_s.empty() && out->window_s > 0) {
    out->stmts_per_s.push_back(static_cast<double>(out->window_stmts) /
                               out->window_s);
    out->window_s = 0;
    out->window_stmts = 0;
  }
  Unpin();
}

Series Recover(Bench* b, const Options& opt, double seconds, WriteLog* log,
               RunResult* res) {
  // The loop's groups move into the snapshot chain; the epilogue leaves a
  // WAL of fixed length, so reopen time does not grow with throughput.
  b->db->Checkpoint(b->path);
  OrderGen epilogue(opt.seed, /*writer=*/1000, ScaleOf(opt.workload));
  for (int i = 0; i < kEpilogueInserts; ++i) {
    fdb::Tuple t = epilogue.Next();
    b->db->Insert(kWriteView, t);
    log->Add({std::move(t)});
  }

  Series times;
  std::unique_ptr<fdb::Database> reopened;
  const int cpus = AllowedCpus();
  const double deadline = Now() + seconds;
  for (int i = 0;; ++i) {
    if (i % cpus == 0 && i >= 4 * cpus && Now() >= deadline) break;
    int cpu = PinToCpu(i);
    double t0 = Now();
    auto db = std::make_unique<fdb::Database>(fdb::Database::Open(b->path));
    times.push_back({MsSince(t0), cpu});
    reopened = std::move(db);
  }
  Unpin();

  Rows want;
  for (const fdb::Tuple& t : b->db->relation("Orders")->rows()) {
    want.push_back({t[0].as_int(), t[1].as_int(), t[2].as_int()});
  }
  for (const std::vector<fdb::Tuple>& g : log->groups()) {
    for (const fdb::Tuple& t : g) {
      want.push_back({t[0].as_int(), t[1].as_int(), t[2].as_int()});
    }
  }
  std::sort(want.begin(), want.end());
  if (WriteViewRows(*reopened, res) != want) {
    res->Fail("recovery: the reopened write view differs from the set-up "
              "tuples plus every acknowledged insert");
  }
  fdb::check::Report report = fdb::check::ValidateDatabase(*reopened);
  if (!report.ok()) res->Fail("recovery: " + report.ToString());
  return times;
}

}  // namespace perfbench

// The two kinds of run: untraced (end-to-end metrics) and traced
// (per-layer metrics).

#include "runs.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "fdb/core/update.h"
#include "fdb/obs/metrics.h"
#include "fdb/serve/server.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

// Closed-loop clients on serve_mix; with kSlots executing statements the
// two stay within the host's four cores.
constexpr int kClients = 2;
constexpr int kSlots = 2;
// Set-ups per untraced run, spread over its loop; setup_s is their median.
constexpr int kSetUps = 15;
// Shares of a run: the read/write loop, serve_mix's in-process f/o phase,
// and the reopens of recovery.
constexpr double kLoopShare = 0.75;
constexpr double kFoShare = 0.15;
constexpr double kRecoverShare = 0.1;
// Reads per block of read_p95_ms (BlockQuantile): a few seconds of agg or
// serve_mix; ord's reads of a whole run make one block.
constexpr size_t kP95Block = 400;

std::unique_ptr<fdb::serve::Server> StartServer(fdb::Database* db) {
  fdb::serve::ServerConfig cfg;
  cfg.admission.max_concurrent = kSlots;
  cfg.admission.max_queue = 64;
  cfg.admission.queue_wait_ms = 60000;
  auto server = std::make_unique<fdb::serve::Server>(db, cfg);
  server->Start();
  return server;
}

bool Served(const Options& opt) { return opt.workload == "serve_mix"; }

// agg and ord: each read statement of the classes named once.
std::vector<Op> ReadRound(const StmtSet& set, bool with_fo) {
  std::vector<Op> round;
  for (size_t i = 0; i < set.flat.size(); ++i) {
    round.push_back({Op::kFlat, static_cast<int>(i)});
  }
  for (size_t i = 0; i < set.limit.size(); ++i) {
    round.push_back({Op::kLimit, static_cast<int>(i)});
  }
  if (with_fo) {
    for (size_t i = 0; i < set.fo.size(); ++i) {
      round.push_back({Op::kFo, static_cast<int>(i)});
    }
  }
  return round;
}

// serve_mix, per client: reads 3 group : 1 wide, so read_p50_ms falls
// inside the group shape and read_p95_ms inside the wide one; writes 3
// autocommit : 1 transaction.
const std::vector<Op> kServeRound = {
    {Op::kFlat, 0},  {Op::kInsert, 0}, {Op::kLimit, 0}, {Op::kFlat, 0},
    {Op::kInsert, 0}, {Op::kFlat, 1},  {Op::kTxn, 0},   {Op::kFlat, 0},
    {Op::kInsert, 0}, {Op::kLimit, 1}};
const std::vector<Op> kServeFoRound = {{Op::kFo, 0}, {Op::kFo, 1}};

// The traced run's served phase on agg and ord: the flat and LIMIT reads,
// then three autocommit inserts and a transaction.
std::vector<Op> ServedReadRound(const StmtSet& set) {
  std::vector<Op> round = ReadRound(set, false);
  for (int i = 0; i < 3; ++i) round.push_back({Op::kInsert, 0});
  round.push_back({Op::kTxn, 0});
  return round;
}

// Runs `clients` closed-loop wire clients until `deadline`; meanwhile the
// calling thread calls `idle` every 10 ms.
Samples RunClients(int port, int clients, const std::vector<Op>& round,
                   const StmtSet& set, const Options& opt, WriteLog* log,
                   double deadline, RunResult* res,
                   const std::function<void()>& idle = [] {}) {
  std::vector<Samples> per(static_cast<size_t>(clients));
  std::vector<RunResult> results(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::unique_ptr<Front> front = WireFront(port);
        OrderGen gen(opt.seed, c, ScaleOf(opt.workload));
        RunRounds(front.get(), round, set, &gen, log, deadline, c, &per[c],
                  &results[c]);
      } catch (const std::exception& e) {
        results[c].Fail(std::string("client: ") + e.what());
      }
    });
  }
  while (Now() < deadline) {
    idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
  Samples all;
  for (int c = 0; c < clients; ++c) {
    all.Merge(per[c]);
    if (!results[c].correct) res->Fail(results[c].first_error);
  }
  return all;
}

uint64_t CounterNow(const char* name) {
  return fdb::obs::Registry::Instance().GetCounter(name).Value();
}
fdb::obs::HistogramSnapshot HistNow(const char* name) {
  return fdb::obs::Registry::Instance().GetHistogram(name).Snapshot();
}
// Mean of the samples a histogram gained between two snapshots, in ms.
double MeanMsSince(const fdb::obs::HistogramSnapshot& before,
                   const fdb::obs::HistogramSnapshot& after) {
  uint64_t n = after.count - before.count;
  return n == 0 ? 0 : static_cast<double>(after.sum - before.sum) / 1e6 /
                          static_cast<double>(n);
}

struct Prepared {
  Bench bench;
  std::unique_ptr<fdb::serve::Server> server;
  StmtSet set;
};

// Times set-ups at even intervals over the loop, so that setup_s does not
// come from a single moment of a host whose speed drifts (see README). The
// run keeps the first set-up; the others are torn down, untimed.
class SetUpClock {
 public:
  SetUpClock(const Options& opt, double span_s)
      : opt_(opt), gap_s_(span_s / (kSetUps - 1)) {}

  // The set-up the run works on.
  void First(Prepared* p) {
    double t0 = Now();
    p->bench = SetUp(opt_, opt_.work_dir + "/setup-0");
    if (Served(opt_)) p->server = StartServer(p->bench.db.get());
    times_.push_back(Now() - t0);
    next_ = Now() + gap_s_;
  }
  // When the next set-up is due.
  double next() const { return next_; }
  // Runs a set-up if one is due.
  void Tick() {
    if (static_cast<int>(times_.size()) < kSetUps && Now() >= next_) One();
  }
  // Runs the set-ups still owed; returns the median of all.
  double Finish() {
    while (static_cast<int>(times_.size()) < kSetUps) One();
    return Median(times_);
  }

 private:
  void One() {
    double t0 = Now();
    Prepared extra;
    extra.bench = SetUp(opt_, opt_.work_dir + "/setup-" +
                                  std::to_string(times_.size()));
    if (Served(opt_)) extra.server = StartServer(extra.bench.db.get());
    times_.push_back(Now() - t0);
    extra.server.reset();
    extra.bench.db.reset();
    RemoveTree(extra.bench.dir);
    next_ += gap_s_;
  }

  const Options& opt_;
  double gap_s_;
  double next_ = 0;
  std::vector<double> times_;
};

// The reference answers and the checker's self-test.
void Prepare(const Options& opt, Prepared* p, RunResult* res) {
  Reference ref(*p->bench.db);
  p->set = StatementsOf(opt.workload);
  Answer(&ref, &p->set);
  std::vector<Stmt> all = p->set.flat;
  all.insert(all.end(), p->set.limit.begin(), p->set.limit.end());
  all.insert(all.end(), p->set.fo.begin(), p->set.fo.end());
  std::string err = SelfTest(&ref, all);
  if (!err.empty()) res->Fail(err);
}

}  // namespace

void RunEndToEnd(const Options& opt, RunResult* res) {
  fdb::obs::SetMetricsEnabled(Served(opt));  // fdb_server runs with metrics
  Prepared p;
  const double loop_span = Served(opt) ? kLoopShare * opt.seconds
                                       : (kLoopShare + kFoShare) * opt.seconds;
  SetUpClock setups(opt, loop_span);
  setups.First(&p);
  Prepare(opt, &p, res);

  WriteLog log;
  Samples s;
  if (Served(opt)) {
    s = RunClients(p.server->port(), kClients, kServeRound, p.set, opt, &log,
                   Now() + loop_span, res, [&] { setups.Tick(); });
    p.server->Shutdown();
    // The wire carries flat rows only: factorised output runs in process.
    Samples fo;
    std::unique_ptr<Front> front = InProcessFront(p.bench.db.get());
    RunRounds(front.get(), kServeFoRound, p.set, nullptr, &log,
              Now() + kFoShare * opt.seconds, 0, &fo, res);
    s.fo_pass_ms = fo.fo_pass_ms;
    s.attempted += fo.attempted;
    s.failed += fo.failed;
  } else {
    std::unique_ptr<Front> front = InProcessFront(p.bench.db.get());
    const std::vector<Op> round = ReadRound(p.set, true);
    const double end = Now() + loop_span;
    do {
      RunRounds(front.get(), round, p.set, nullptr, &log,
                std::min(end, setups.next()), 0, &s, res);
      setups.Tick();
    } while (Now() < end);
  }
  Series reopen_ms =
      Recover(&p.bench, opt, kRecoverShare * opt.seconds, &log, res);
  res->attempted = s.attempted;
  res->failed = s.failed;

  res->Add("setup_s", setups.Finish(), "s");
  res->Add("peak_rss_mb", PeakRssMb(), "MB");
  res->Add("pass_ms", BalancedQuantile(s.pass_ms, 0.5), "ms");
  res->Add("fo_pass_ms", BalancedQuantile(s.fo_pass_ms, 0.5), "ms");
  res->Add("first_rows_ms", BalancedQuantile(s.limit_pass_ms, 0.5), "ms");
  res->Add("read_p50_ms", BalancedQuantile(s.read_ms, 0.5), "ms");
  res->Add("read_p95_ms", BlockQuantile(s.read_ms, 0.95, kP95Block), "ms");
  // The median window of one caller, times the callers: a slow stretch of
  // the host moves a median less than a mean over the whole loop.
  res->Add("stmts_per_s",
           (Served(opt) ? kClients : 1) * Median(s.stmts_per_s), "stmt/s");
  res->Add("recover_s", BalancedQuantile(reopen_ms, 0.5) / 1e3, "s");
  RemoveTree(opt.work_dir);
}

void RunTraced(const Options& opt, RunResult* res) {
  fdb::obs::SetMetricsEnabled(true);
  Prepared p;
  p.bench = SetUp(opt, opt.work_dir + "/traced");
  std::shared_ptr<const fdb::Factorisation> initial_writes =
      p.bench.db->ViewSnapshot(kWriteView);
  Prepare(opt, &p, res);
  fdb::Database* db = p.bench.db.get();

  // Phase A: the in-process layer split of every read statement.
  LayerSums sums;
  std::vector<double> traced_pass;
  double passes = 0;
  double end_a = Now() + 0.45 * opt.seconds;
  do {
    double pass = 0;
    for (size_t i = 0; i < p.set.flat.size(); ++i) {
      pass += SplitStatement(db, p.set.flat[i], p.set.flat_exp[i], &sums, res);
    }
    for (size_t i = 0; i < p.set.limit.size(); ++i) {
      SplitStatement(db, p.set.limit[i], p.set.limit_exp[i], &sums, res);
    }
    for (size_t i = 0; i < p.set.fo.size(); ++i) {
      SplitStatement(db, p.set.fo[i], p.set.fo_exp[i], &sums, res);
    }
    traced_pass.push_back(pass);
    passes += 1;
    res->attempted += static_cast<int64_t>(
        p.set.flat.size() + p.set.limit.size() + p.set.fo.size());
  } while (Now() < end_a);
  ReportLayers(sums, passes, res);

  // Phase B: the same reads and the writes over the wire (serve_mix: its
  // own mix), split by the server's registry.
  uint64_t sent0 = CounterNow("serve.bytes_sent");
  uint64_t groups0 = CounterNow("wal.commit_groups");
  uint64_t written0 = CounterNow("io.write_bytes");
  auto wait0 = HistNow("serve.admission_wait_ns");
  auto server0 = HistNow("serve.query_ns");
  auto engine0 = HistNow("engine.query_ns");
  auto append0 = HistNow("wal.append_ns");
  auto fsync0 = HistNow("io.fsync_ns");
  WriteLog log;
  p.server = StartServer(db);
  double end_b = Now() + 0.45 * opt.seconds;
  Samples s =
      Served(opt)
          ? RunClients(p.server->port(), kClients, kServeRound, p.set, opt,
                       &log, end_b, res)
          : RunClients(p.server->port(), 1, ServedReadRound(p.set), p.set,
                       opt, &log, end_b, res);
  p.server->Shutdown();
  res->attempted += s.attempted;
  res->failed += s.failed;
  if (Served(opt)) {
    traced_pass.clear();
    for (const Timed& t : s.pass_ms) traced_pass.push_back(t.ms);
  }
  double server_ms = MeanMsSince(server0, HistNow("serve.query_ns"));
  res->Add("serve.admission_wait_ms",
           MeanMsSince(wait0, HistNow("serve.admission_wait_ns")), "ms");
  res->Add("serve.server_ms", server_ms, "ms");
  res->Add("serve.engine_ms", MeanMsSince(engine0, HistNow("engine.query_ns")),
           "ms");
  res->Add("serve.client_residual_ms",
           s.reads > 0 ? s.read_total_ms / static_cast<double>(s.reads) -
                             server_ms
                       : 0,
           "ms");
  res->Add("serve.bytes_sent_per_stmt",
           static_cast<double>(CounterNow("serve.bytes_sent") - sent0) /
               static_cast<double>(std::max<int64_t>(1, s.attempted)),
           "bytes");
  uint64_t groups = CounterNow("wal.commit_groups") - groups0;
  res->Add("storage.wal_append_ms",
           MeanMsSince(append0, HistNow("wal.append_ns")), "ms");
  res->Add("storage.fsync_ms", MeanMsSince(fsync0, HistNow("io.fsync_ns")),
           "ms");
  res->Add("storage.wal_bytes_per_commit",
           static_cast<double>(CounterNow("io.write_bytes") - written0) /
               static_cast<double>(std::max<uint64_t>(1, groups)),
           "bytes");

  // ApplyBatch of every acknowledged group onto the set-up write view.
  fdb::Factorisation replay = *initial_writes;
  std::vector<std::vector<fdb::Tuple>> acked = log.groups();
  double apply_ms = 0;
  for (const std::vector<fdb::Tuple>& g : acked) {
    std::vector<fdb::BatchOp> ops;
    for (const fdb::Tuple& t : g) ops.push_back({true, t});
    double t0 = Now();
    fdb::ApplyBatch(&replay, ops);
    apply_ms += MsSince(t0);
  }
  res->Add("storage.apply_ms",
           acked.empty() ? 0 : apply_ms / static_cast<double>(acked.size()),
           "ms");

  // Phase C: recovery.
  auto open0 = HistNow("storage.open_ns");
  uint64_t replayed0 = CounterNow("storage.open_wal_groups_replayed");
  Series reopen_ms =
      Recover(&p.bench, opt, kRecoverShare * opt.seconds, &log, res);
  res->Add("storage.open_ms", MeanMsSince(open0, HistNow("storage.open_ns")),
           "ms");
  res->Add("storage.wal_groups_replayed",
           static_cast<double>(CounterNow("storage.open_wal_groups_replayed") -
                               replayed0) /
               static_cast<double>(reopen_ms.size()),
           "count");
  // The driver script turns this into trace.overhead_ms against an
  // untraced run's pass_ms.
  res->Add("trace.pass_ms", Median(traced_pass), "ms");
  RemoveTree(opt.work_dir);
}

}  // namespace perfbench

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// What the three workloads run, and the machinery they share: set-up, the
// round of operations, the write generator and recovery.
//
// Every workload runs the same four operation classes, so that every
// end-to-end metric is defined on every workload:
//   flat   read statements with flat output      -> pass_ms, read_p*_ms
//   limit  the same statements with LIMIT 10     -> first_rows_ms
//   fo     statements with factorised output     -> fo_pass_ms
//   reopen Database::Open after the loop         -> recover_s
// agg and ord run them in process through FdbEngine; serve_mix runs flat
// and limit over the wire, mixed with writes (autocommit inserts and
// transactions), and fo in process (the wire carries flat rows only).

#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "fdb/engine/database.h"
#include "reference.h"
#include "util.h"

namespace perfbench {

/// The statements of one workload, by class, with their reference answers.
struct StmtSet {
  std::vector<Stmt> flat, limit, fo;
  std::vector<Expected> flat_exp, limit_exp, fo_exp;
};

/// The view scale of a workload (SmallParams).
int ScaleOf(const std::string& workload);
/// The statements of a workload (answers left empty).
StmtSet StatementsOf(const std::string& workload);
/// Fills the answers from `ref`.
void Answer(Reference* ref, StmtSet* set);

/// One set-up: the generated database with its views, bound to a WAL.
struct Bench {
  std::unique_ptr<fdb::Database> db;
  std::string dir;   ///< owns the snapshot chain and the WAL
  std::string path;  ///< the snapshot path the WAL is bound to
};

/// Name of the Orders-shaped view every workload writes to.
inline const char kWriteView[] = "NewOrders";
/// Operations per write transaction (BEGIN, k INSERTs, COMMIT).
inline constexpr int kTxnInserts = 4;
/// Write pace of each caller, in commits (autocommit inserts or
/// transactions) per second. Reads run closed-loop; writes are paced so
/// that a run commits the same number of times whatever its read speed:
/// every commit leaves memory behind (see CHANGES.md), so a write count
/// that followed throughput would move peak_rss_mb with read speed.
inline constexpr double kCommitsPerSecond = 40;

/// Generates the data from the seed, builds the views (R1; R3 for ord;
/// NewOrders for writes), and binds a WAL under `dir`.
Bench SetUp(const Options& opt, const std::string& dir);

/// Fresh Orders tuples (customer, date, package): customers beyond the
/// generated range, so every insert adds a tuple. Deterministic per
/// (seed, writer).
class OrderGen {
 public:
  OrderGen(uint64_t seed, int writer, int scale);
  fdb::Tuple Next();

 private:
  std::mt19937_64 rng_;
  int64_t next_customer_;
  int dates_, packages_;
};

/// Acknowledged commit groups, shared by concurrent writers.
class WriteLog {
 public:
  void Add(std::vector<fdb::Tuple> group);
  std::vector<std::vector<fdb::Tuple>> groups() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<fdb::Tuple>> groups_;
};

/// Where a round's operations go: in process or over the wire.
class Front {
 public:
  virtual ~Front() = default;
  /// Runs a read; fills column names and rows. Returns false if the
  /// operation failed (an error reply), true otherwise.
  virtual bool Read(const Stmt& s, std::vector<std::string>* names,
                    std::vector<fdb::Tuple>* rows, double* ms) = 0;
  /// Durable autocommit insert of one tuple (over the wire only).
  virtual bool Insert(const fdb::Tuple& t);
  /// BEGIN, one INSERT per tuple, COMMIT (over the wire only).
  virtual bool Txn(const std::vector<fdb::Tuple>& ts);
};

/// A result factorisation as flat rows, for checking: the library's
/// parallel enumeration in topological order.
fdb::Relation Flatten(const fdb::Factorisation& f);

/// Runs FdbEngine in process (factorised output for fo statements; the
/// result factorisation is flattened outside the timed region).
std::unique_ptr<Front> InProcessFront(fdb::Database* db);
/// A serve::Client connected to 127.0.0.1:port.
std::unique_ptr<Front> WireFront(int port);

/// One operation of a round.
struct Op {
  enum Kind { kFlat, kLimit, kFo, kInsert, kTxn } kind;
  int stmt = 0;  ///< index into the class's statements (reads)
};

/// Length of a throughput window, in seconds of a caller's rounds.
inline constexpr double kWindowS = 1.0;

/// Per-round samples of one caller.
struct Samples {
  Series read_ms;        ///< each flat read
  Series pass_ms;        ///< flat reads of one round
  Series limit_pass_ms;  ///< LIMIT reads of one round
  Series fo_pass_ms;     ///< f/o reads of one round
  double read_total_ms = 0;           ///< every read, any class
  int64_t reads = 0;
  int64_t attempted = 0;              ///< statements sent
  int64_t failed = 0;
  double check_s = 0;                 ///< readying and checking results
  /// Statements completed per second of round time (checking excluded),
  /// one figure per window of at least kWindowS of a caller's rounds.
  std::vector<double> stmts_per_s;
  double window_s = 0;                ///< the open window's round time
  int64_t window_stmts = 0;           ///< and its completed statements

  /// Concatenates the samples; drops both callers' open windows.
  void Merge(const Samples& o);
};

/// Runs whole rounds until `deadline` (at least one), checking every read
/// against its reference answer and logging acknowledged writes. A round
/// that starts ahead of the write pace skips its writes. Round i
/// runs pinned to allowed CPU (first_cpu + i); a whole number of turns over
/// the CPUs is run, so each CPU runs as many rounds.
void RunRounds(Front* front, const std::vector<Op>& round, const StmtSet& set,
               OrderGen* gen, WriteLog* log, double deadline, int first_cpu,
               Samples* out, RunResult* res);

/// Number of epilogue inserts whose WAL groups every reopen replays.
inline constexpr int kEpilogueInserts = 64;

/// Recovery, after the loop: folds the WAL into the snapshot chain,
/// commits a fixed epilogue of inserts into a fresh WAL, then reopens the
/// database from disk for `seconds`, in whole turns over the CPUs and at
/// least four times on each. Checks that NewOrders holds exactly its
/// set-up tuples plus every acknowledged insert, and that
/// check::ValidateDatabase passes. Returns the reopen times (in ms).
Series Recover(Bench* b, const Options& opt, double seconds, WriteLog* log,
               RunResult* res);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

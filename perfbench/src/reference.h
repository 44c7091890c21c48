#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// Reference answers computed apart from both engines: a plain hash join of
// Orders ⋈ Packages ⋈ Items, grouping and integer sums in std::map, and
// sorting with std::sort. Results are checked against them as exact
// multisets, and ordered results by their key sequence.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fdb/engine/database.h"

namespace perfbench {

/// A row of at most kMaxCols integer columns; unused columns stay 0, so
/// rows of one statement compare lexicographically.
inline constexpr size_t kMaxCols = 5;
using Row = std::array<int64_t, kMaxCols>;
using Rows = std::vector<Row>;

/// A read statement with what the reference needs to answer it.
struct Stmt {
  enum class Source { kJoin, kOrders };
  std::string sql;
  Source source = Source::kJoin;
  /// Output columns in SELECT order: attribute names, and "sum" for the
  /// sum(price) column (whatever the engine names it).
  std::vector<std::string> cols;
  /// SELECT *: every source row (bag). Otherwise grouped when `cols` holds
  /// "sum", and a distinct projection when it does not.
  bool star = false;
  /// ORDER BY keys: (index into cols, descending).
  std::vector<std::pair<int, bool>> order;
  std::optional<int64_t> limit;
  bool factorised_output = false;
  std::string label;  ///< short name for reports ("Q7", "Q10-lim10", ...)
};

/// The expected answer of one statement.
struct Expected {
  /// Every row, sorted lexicographically; shared by the statements that
  /// differ only in LIMIT, ORDER BY or output form.
  std::shared_ptr<const Rows> sorted;
  /// The first LIMIT ORDER BY key tuples in result order (ordered LIMIT
  /// statements only).
  Rows key_prefix;
};

/// Source rows for the reference, read off the base relations.
class Reference {
 public:
  /// Joins the database's Orders, Packages and Items relations.
  explicit Reference(const fdb::Database& db);
  Expected Answer(const Stmt& s);

 private:
  Rows AllRows(const Stmt& s) const;
  Rows join_;    // customer, date, package, item, price
  Rows orders_;  // customer, date, package
  std::map<std::string, std::shared_ptr<const Rows>> cache_;
};

/// Checks a result (column names and boxed rows) against `exp`. Returns
/// an empty string when it holds, else what is wrong.
std::string CheckResult(const Stmt& s, const Expected& exp,
                        const std::vector<std::string>& names,
                        const std::vector<fdb::Tuple>& rows);

/// Column names of a relation's schema.
std::vector<std::string> ColumnNames(const fdb::Database& db,
                                     const fdb::Relation& r);

/// Shows that CheckResult rejects a dropped row, a swapped pair and a
/// wrong sum, and accepts the uncorrupted answer. Returns an empty string
/// on success.
std::string SelfTest(Reference* ref, std::vector<Stmt> stmts);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

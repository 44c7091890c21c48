#include "reference.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

const std::vector<std::string> kJoinCols = {"customer", "date", "package",
                                            "item", "price"};
const std::vector<std::string> kOrdersCols = {"customer", "date", "package"};

// Reads `names` columns of a base relation as int64 rows.
Rows ReadRelation(const fdb::Database& db, const std::string& rel,
                  const std::vector<std::string>& names) {
  const fdb::Relation* r = db.relation(rel);
  if (r == nullptr) throw std::runtime_error("reference: no relation " + rel);
  std::vector<int> idx;
  for (const std::string& n : names) {
    std::optional<fdb::AttrId> a = db.registry().Find(n);
    int i = a.has_value() ? r->schema().IndexOf(*a) : -1;
    if (i < 0) throw std::runtime_error("reference: no column " + n);
    idx.push_back(i);
  }
  Rows out;
  out.reserve(r->rows().size());
  for (const fdb::Tuple& t : r->rows()) {
    Row row{};
    for (size_t k = 0; k < idx.size(); ++k) row[k] = t[idx[k]].as_int();
    out.push_back(std::move(row));
  }
  return out;
}

// The ORDER BY key tuple of `row`, descending keys negated so that every
// key sequence in result order is non-decreasing.
Row KeyOf(const Stmt& s, const Row& row) {
  Row k{};
  size_t n = 0;
  for (auto [col, desc] : s.order) k[n++] = desc ? -row[col] : row[col];
  return k;
}

int SumColumn(const Stmt& s) {
  auto it = std::find(s.cols.begin(), s.cols.end(), "sum");
  return it == s.cols.end() ? -1 : static_cast<int>(it - s.cols.begin());
}

// The rows of `exp` in an order the statement allows (ORDER BY keys, then
// whole rows), boxed: a correct result to corrupt in the self-test.
std::vector<fdb::Tuple> OrderedAnswer(const Stmt& s, const Expected& exp) {
  Rows rows = *exp.sorted;
  if (!s.order.empty()) {
    std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      return KeyOf(s, a) < KeyOf(s, b);
    });
  }
  if (s.limit.has_value() && rows.size() > static_cast<size_t>(*s.limit)) {
    rows.resize(static_cast<size_t>(*s.limit));
  }
  std::vector<fdb::Tuple> out;
  for (const Row& r : rows) {
    fdb::Tuple t;
    for (size_t i = 0; i < s.cols.size(); ++i) t.emplace_back(r[i]);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

Reference::Reference(const fdb::Database& db) {
  orders_ = ReadRelation(db, "Orders", kOrdersCols);
  std::unordered_map<int64_t, std::vector<int64_t>> items_of;
  for (const Row& r : ReadRelation(db, "Packages", {"package", "item"})) {
    items_of[r[0]].push_back(r[1]);
  }
  std::unordered_map<int64_t, int64_t> price_of;
  for (const Row& r : ReadRelation(db, "Items", {"item", "price"})) {
    price_of[r[0]] = r[1];
  }
  for (const Row& o : orders_) {
    auto it = items_of.find(o[2]);
    if (it == items_of.end()) continue;
    for (int64_t item : it->second) {
      auto p = price_of.find(item);
      if (p == price_of.end()) continue;
      join_.push_back({o[0], o[1], o[2], item, p->second});
    }
  }
}

Expected Reference::Answer(const Stmt& s) {
  std::string key = (s.source == Stmt::Source::kJoin ? "join" : "orders");
  key += s.star ? "*" : "";
  for (const std::string& c : s.cols) key += "," + c;
  std::shared_ptr<const Rows>& sorted = cache_[key];
  if (sorted == nullptr) sorted = std::make_shared<const Rows>(AllRows(s));
  Expected e;
  e.sorted = sorted;
  if (s.limit.has_value() && !s.order.empty()) {
    for (const Row& r : *sorted) e.key_prefix.push_back(KeyOf(s, r));
    size_t n = std::min<size_t>(e.key_prefix.size(),
                                static_cast<size_t>(*s.limit));
    std::partial_sort(e.key_prefix.begin(), e.key_prefix.begin() + n,
                      e.key_prefix.end());
    e.key_prefix.resize(n);
  }
  return e;
}

Rows Reference::AllRows(const Stmt& s) const {
  const Rows& src = s.source == Stmt::Source::kJoin ? join_ : orders_;
  const std::vector<std::string>& names =
      s.source == Stmt::Source::kJoin ? kJoinCols : kOrdersCols;
  std::vector<int> idx;
  for (const std::string& c : s.cols) {
    auto it = std::find(names.begin(), names.end(), c);
    idx.push_back(it == names.end() ? -1
                                    : static_cast<int>(it - names.begin()));
  }
  int sum_col = SumColumn(s);
  const int price = 4;

  Rows rows;
  if (s.star) {
    for (const Row& r : src) {
      Row out{};
      for (size_t k = 0; k < idx.size(); ++k) out[k] = r[idx[k]];
      rows.push_back(out);
    }
  } else if (sum_col >= 0) {
    std::map<Row, int64_t> groups;
    for (const Row& r : src) {
      Row key{};
      for (size_t k = 0; k < idx.size(); ++k) {
        if (idx[k] >= 0) key[k] = r[idx[k]];
      }
      groups[key] += r[price];
    }
    for (const auto& [key, sum] : groups) {
      Row out = key;
      out[sum_col] = sum;
      rows.push_back(out);
    }
  } else {
    std::set<Row> distinct;
    for (const Row& r : src) {
      Row out{};
      for (size_t k = 0; k < idx.size(); ++k) out[k] = r[idx[k]];
      distinct.insert(out);
    }
    rows.assign(distinct.begin(), distinct.end());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string CheckResult(const Stmt& s, const Expected& exp,
                        const std::vector<std::string>& names,
                        const std::vector<fdb::Tuple>& rows) {
  const std::string where = s.label + ": ";
  // Result column -> statement column. Attribute columns match by name;
  // the rest make up the sum, whatever their alias. A factorised result
  // keeps a sum as partial aggregates in separate branches (a sum over one
  // branch times counts over the others), so there the sum is the product
  // of every remaining column; a flat result has exactly one.
  int sum_col = SumColumn(s);
  std::vector<int> map(names.size(), -1);
  std::vector<bool> used(s.cols.size(), false);
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = std::find(s.cols.begin(), s.cols.end(), names[i]);
    int j = it == s.cols.end() ? sum_col : static_cast<int>(it - s.cols.begin());
    bool factor = j == sum_col && s.factorised_output;
    if (j < 0 || (used[j] && !factor)) {
      return where + "unexpected column " + names[i];
    }
    used[j] = true;
    map[i] = j;
  }
  if (std::find(used.begin(), used.end(), false) != used.end()) {
    return where + "missing column";
  }
  Rows got;
  got.reserve(rows.size());
  for (const fdb::Tuple& t : rows) {
    if (t.size() != names.size()) return where + "ragged row";
    Row r{};
    if (sum_col >= 0) r[sum_col] = 1;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!t[i].is_int()) return where + "non-integer value";
      if (map[i] == sum_col) {
        r[map[i]] *= t[i].as_int();
      } else {
        r[map[i]] = t[i].as_int();
      }
    }
    got.push_back(r);
  }
  if (!s.order.empty()) {
    for (size_t i = 0; i < got.size(); ++i) {
      Row k = KeyOf(s, got[i]);
      if (i > 0 && k < KeyOf(s, got[i - 1])) {
        return where + "rows out of ORDER BY order at row " +
               std::to_string(i);
      }
      if (s.limit.has_value() &&
          (i >= exp.key_prefix.size() || k != exp.key_prefix[i])) {
        return where + "LIMIT result is not a prefix of the ordered answer";
      }
    }
  }
  if (!std::is_sorted(got.begin(), got.end())) std::sort(got.begin(), got.end());
  const Rows& want = *exp.sorted;
  if (s.limit.has_value()) {
    size_t n = std::min<size_t>(static_cast<size_t>(*s.limit), want.size());
    if (got.size() != n) return where + "wrong row count under LIMIT";
    if (!std::includes(want.begin(), want.end(), got.begin(), got.end())) {
      return where + "LIMIT result holds a row the answer lacks";
    }
  } else if (got != want) {
    return where + "multiset differs from the reference (" +
           std::to_string(got.size()) + " rows against " +
           std::to_string(want.size()) + ")";
  }
  return "";
}

std::vector<std::string> ColumnNames(const fdb::Database& db,
                                     const fdb::Relation& r) {
  std::vector<std::string> out;
  for (fdb::AttrId a : r.schema().attrs()) out.push_back(db.registry().Name(a));
  return out;
}

std::string SelfTest(Reference* ref, std::vector<Stmt> stmts) {
  // A grouped, ordered statement rides along so that every corruption
  // kind is tried on every workload.
  Stmt grouped;
  grouped.label = "self-test Q6";
  grouped.cols = {"customer", "sum"};
  grouped.order = {{0, false}};
  stmts.push_back(grouped);
  int dropped = 0, swapped = 0, wrong_sum = 0;
  for (const Stmt& s : stmts) {
    Expected exp = ref->Answer(s);
    std::vector<std::string> names;
    for (const std::string& c : s.cols) {
      names.push_back(c == "sum" ? "sum(price)" : c);
    }
    std::vector<fdb::Tuple> good = OrderedAnswer(s, exp);
    std::string err = CheckResult(s, exp, names, good);
    if (!err.empty()) return "self-test rejected a correct answer: " + err;
    if (good.empty()) continue;

    std::vector<fdb::Tuple> bad = good;
    bad.pop_back();
    if (CheckResult(s, exp, names, bad).empty()) {
      return "self-test: " + s.label + " accepted a dropped row";
    }
    ++dropped;

    int sum_col = SumColumn(s);
    if (sum_col >= 0) {
      bad = good;
      bad[0][sum_col] = fdb::Value(bad[0][sum_col].as_int() + 1);
      if (CheckResult(s, exp, names, bad).empty()) {
        return "self-test: " + s.label + " accepted a wrong sum";
      }
      ++wrong_sum;
    }

    if (!s.order.empty()) {
      // Swap the first adjacent pair whose keys differ.
      for (size_t i = 1; i < good.size(); ++i) {
        bool differ = false;
        for (auto [col, desc] : s.order) {
          if (good[i][col] != good[i - 1][col]) differ = true;
        }
        if (!differ) continue;
        bad = good;
        std::swap(bad[i], bad[i - 1]);
        if (CheckResult(s, exp, names, bad).empty()) {
          return "self-test: " + s.label + " accepted a swapped pair";
        }
        ++swapped;
        break;
      }
    }
  }
  if (dropped == 0 || wrong_sum == 0 || swapped == 0) {
    return "self-test: a corruption kind was never tried";
  }
  return "";
}

}  // namespace perfbench

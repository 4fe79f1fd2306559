#include "reference.h"

#include <algorithm>
#include <cmath>

#include "cost/planner.h"
#include "engine/executor.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/table_stats.h"

namespace perfbench {

using fedcal::Result;
using fedcal::Row;
using fedcal::Status;
using fedcal::Table;
using fedcal::TablePtr;
using fedcal::Value;

void Reference::AddTable(TablePtr table) {
  stats_.Put(fedcal::TableStats::Compute(*table));
  tables_[table->name()] = std::move(table);
}

Result<TablePtr> Reference::Run(const std::string& sql) const {
  auto resolve = [this](const std::string& name) -> Result<TablePtr> {
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("no table " + name);
    return it->second;
  };
  auto stmt = fedcal::ParseSelect(sql);
  if (!stmt.ok()) return stmt.status();
  std::vector<fedcal::Schema> schemas;
  for (const auto& ref : stmt->from) {
    auto t = resolve(ref.table);
    if (!t.ok()) return t.status();
    schemas.push_back((*t)->schema());
  }
  auto bound = fedcal::BindQuery(*stmt, schemas);
  if (!bound.ok()) return bound.status();
  fedcal::Planner planner(&stats_);
  auto plan = planner.Plan(*bound);
  if (!plan.ok()) return plan.status();
  fedcal::Executor exec(resolve);
  return exec.Execute(*plan, nullptr);
}

namespace {

bool Approx(const Value& a, const Value& b, double rel_tol) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (!a.is_numeric() || !b.is_numeric()) return a == b;
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return std::fabs(x - y) <=
         rel_tol * std::max(std::fabs(x), std::fabs(y)) + 1e-9;
}

}  // namespace

bool SameResult(const Table& got, const Table& want, double rel_tol,
                std::string* why) {
  const std::vector<Row>& g = got.rows();
  const std::vector<Row>& w = want.rows();
  if (g.size() != w.size()) {
    *why = "row count " + std::to_string(g.size()) + " != reference " +
           std::to_string(w.size());
    return false;
  }
  if (g.empty()) return true;
  const size_t width = w[0].size();
  for (const auto* rows : {&g, &w}) {
    for (const Row& r : *rows) {
      if (r.size() != width) {
        *why = "row width differs";
        return false;
      }
    }
  }
  // Columns holding a double on either side compare approximately; sort
  // on the exact columns first so near-equal doubles cannot reorder rows
  // that the exact columns already tell apart.
  std::vector<bool> approx(width, false);
  for (const auto* rows : {&g, &w}) {
    for (const Row& r : *rows) {
      for (size_t c = 0; c < width; ++c) {
        approx[c] = approx[c] || r[c].is_double();
      }
    }
  }
  std::vector<size_t> order;
  for (size_t c = 0; c < width; ++c) if (!approx[c]) order.push_back(c);
  for (size_t c = 0; c < width; ++c) if (approx[c]) order.push_back(c);
  auto less = [&](const Row* a, const Row* b) {
    for (size_t c : order) {
      const Value& x = (*a)[c];
      const Value& y = (*b)[c];
      if (approx[c] && x.is_numeric() && y.is_numeric()) {
        if (x.AsDouble() != y.AsDouble()) return x.AsDouble() < y.AsDouble();
        continue;
      }
      const int cmp = x.Compare(y);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  std::vector<const Row*> gs;
  std::vector<const Row*> ws;
  for (const Row& r : g) gs.push_back(&r);
  for (const Row& r : w) ws.push_back(&r);
  std::sort(gs.begin(), gs.end(), less);
  std::sort(ws.begin(), ws.end(), less);
  for (size_t i = 0; i < gs.size(); ++i) {
    for (size_t c = 0; c < width; ++c) {
      const Value& x = (*gs[i])[c];
      const Value& y = (*ws[i])[c];
      const bool ok = approx[c] ? Approx(x, y, rel_tol) : x == y;
      if (!ok) {
        *why = "row " + std::to_string(i) + " column " + std::to_string(c) +
               ": " + x.ToString() + " != reference " + y.ToString();
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench

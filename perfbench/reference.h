// Single-node reference for the output-correctness check: the program's
// public parse/bind/plan and Executor over copies of the base tables,
// with no federation, routing or merge in between.
#pragma once

#include <map>
#include <string>

#include "common/result.h"
#include "cost/stats_provider.h"
#include "storage/table.h"

namespace perfbench {

class Reference {
 public:
  /// Registers a base table under its own name.
  void AddTable(fedcal::TablePtr table);
  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }
  /// Parses, binds, plans and executes `sql` on one node.
  fedcal::Result<fedcal::TablePtr> Run(const std::string& sql) const;

 private:
  std::map<std::string, fedcal::TablePtr> tables_;
  fedcal::StatsCatalog stats_;
};

/// Order-insensitive multiset equality of two results. Values compare
/// exactly except where either side holds a double, which compares within
/// relative tolerance `rel_tol` (aggregates merged across servers may sum
/// in another order). On a mismatch `why` says where.
bool SameResult(const fedcal::Table& got, const fedcal::Table& want,
                double rel_tol, std::string* why);

}  // namespace perfbench

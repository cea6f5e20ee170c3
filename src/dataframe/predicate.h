// Conjunctive selection predicates: attr IN {v1, ..., vk} AND ...
//
// This is the WHERE-clause language of the paper's Listing-1 queries.

#ifndef HYPDB_DATAFRAME_PREDICATE_H_
#define HYPDB_DATAFRAME_PREDICATE_H_

#include <string>
#include <vector>

#include "dataframe/table.h"
#include "util/statusor.h"

namespace hypdb {

/// One named conjunct: column `attribute` IN `values`. A canonical
/// subpopulation signature parses into these (service/request.h), and the
/// chunked store selects rows by them (storage/chunked_table.h).
struct SubpopulationTerm {
  std::string attribute;
  std::vector<std::string> values;
};

/// One conjunct: column `col` must take a code marked true in `allowed`.
struct PredicateTerm {
  int col = -1;
  std::vector<bool> allowed;  // indexed by code
};

/// A conjunction of IN-list terms. An empty predicate matches everything.
class Predicate {
 public:
  Predicate() = default;

  /// Adds the conjunct `column IN values`. Values absent from the column's
  /// dictionary are ignored (they match no row); if none of the values
  /// exist the term matches nothing.
  static StatusOr<Predicate> FromInLists(
      const Table& table,
      const std::vector<std::pair<std::string, std::vector<std::string>>>&
          terms);

  void AddTerm(PredicateTerm term) { terms_.push_back(std::move(term)); }

  bool Matches(const Table& table, int64_t row) const {
    for (const auto& t : terms_) {
      int32_t code = table.column(t.col).CodeAt(row);
      if (code < 0 || code >= static_cast<int32_t>(t.allowed.size()) ||
          !t.allowed[code]) {
        return false;
      }
    }
    return true;
  }

  bool empty() const { return terms_.empty(); }
  const std::vector<PredicateTerm>& terms() const { return terms_; }

 private:
  std::vector<PredicateTerm> terms_;
};

}  // namespace hypdb

#endif  // HYPDB_DATAFRAME_PREDICATE_H_

// The OLAP query class HypDB analyzes (paper Listing 1):
//
//   SELECT T, X, avg(Y1), ..., avg(Ye)
//   FROM D
//   WHERE C
//   GROUP BY T, X
//
// The first group-by attribute is the treatment T whose causal effect on
// the outcomes the analyst intends to measure; the remaining group-by
// attributes X carve the data into contexts Γ_i = C ∧ (X = x_i); C is a
// conjunction of IN-lists.

#ifndef HYPDB_CORE_QUERY_H_
#define HYPDB_CORE_QUERY_H_

#include <string>
#include <utility>
#include <vector>

#include "dataframe/table.h"
#include "dataframe/view.h"
#include "util/statusor.h"

namespace hypdb {

class CountEngine;

struct AggQuery {
  std::string table_name = "D";
  /// Treatment attribute T (first GROUP BY column).
  std::string treatment;
  /// Additional grouping attributes X (contexts).
  std::vector<std::string> grouping;
  /// avg() outcome attributes Y1..Ye (labels must be numeric, e.g. 0/1).
  std::vector<std::string> outcomes;
  /// WHERE: conjunction of `attr IN {values}` terms.
  std::vector<std::pair<std::string, std::vector<std::string>>> where;

  /// Renders the Listing-1 SQL text of this query.
  std::string ToSql() const;
};

/// One group of the plain query answer: a treatment value within one
/// context, with its row count and outcome averages.
struct GroupAnswer {
  std::string treatment_label;
  int64_t count = 0;
  std::vector<double> averages;  // one per outcome
};

/// Answers within one context (one X-cell; a single anonymous context
/// when the query has no extra grouping attributes).
struct ContextAnswer {
  std::vector<std::string> context_labels;  // aligned with query.grouping
  std::vector<GroupAnswer> groups;          // sorted by treatment label

  /// Difference avg(Y_o | t1) - avg(Y_o | t0) between two labeled groups;
  /// NaN when either group is missing.
  double Difference(const std::string& t1, const std::string& t0,
                    int outcome_idx) const;
};

/// The full plain-query result (the biased answers of Listing 1).
struct QueryAnswers {
  std::vector<std::string> outcome_names;
  std::vector<ContextAnswer> contexts;
};

/// Resolved column indices of a query against a table.
struct BoundQuery {
  int treatment = -1;
  std::vector<int> grouping;
  std::vector<int> outcomes;
  TableView population;  // WHERE-filtered view over the full table
};

/// Validates `query` against `table` and applies the WHERE clause. It
/// counts nothing: the treatment census is a count through the engine
/// of the population (TreatmentsIn, core/rewriter.h).
StatusOr<BoundQuery> BindQuery(const TablePtr& table, const AggQuery& query);

/// One context Γ_i = C ∧ (X = x_i): its labels and its rows.
struct Context {
  std::vector<std::string> labels;  // aligned with query.grouping
  TableView view;
};

/// Splits the bound population into contexts by the grouping attributes
/// (a single anonymous context when there are none). Contexts are sorted
/// by their group key.
StatusOr<std::vector<Context>> SplitContexts(const TablePtr& table,
                                             const BoundQuery& bound);

/// Evaluates the plain (biased) group-by-average query of an already
/// bound `query`, its averages derived from `population`'s counts
/// (count(*) GROUP BY T, X..., Y — see AverageBy). `population` must
/// aggregate exactly bound.population.
StatusOr<QueryAnswers> EvaluateBoundQuery(const TablePtr& table,
                                          const AggQuery& query,
                                          const BoundQuery& bound,
                                          CountEngine& population);

}  // namespace hypdb

#endif  // HYPDB_CORE_QUERY_H_

#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "dataframe/group_by.h"
#include "dataframe/predicate.h"
#include "engine/count_engine.h"
#include "util/string_util.h"

namespace hypdb {

std::string AggQuery::ToSql() const {
  std::vector<std::string> select;
  select.push_back(treatment);
  for (const auto& g : grouping) select.push_back(g);
  for (const auto& y : outcomes) select.push_back("avg(" + y + ")");
  std::string sql = "SELECT " + Join(select, ", ") + "\nFROM " + table_name;
  if (!where.empty()) {
    std::vector<std::string> terms;
    for (const auto& [attr, values] : where) {
      std::vector<std::string> quoted;
      for (const auto& v : values) quoted.push_back("'" + v + "'");
      terms.push_back(attr + " IN (" + Join(quoted, ", ") + ")");
    }
    sql += "\nWHERE " + Join(terms, " AND ");
  }
  std::vector<std::string> group = {treatment};
  for (const auto& g : grouping) group.push_back(g);
  sql += "\nGROUP BY " + Join(group, ", ");
  return sql;
}

double ContextAnswer::Difference(const std::string& t1, const std::string& t0,
                                 int outcome_idx) const {
  const GroupAnswer* g1 = nullptr;
  const GroupAnswer* g0 = nullptr;
  for (const auto& g : groups) {
    if (g.treatment_label == t1) g1 = &g;
    if (g.treatment_label == t0) g0 = &g;
  }
  if (g1 == nullptr || g0 == nullptr) return std::nan("");
  return g1->averages[outcome_idx] - g0->averages[outcome_idx];
}

StatusOr<BoundQuery> BindQuery(const TablePtr& table, const AggQuery& query) {
  BoundQuery bound;
  if (query.treatment.empty()) {
    return Status::InvalidArgument("query has no treatment attribute");
  }
  if (query.outcomes.empty()) {
    return Status::InvalidArgument("query has no avg() outcome");
  }
  HYPDB_ASSIGN_OR_RETURN(bound.treatment,
                         table->ColumnIndex(query.treatment));
  std::set<int> used = {bound.treatment};
  for (const auto& g : query.grouping) {
    HYPDB_ASSIGN_OR_RETURN(int col, table->ColumnIndex(g));
    if (!used.insert(col).second) {
      return Status::InvalidArgument("attribute " + g +
                                     " used twice in GROUP BY");
    }
    bound.grouping.push_back(col);
  }
  for (const auto& y : query.outcomes) {
    HYPDB_ASSIGN_OR_RETURN(int col, table->ColumnIndex(y));
    if (used.count(col) > 0) {
      return Status::InvalidArgument("outcome " + y +
                                     " also appears in GROUP BY");
    }
    if (!table->column(col).IsNumericLike()) {
      return Status::InvalidArgument("outcome " + y +
                                     " has non-numeric labels");
    }
    bound.outcomes.push_back(col);
  }

  HYPDB_ASSIGN_OR_RETURN(Predicate pred,
                         Predicate::FromInLists(*table, query.where));
  bound.population = TableView(table).Filter(pred);
  if (bound.population.NumRows() == 0) {
    return Status::FailedPrecondition("WHERE clause selects no rows");
  }

  // Treatment values present in the population.
  HYPDB_ASSIGN_OR_RETURN(GroupCounts t_counts,
                         CountBy(bound.population, {bound.treatment}));
  const Column& t_col = table->column(bound.treatment);
  for (uint64_t key : t_counts.keys) {
    bound.treatment_labels.push_back(
        t_col.dict().Label(static_cast<int32_t>(key)));
  }
  std::sort(bound.treatment_labels.begin(), bound.treatment_labels.end());
  return bound;
}

StatusOr<std::vector<Context>> SplitContexts(const TablePtr& table,
                                             const BoundQuery& bound) {
  std::vector<Context> contexts;
  if (bound.grouping.empty()) {
    contexts.push_back(Context{{}, bound.population});
    return contexts;
  }
  HYPDB_ASSIGN_OR_RETURN(GroupedRows groups,
                         CollectGroups(bound.population, bound.grouping));
  for (int g = 0; g < groups.NumGroups(); ++g) {
    Context ctx;
    for (size_t i = 0; i < bound.grouping.size(); ++i) {
      ctx.labels.push_back(table->column(bound.grouping[i])
                               .dict()
                               .Label(groups.codec.DecodeAt(groups.keys[g],
                                                            static_cast<int>(i))));
    }
    ctx.view = bound.population.WithRows(groups.rows[g]);
    contexts.push_back(std::move(ctx));
  }
  return contexts;
}

StatusOr<QueryAnswers> EvaluateBoundQuery(const TablePtr& table,
                                          const AggQuery& query,
                                          const BoundQuery& bound,
                                          CountEngine& population) {
  std::vector<int> group_cols = {bound.treatment};
  group_cols.insert(group_cols.end(), bound.grouping.begin(),
                    bound.grouping.end());
  HYPDB_ASSIGN_OR_RETURN(
      GroupedAverages averages,
      AverageBy(population, *table, group_cols, bound.outcomes));

  QueryAnswers answers;
  answers.outcome_names = query.outcomes;

  // Split groups into contexts: the context key is everything but the
  // treatment digit (position 0 in the codec).
  std::vector<int> ctx_positions;
  for (size_t i = 1; i < group_cols.size(); ++i) {
    ctx_positions.push_back(static_cast<int>(i));
  }
  TupleCodec ctx_codec = averages.codec.Project(ctx_positions);
  std::map<uint64_t, size_t> ctx_index;
  const Column& t_col = table->column(bound.treatment);
  for (int g = 0; g < averages.NumGroups(); ++g) {
    std::vector<int32_t> codes(ctx_positions.size());
    for (size_t i = 0; i < ctx_positions.size(); ++i) {
      codes[i] = averages.codec.DecodeAt(averages.keys[g], ctx_positions[i]);
    }
    uint64_t ctx_key = ctx_codec.EncodeCodes(codes);
    auto [it, inserted] = ctx_index.emplace(ctx_key, answers.contexts.size());
    if (inserted) {
      ContextAnswer ctx;
      for (size_t i = 0; i < bound.grouping.size(); ++i) {
        ctx.context_labels.push_back(
            table->column(bound.grouping[i]).dict().Label(codes[i]));
      }
      answers.contexts.push_back(std::move(ctx));
    }
    GroupAnswer group;
    group.treatment_label =
        t_col.dict().Label(averages.codec.DecodeAt(averages.keys[g], 0));
    group.count = averages.counts[g];
    group.averages = averages.means[g];
    answers.contexts[it->second].groups.push_back(std::move(group));
  }
  for (auto& ctx : answers.contexts) {
    std::sort(ctx.groups.begin(), ctx.groups.end(),
              [](const GroupAnswer& a, const GroupAnswer& b) {
                return a.treatment_label < b.treatment_label;
              });
  }
  return answers;
}

}  // namespace hypdb

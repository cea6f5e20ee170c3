#include "core/sql_printer.h"

#include <algorithm>

#include "util/string_util.h"

namespace hypdb {
namespace {

using Names = std::vector<std::string>;

// `a` then the members of `b` not already listed: each column named once,
// at its first occurrence.
Names Union(Names a, const Names& b) {
  for (const auto& x : b) {
    if (std::find(a.begin(), a.end(), x) == a.end()) a.push_back(x);
  }
  return a;
}

// `l.c = r.c` for every column c; `l.c` alone when `r` is empty.
Names Matches(const std::string& l, const std::string& r, const Names& cols) {
  Names out;
  for (const auto& c : cols) {
    out.push_back(l + "." + c + (r.empty() ? "" : " = " + r + "." + c));
  }
  return out;
}

// The query's WHERE terms `attr IN ('v', ...)`, then `extra`.
Names WhereTerms(const AggQuery& query, const Names& extra = {}) {
  Names terms;
  for (const auto& [attr, values] : query.where) {
    Names quoted;
    for (const auto& v : values) quoted.push_back("'" + v + "'");
    terms.push_back(attr + " IN (" + Join(quoted, ", ") + ")");
  }
  terms.insert(terms.end(), extra.begin(), extra.end());
  return terms;
}

// `name` AS (SELECT `select` FROM `from` WHERE C ∧ `extra` GROUP BY
// `group` [HAVING `having`]).
std::string Cte(const AggQuery& query, const std::string& name,
                const Names& select, const std::string& from,
                const Names& extra, const Names& group,
                const std::string& having = "") {
  const Names where = WhereTerms(query, extra);
  return name + " AS (\n  SELECT " + Join(select, ", ") + "\n  FROM " +
         from + "\n" +
         (where.empty() ? "" : "  WHERE " + Join(where, " AND ") + "\n") +
         (group.empty() ? "" : "  GROUP BY " + Join(group, ", ") + "\n") +
         having + ")";
}

// Each context's treatment count, the rewriter's inventory of it, as
// NumTreatments by X.
std::string Contexts(const AggQuery& query) {
  Names select = query.grouping;
  select.push_back("count(DISTINCT " + query.treatment +
                   ") AS NumTreatments");
  return Cte(query, "Contexts", select, query.table_name, {},
             query.grouping);
}

// The table joined to the Contexts row of each row's context.
std::string WithContexts(const AggQuery& query) {
  return query.grouping.empty()
             ? query.table_name + ", Contexts"
             : query.table_name + " JOIN Contexts USING (" +
                   Join(query.grouping, ", ") + ")";
}

// avg(Y) GROUP BY T, `cols` within C: Listing 2's Blocks.
std::string Blocks(const AggQuery& query, const std::string& name,
                   const Names& cols) {
  Names group = {query.treatment};
  group.insert(group.end(), cols.begin(), cols.end());
  Names avgs;
  for (size_t i = 0; i < query.outcomes.size(); ++i) {
    avgs.push_back("avg(" + query.outcomes[i] + ") AS Avg" +
                   std::to_string(i + 1));
  }
  return Cte(query, name,
             {Join(group, ", ") + ",\n         " + Join(avgs, ", ")},
             query.table_name, {}, group);
}

// `cols` and `alias`: each group's share of the rows of its `partition`
// (the whole result when empty), over the groups that survive HAVING.
Names Share(Names cols, const Names& partition, const std::string& share,
            const std::string& alias) {
  cols.push_back(share + " * 1.0 / sum(" + share + ") OVER (" +
                 (partition.empty() ? ""
                                    : "PARTITION BY " + Join(partition, ", ")) +
                 ") AS " + alias);
  return cols;
}

// Σ Avg · W per (T, X), joining `blocks` to `weights` on `on`.
std::string Outer(const AggQuery& query, const std::string& blocks,
                  const std::string& weights, const Names& on) {
  Names group = Matches(blocks, "", {query.treatment});
  for (const auto& x : Matches(blocks, "", query.grouping)) group.push_back(x);
  Names select = group;
  for (size_t i = 0; i < query.outcomes.size(); ++i) {
    select.push_back("sum(Avg" + std::to_string(i + 1) + " * W)");
  }
  return "SELECT " + Join(select, ", ") + "\nFROM " + blocks + ", " +
         weights + "\n" +
         (on.empty() ? ""
                     : "WHERE " +
                           Join(Matches(blocks, weights, on), " AND\n      ") +
                           "\n") +
         "GROUP BY " + Join(group, ", ");
}

}  // namespace

std::string RewrittenTotalSql(const AggQuery& query,
                              const Names& covariates) {
  // Blocks group by T, Z ∪ X and Weights by Z ∪ X (Listing 2); a
  // covariate that is also a grouping attribute is named once. A block
  // is kept when it holds every treatment of its context (exact
  // matching), and its weight is its share of the kept rows of that
  // context.
  const Names zx = Union(covariates, query.grouping);
  Names weight_group = zx;
  weight_group.push_back("NumTreatments");
  return "WITH " + Blocks(query, "Blocks", zx) + ",\n" + Contexts(query) +
         ",\n" +
         Cte(query, "Weights", Share(zx, query.grouping, "count(*)", "W"),
             WithContexts(query), {}, weight_group,
             "  HAVING count(DISTINCT " + query.treatment +
                 ") = NumTreatments\n") +
         "\n" + Outer(query, "Blocks", "Weights", zx);
}

std::string RewrittenDirectSql(const AggQuery& query,
                               const Names& covariates,
                               const Names& mediators,
                               const std::string& reference) {
  // Eq. 3 per context X: Σ_{z,m} E[Y|T,m,X] · Pr(m|T=ref,z,X) · Pr(z|X)
  // over the terms whose m every treatment of the context reaches
  // (Reach), the weights renormalized over those terms (as ComputeDirect
  // does). A column that is both mediator and covariate is named once,
  // among the mediators (ComputeDirect counts it once too).
  const Names& x = query.grouping;
  const Names mz = Union(mediators, covariates);
  const Names z_rest(mz.begin() + mediators.size(), mz.end());
  const Names mx = Union(mediators, x);
  const Names zx = Union(covariates, x);
  const std::string table = query.table_name;
  const std::string ref = query.treatment + " = '" + reference + "'";
  auto list = [](const Names& cols) {
    return cols.empty() ? std::string("()") : Join(cols, ", ");
  };
  Names z_only;
  for (const auto& z : covariates) {
    if (std::find(x.begin(), x.end(), z) == x.end()) z_only.push_back(z);
  }
  Names reach = mx;
  reach.push_back("count(*) AS NumReached");
  Names where = Matches("Terms", "ZWeights", zx);
  for (const auto& eq : Matches("Terms", "Reach", mx)) where.push_back(eq);
  for (const auto& eq : Matches("Terms", "Contexts", x)) where.push_back(eq);
  where.push_back("NumReached = NumTreatments");
  return "WITH " + Blocks(query, "MBlocks", mx) + ",\n" + Contexts(query) +
         ",\n" +
         Cte(query, "ZWeights", Share(zx, x, "count(*)", "PZ"), table, {},
             zx) +
         ",\n" +
         Cte(query, "Terms", Share(Union(mz, x), zx, "count(*)", "PM"), table,
             {ref}, Union(mz, x)) +
         ",\nReach AS (\n  SELECT " + Join(reach, ", ") +
         "\n  FROM MBlocks\n" +
         (mx.empty() ? "" : "  GROUP BY " + Join(mx, ", ") + "\n") +
         "),\nMWeights AS (\n  -- W = Pr(" + list(mediators) + " | " + ref +
         ", " + list(Union(z_rest, x)) + ") * Pr(" + list(z_only) +
         (x.empty() ? "" : " | " + Join(x, ", ")) + ")\n  SELECT " +
         Join(Share(Matches("Terms", "", mx), Matches("Terms", "", x),
                    "PM * PZ", "W"),
              ", ") +
         "\n  FROM Terms, ZWeights, Reach, Contexts\n  WHERE " +
         Join(where, " AND\n        ") + "\n)\n" +
         Outer(query, "MBlocks", "MWeights", mx);
}

}  // namespace hypdb

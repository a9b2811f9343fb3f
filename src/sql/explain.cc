#include "sql/explain.h"

#include "common/table_printer.h"

namespace blend::sql {

std::string PlanDescription::Render() const {
  std::vector<std::string> header = {"operator", "detail", "est_rows",
                                     "planned_tasks"};
  if (analyzed) {
    header.push_back("time_ms");
    header.push_back("tasks");
    header.push_back("rows");
  }
  TablePrinter printer(std::move(header));
  for (const PlanNode& node : nodes) {
    std::vector<std::string> row;
    row.push_back(std::string(static_cast<size_t>(node.depth) * 2, ' ') +
                  node.op);
    row.push_back(node.detail);
    row.push_back(node.est_rows < 0 ? "?" : std::to_string(node.est_rows));
    row.push_back(node.planned_tasks < 0 ? "?"
                                         : std::to_string(node.planned_tasks));
    if (analyzed) {
      row.push_back(node.actual_seconds < 0
                        ? "-"
                        : TablePrinter::Fmt(node.actual_seconds * 1e3, 3));
      row.push_back(node.actual_tasks < 0 ? "-" : std::to_string(node.actual_tasks));
      row.push_back(node.actual_rows < 0 ? "-" : std::to_string(node.actual_rows));
    }
    printer.AddRow(std::move(row));
  }
  return printer.Render(analyzed ? "EXPLAIN ANALYZE" : "EXPLAIN");
}

}  // namespace blend::sql

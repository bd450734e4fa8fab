#ifndef CRACKDB_BENCH_UTIL_REPORT_H_
#define CRACKDB_BENCH_UTIL_REPORT_H_

#include <string>
#include <vector>

namespace crackdb::bench {

/// Plain-text emitters for the bench binaries. Every figure/table of the
/// paper is regenerated as a labelled block of rows that can be diffed,
/// plotted, or grepped:
///
///   # figure <id>: <title>
///   # series <name>
///   x y [y2 ...]
///
/// plus aligned tables for the paper's cost-breakdown tables.

void FigureHeader(const std::string& id, const std::string& title,
                  const std::string& x_label, const std::string& y_label);
void SeriesHeader(const std::string& name);
void Point(double x, double y);
void Point(double x, double y, double y2);

/// Aligned-column table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Fmt(double v, int precision = 2);

/// One-line snapshot of the process-wide metrics registry, emitted at the
/// end of every bench run so an overnight log carries the counters next
/// to the figures: `# metrics name=value ...` for every non-zero counter
/// and gauge (histograms contribute `name_count`/`name_sum`).
void PrintMetricsSnapshotLine();

}  // namespace crackdb::bench

#endif  // CRACKDB_BENCH_UTIL_REPORT_H_

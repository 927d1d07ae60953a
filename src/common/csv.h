/**
 * @file
 * Minimal CSV reader/writer. Carbon Explorer's benchmark harnesses dump
 * every regenerated table/figure as CSV next to the textual output so
 * results can be re-plotted, and users can feed their own hourly grid /
 * load traces into the framework in the same format.
 */

#ifndef CARBONX_COMMON_CSV_H
#define CARBONX_COMMON_CSV_H

#include <iosfwd>
#include <string>
#include <vector>

namespace carbonx
{

/** In-memory CSV table: a header row plus numeric-or-text data rows. */
class CsvTable
{
  public:
    CsvTable() = default;

    /** Create a table with the given column names. */
    explicit CsvTable(std::vector<std::string> header);

    /** Append a row of raw cell strings; must match header width. */
    void addRow(std::vector<std::string> cells);

    /** Append a row of doubles, formatted with %.6g. */
    void addNumericRow(const std::vector<double> &values);

    const std::vector<std::string> &header() const { return header_; }
    size_t numRows() const { return rows_.size(); }
    size_t numCols() const { return header_.size(); }

    const std::string &cell(size_t row, size_t col) const;

    /** Parse the cell as a double. @throws UserError on non-numeric. */
    double numericCell(size_t row, size_t col) const;

    /** Serialize to a stream, RFC-4180 style quoting where needed. */
    void write(std::ostream &os) const;

    /** Serialize to a file. @throws UserError when unwritable. */
    void writeFile(const std::string &path) const;

    /** Parse from a stream; the first line is the header. */
    static CsvTable read(std::istream &is);

    /** Parse from a file. @throws UserError when unreadable. */
    static CsvTable readFile(const std::string &path);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace carbonx

#endif // CARBONX_COMMON_CSV_H

#include "csv.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "error.h"

namespace carbonx
{

namespace
{

/** Quote a cell if it contains separators, quotes, or newlines. */
std::string
escapeCell(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** Split one CSV line honoring double-quoted cells. */
std::vector<std::string>
splitLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cur;
    bool in_quotes = false;
    for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            cells.push_back(std::move(cur));
            cur.clear();
        } else if (c != '\r') {
            cur += c;
        }
    }
    cells.push_back(std::move(cur));
    return cells;
}

} // namespace

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    require(!header_.empty(), "CSV header must have at least one column");
}

void
CsvTable::addRow(std::vector<std::string> cells)
{
    require(cells.size() == header_.size(),
            "CSV row width does not match header");
    rows_.push_back(std::move(cells));
}

void
CsvTable::addNumericRow(const std::vector<double> &values)
{
    std::vector<std::string> cells;
    cells.reserve(values.size());
    for (double v : values) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        cells.emplace_back(buf);
    }
    addRow(std::move(cells));
}

const std::string &
CsvTable::cell(size_t row, size_t col) const
{
    require(row < rows_.size() && col < header_.size(),
            "CSV cell index out of range");
    return rows_[row][col];
}

double
CsvTable::numericCell(size_t row, size_t col) const
{
    const std::string &s = cell(row, col);
    double out = 0.0;
    const auto *first = s.data();
    const auto *last = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(first, last, out);
    require(ec == std::errc() && ptr == last,
            "CSV cell is not numeric: '" + s + "'");
    return out;
}

void
CsvTable::write(std::ostream &os) const
{
    for (size_t i = 0; i < header_.size(); ++i)
        os << (i ? "," : "") << escapeCell(header_[i]);
    os << '\n';
    for (const auto &row : rows_) {
        for (size_t i = 0; i < row.size(); ++i)
            os << (i ? "," : "") << escapeCell(row[i]);
        os << '\n';
    }
}

void
CsvTable::writeFile(const std::string &path) const
{
    std::ofstream f(path);
    require(f.good(), "cannot open CSV for writing: " + path);
    write(f);
}

CsvTable
CsvTable::read(std::istream &is)
{
    std::string line;
    require(static_cast<bool>(std::getline(is, line)),
            "CSV stream is empty");
    CsvTable table(splitLine(line));
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        table.addRow(splitLine(line));
    }
    return table;
}

CsvTable
CsvTable::readFile(const std::string &path)
{
    std::ifstream f(path);
    require(f.good(), "cannot open CSV for reading: " + path);
    return read(f);
}

} // namespace carbonx

/**
 * @file
 * Unit tests for CSV serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.h"
#include "common/error.h"

namespace carbonx
{
namespace
{

TEST(Csv, RoundTripSimpleTable)
{
    CsvTable t({"hour", "wind_mw", "solar_mw"});
    t.addNumericRow({0, 120.5, 0});
    t.addNumericRow({1, 118.25, 0});
    t.addNumericRow({12, 90, 250.75});

    std::stringstream ss;
    t.write(ss);
    const CsvTable back = CsvTable::read(ss);

    EXPECT_EQ(back.numRows(), 3u);
    EXPECT_EQ(back.numCols(), 3u);
    EXPECT_EQ(back.header()[1], "wind_mw");
    EXPECT_DOUBLE_EQ(back.numericCell(0, 1), 120.5);
    EXPECT_DOUBLE_EQ(back.numericCell(2, 2), 250.75);
}

TEST(Csv, QuotedCellsWithCommasAndQuotes)
{
    CsvTable t({"site", "note"});
    t.addRow({"Prineville, Oregon", "wind \"lulls\" matter"});

    std::stringstream ss;
    t.write(ss);
    const CsvTable back = CsvTable::read(ss);
    EXPECT_EQ(back.cell(0, 0), "Prineville, Oregon");
    EXPECT_EQ(back.cell(0, 1), "wind \"lulls\" matter");
}

TEST(Csv, RejectsWidthMismatch)
{
    CsvTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), UserError);
}

TEST(Csv, RejectsNonNumericCell)
{
    CsvTable t({"a"});
    t.addRow({"not-a-number"});
    EXPECT_THROW(t.numericCell(0, 0), UserError);
}

TEST(Csv, RejectsOutOfRangeAccess)
{
    CsvTable t({"a"});
    t.addNumericRow({1});
    EXPECT_THROW(t.cell(1, 0), UserError);
    EXPECT_THROW(t.cell(0, 1), UserError);
}

TEST(Csv, RejectsEmptyStream)
{
    std::stringstream ss;
    EXPECT_THROW(CsvTable::read(ss), UserError);
}

TEST(Csv, SkipsBlankLines)
{
    std::stringstream ss("a,b\n1,2\n\n3,4\n");
    const CsvTable t = CsvTable::read(ss);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_DOUBLE_EQ(t.numericCell(1, 1), 4.0);
}

TEST(Csv, HandlesCrLfLineEndings)
{
    std::stringstream ss("a,b\r\n1,2\r\n");
    const CsvTable t = CsvTable::read(ss);
    EXPECT_EQ(t.numRows(), 1u);
    EXPECT_DOUBLE_EQ(t.numericCell(0, 1), 2.0);
}

TEST(Csv, FileRoundTrip)
{
    CsvTable t({"v"});
    t.addNumericRow({3.5});
    const std::string path =
        testing::TempDir() + "/carbonx_csv_test.csv";
    t.writeFile(path);
    const CsvTable back = CsvTable::readFile(path);
    EXPECT_DOUBLE_EQ(back.numericCell(0, 0), 3.5);
}

TEST(Csv, ReadFileRejectsMissingPath)
{
    EXPECT_THROW(CsvTable::readFile("/nonexistent/path/x.csv"),
                 UserError);
}

} // namespace
} // namespace carbonx

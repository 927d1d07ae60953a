/**
 * @file
 * Tests of the CLI flag parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arg_parser.h"

namespace carbonx::tools
{
namespace
{

/** Build an ArgParser from a braced list of C-string arguments. */
ArgParser
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "carbonx");
    return ArgParser(static_cast<int>(args.size()),
                     const_cast<char **>(args.data()));
}

TEST(ArgParser, PositionalsAndFlags)
{
    const ArgParser p =
        parse({"optimize", "--ba", "PACE", "--dc", "19"});
    ASSERT_EQ(p.positionals().size(), 1u);
    EXPECT_EQ(p.positionals()[0], "optimize");
    EXPECT_EQ(p.getString("ba", ""), "PACE");
    EXPECT_DOUBLE_EQ(p.getDouble("dc", 0.0), 19.0);
}

TEST(ArgParser, EqualsSyntax)
{
    const ArgParser p = parse({"coverage", "--solar=123.5",
                               "--ba=ERCO"});
    EXPECT_DOUBLE_EQ(p.getDouble("solar", 0.0), 123.5);
    EXPECT_EQ(p.getString("ba", ""), "ERCO");
}

TEST(ArgParser, DefaultsApplyWhenAbsent)
{
    const ArgParser p = parse({"sites"});
    EXPECT_EQ(p.getString("ba", "PACE"), "PACE");
    EXPECT_DOUBLE_EQ(p.getDouble("dc", 19.0), 19.0);
    EXPECT_FALSE(p.has("ba"));
}

TEST(ArgParser, BareFlagIsBooleanTrue)
{
    const ArgParser p = parse({"optimize", "--verbose"});
    EXPECT_TRUE(p.getBool("verbose"));
    EXPECT_FALSE(p.getBool("quiet"));
    EXPECT_EQ(p.getString("verbose", ""), "true");
}

TEST(ArgParser, RequireKnownFlagsNamesTheFirstUnknownFlag)
{
    const ArgParser ok = parse({"coverage", "--ba", "PACE", "--solar=5"});
    EXPECT_NO_THROW(ok.requireKnownFlags({"ba", "solar", "wind"}));

    const ArgParser typo =
        parse({"optimize", "--trace-ot", "t.json", "--help", "--ba=X"});
    try {
        typo.requireKnownFlags({"ba", "trace-out"});
        FAIL() << "undeclared flags were accepted";
    } catch (const UserError &e) {
        // Flags are checked in name order: --help before --trace-ot.
        EXPECT_NE(std::string(e.what()).find("--help"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ArgParser, BooleanFalseValues)
{
    const ArgParser p = parse({"x", "--a=false", "--b=0", "--c=yes"});
    EXPECT_FALSE(p.getBool("a", true));
    EXPECT_FALSE(p.getBool("b", true));
    EXPECT_TRUE(p.getBool("c", false));
}

TEST(ArgParser, TrailingBareFlagBeforeAnotherFlag)
{
    const ArgParser p = parse({"x", "--dry-run", "--ba", "DUK"});
    EXPECT_TRUE(p.getBool("dry-run"));
    EXPECT_EQ(p.getString("ba", ""), "DUK");
}

TEST(ArgParser, NonNumericValueThrows)
{
    const ArgParser p = parse({"x", "--dc", "abc"});
    EXPECT_THROW(p.getDouble("dc", 0.0), carbonx::UserError);
}

TEST(ArgParser, MultiplePositionals)
{
    const ArgParser p = parse({"a", "b", "--k", "v", "c"});
    ASSERT_EQ(p.positionals().size(), 3u);
    EXPECT_EQ(p.positionals()[2], "c");
}

TEST(ArgParser, LaterFlagWins)
{
    const ArgParser p = parse({"x", "--ba", "PACE", "--ba", "DUK"});
    EXPECT_EQ(p.getString("ba", ""), "DUK");
}

TEST(ArgParser, GetIntParsesExactIntegers)
{
    const ArgParser p = parse({"x", "--year", "2021", "--offset=-7"});
    EXPECT_EQ(p.getInt("year", 2020), 2021);
    EXPECT_EQ(p.getInt("offset", 0), -7);
    EXPECT_EQ(p.getInt("absent", 42), 42);
}

TEST(ArgParser, GetIntRejectsNonIntegerValues)
{
    const ArgParser p = parse({"x", "--a", "2020.5", "--b", "12abc",
                               "--c", "abc", "--d=" });
    EXPECT_THROW(p.getInt("a", 0), carbonx::UserError);
    EXPECT_THROW(p.getInt("b", 0), carbonx::UserError);
    EXPECT_THROW(p.getInt("c", 0), carbonx::UserError);
    EXPECT_THROW(p.getInt("d", 0), carbonx::UserError);
}

TEST(ArgParser, GetUint64KeepsFullSixtyFourBitPrecision)
{
    // 2^53 + 1 and friends are exactly the seeds a double round-trip
    // silently corrupts.
    const ArgParser p =
        parse({"x", "--seed", "9007199254740993",
               "--max=18446744073709551615"});
    EXPECT_EQ(p.getUint64("seed", 0), 9007199254740993ull);
    EXPECT_EQ(p.getUint64("max", 0), 18446744073709551615ull);
    EXPECT_EQ(p.getUint64("absent", 7), 7u);
}

TEST(ArgParser, GetUint64RejectsNegativeAndMalformedValues)
{
    const ArgParser p = parse({"x", "--a", "-1", "--b", "1.5",
                               "--c", "seed", "--d",
                               "99999999999999999999"});
    EXPECT_THROW(p.getUint64("a", 0), carbonx::UserError);
    EXPECT_THROW(p.getUint64("b", 0), carbonx::UserError);
    EXPECT_THROW(p.getUint64("c", 0), carbonx::UserError);
    // Larger than 2^64 - 1: out_of_range must surface as UserError too.
    EXPECT_THROW(p.getUint64("d", 0), carbonx::UserError);
}

} // namespace
} // namespace carbonx::tools

/**
 * @file
 * Unit tests for the common substrate: logging discipline,
 * deterministic RNG, bit-slice helpers, the integer parser, the
 * statistics tree and the bench table printer.
 */

#include <gtest/gtest.h>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace canon
{
namespace
{

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    try {
        panic("value=", 7);
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
    }
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
    EXPECT_NO_THROW(fatalIf(false, "not reached"));
    EXPECT_THROW(fatalIf(true, "reached"), FatalError);
}

TEST(Logging, PanicIfConditional)
{
    EXPECT_NO_THROW(panicIf(false, "fine"));
    EXPECT_THROW(panicIf(true, "bad"), PanicError);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(8);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(10);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SampleDistinctSorted)
{
    Rng r(11);
    const auto s = r.sample(100, 20);
    ASSERT_EQ(s.size(), 20u);
    for (std::size_t i = 1; i < s.size(); ++i)
        EXPECT_LT(s[i - 1], s[i]);
}

TEST(Bitfield, MaskAndBits)
{
    EXPECT_EQ(mask(3, 0), 0xFull);
    EXPECT_EQ(mask(7, 4), 0xF0ull);
    EXPECT_EQ(bits(0xABCD, 15, 12), 0xAull);
    EXPECT_EQ(bits(0xABCD, 3, 0), 0xDull);
}

TEST(Bitfield, InsertRoundTrip)
{
    std::uint64_t w = 0;
    w = insertBits(w, 11, 4, 0x5A);
    EXPECT_EQ(bits(w, 11, 4), 0x5Aull);
    EXPECT_THROW(insertBits(0, 3, 0, 0x1F), PanicError);
}

TEST(Bitfield, Helpers)
{
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_EQ(divCeil(10, 4), 3u);
    EXPECT_EQ(divCeil(8, 4), 2u);
    EXPECT_EQ(bitsFor(1024), 10);
    EXPECT_EQ(bitsFor(1025), 11);
}

TEST(Stats, CountersAndSums)
{
    StatGroup root("root");
    auto &c = root.counter("events");
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);

    auto &child = root.child("pe0");
    child.counter("events") += 7;
    EXPECT_EQ(root.sumCounter("events"), 12u);
}

TEST(Stats, FlattenPaths)
{
    StatGroup root("root");
    root.counter("top") += 1;
    auto &a = root.child("a");
    a.counter("x") += 2;
    a.child("b").counter("y") += 3;
    const auto flat = root.flatten();
    EXPECT_EQ(flat.at("top"), 1u);
    EXPECT_EQ(flat.at("a.x"), 2u);
    EXPECT_EQ(flat.at("a.b.y"), 3u);
    EXPECT_EQ(&root.childAt("a"), &a);
}

TEST(Stats, RegistrationCollisionsPanic)
{
    // One component's stats must never silently merge into (or
    // shadow) another's in the flat view: duplicate child names,
    // counter/child name collisions, and '.'-forged paths all panic
    // at registration.
    StatGroup root("root");
    root.child("a").counter("x") += 1;
    EXPECT_THROW(root.child("a"), PanicError);
    EXPECT_THROW(root.counter("a"), PanicError);
    root.counter("n") += 1;
    EXPECT_THROW(root.child("n"), PanicError);
    EXPECT_THROW(root.counter("forged.path"), PanicError);
    EXPECT_THROW(root.child("forged.path"), PanicError);
    EXPECT_THROW(root.childAt("missing"), PanicError);
    // Fetching an existing counter stays cheap and panic-free.
    EXPECT_EQ(root.counter("n").value(), 1u);
}

TEST(Parse, WholeStringIntegersOnly)
{
    struct Case
    {
        const char *text;
        bool ok;
        std::int64_t value;
    };
    const Case cases[] = {
        {"0", true, 0},
        {"42", true, 42},
        {"-7", true, -7},
        {"007", true, 7},
        {"9223372036854775807", true, INT64_MAX},
        {"-9223372036854775808", true, INT64_MIN},
        {"9223372036854775808", false, 0},
        {"123456789012345678901234", false, 0},
        {"", false, 0},
        {"-", false, 0},
        {"+5", false, 0},
        {" 5", false, 0},
        {"5 ", false, 0},
        {"5x", false, 0},
        {"0x10", false, 0},
        {"1e3", false, 0},
        {"1.5", false, 0},
    };
    for (const auto &c : cases) {
        std::int64_t v = -1;
        EXPECT_EQ(parseInt(c.text, v), c.ok) << '"' << c.text << '"';
        EXPECT_EQ(v, c.ok ? c.value : -1) << '"' << c.text << '"';
    }

    // The target type bounds the value; unsigned rejects a sign.
    std::uint64_t u = 1;
    EXPECT_TRUE(parseInt("18446744073709551615", u));
    EXPECT_EQ(u, UINT64_MAX);
    EXPECT_FALSE(parseInt("18446744073709551616", u));
    EXPECT_FALSE(parseInt("-1", u));
    int i = 0;
    EXPECT_FALSE(parseInt("2147483648", i));
    EXPECT_TRUE(parseInt("-2147483648", i));
    EXPECT_EQ(i, INT32_MIN);
}

TEST(Stats, VisitCountersWalksFlatPathsInOrder)
{
    StatGroup root("root");
    root.counter("top") += 1;
    auto &a = root.child("a");
    a.counter("x") += 2;
    a.child("b").counter("y") += 3;
    std::vector<std::string> paths;
    root.visitCounters(
        [&](const std::string &path, const Counter &ctr) {
            paths.push_back(path + "=" +
                            std::to_string(ctr.value()));
        });
    const std::vector<std::string> expect = {"top=1", "a.x=2",
                                             "a.b.y=3"};
    EXPECT_EQ(paths, expect);
}

TEST(Table, FormattingHelpers)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmtInt(1234567), "1,234,567");
    EXPECT_EQ(Table::fmtInt(12), "12");
}

TEST(Table, RowWidthEnforced)
{
    Table t("demo");
    t.header({"a", "b"});
    EXPECT_NO_THROW(t.addRow({"1", "2"}));
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

} // namespace
} // namespace canon

/**
 * @file
 * Unit tests for util: deterministic RNG streams, distribution sanity,
 * and table formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "util/alloc_guard.hh"
#include "util/function_ref.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace leca {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo |= v == 2;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsApproximate)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaleAndShift)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 0.5);
    EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, PoissonMeanMatchesLambdaSmall)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(3.5));
    EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonMeanMatchesLambdaLarge)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(500.0));
    EXPECT_NEAR(sum / n, 500.0, 2.0);
}

TEST(Rng, PoissonZeroLambda)
{
    Rng rng(23);
    EXPECT_EQ(rng.poisson(0.0), 0);
    EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(29);
    Rng child = parent.fork();
    // Child and parent should not emit the same sequence.
    int same = 0;
    for (int i = 0; i < 32; ++i)
        if (parent.next() == child.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Table, AlignedPrintContainsCells)
{
    Table t({"method", "value"});
    t.addRow({"LeCA", Table::num(6.3, 1)});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("LeCA"), std::string::npos);
    EXPECT_NE(s.find("6.3"), std::string::npos);
    EXPECT_NE(s.find("method"), std::string::npos);
}

TEST(Table, NumAndPctFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(1.0, 0), "1");
    EXPECT_EQ(Table::pct(12.345, 1), "12.3%");
}

TEST(FunctionRef, InvokesLambdaWithCaptures)
{
    int calls = 0;
    std::int64_t seen = -1;
    const auto body = [&](std::int64_t v) {
        ++calls;
        seen = v;
    };
    FunctionRef<void(std::int64_t)> ref(body);
    ref(7);
    ref(11);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(seen, 11);
}

TEST(FunctionRef, ReturnsValueAndRebinds)
{
    const auto doubler = [](int v) { return 2 * v; };
    const auto tripler = [](int v) { return 3 * v; };
    FunctionRef<int(int)> ref(doubler);
    EXPECT_EQ(ref(21), 42);
    ref = FunctionRef<int(int)>(tripler);
    EXPECT_EQ(ref(14), 42);
}

TEST(FunctionRef, CaptureHeavyLambdaDoesNotAllocate)
{
    // The reason FunctionRef exists: a std::function built from this
    // lambda would exceed libstdc++'s small-buffer optimisation and
    // heap-allocate; FunctionRef is two words regardless of capture
    // size.
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    double a = 1, b = 2, c = 3, d = 4, e = 5;
    double sum = 0;
    const auto body = [&](std::int64_t v) {
        sum = a + b + c + d + e + static_cast<double>(v);
    };
    DenyAllocScope deny;
    FunctionRef<void(std::int64_t)> ref(body);
    ref(10);
    EXPECT_EQ(deny.violations(), 0u);
    EXPECT_EQ(sum, 25.0);
}

TEST(AllocGuard, CountsHeapAllocations)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    const std::uint64_t before = totalHeapAllocs();
    std::vector<int> v(100);
    v[99] = 1;
    EXPECT_GT(totalHeapAllocs(), before);
}

TEST(AllocGuard, DenyScopeFlagsViolations)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    DenyAllocScope deny;
    EXPECT_TRUE(DenyAllocScope::active());
    EXPECT_EQ(deny.violations(), 0u);
    {
        std::vector<int> v(100);
        v[0] = 1;
    }
    EXPECT_GE(deny.violations(), 1u);
}

TEST(AllocGuard, AllowScopeExemptsThread)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    DenyAllocScope deny;
    {
        AllowAllocScope allow;
        std::vector<int> v(100);
        v[0] = 1;
    }
    EXPECT_EQ(deny.violations(), 0u);
}

TEST(AllocGuard, DenyScopesNest)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    EXPECT_FALSE(DenyAllocScope::active());
    {
        DenyAllocScope outer;
        {
            DenyAllocScope inner;
            EXPECT_TRUE(DenyAllocScope::active());
        }
        EXPECT_TRUE(DenyAllocScope::active());
    }
    EXPECT_FALSE(DenyAllocScope::active());
}

TEST(Table, RowCount)
{
    // print() emits the header, a rule, then one line per added row.
    const auto lines = [](const Table &t) {
        std::ostringstream os;
        t.print(os);
        const std::string s = os.str();
        return std::count(s.begin(), s.end(), '\n');
    };
    Table t({"x"});
    EXPECT_EQ(lines(t), 2);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(lines(t), 4);
}

} // namespace
} // namespace leca

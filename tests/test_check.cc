/**
 * @file
 * Contract-macro semantics (util/check.hh, util/numeric.hh): what
 * LECA_CHECK throws and with which message, the shape-helper
 * diagnostics, the rounding helpers, and a determinism regression
 * pinning bit-identical encoder output for a fixed seed.
 */

#include <gtest/gtest.h>

#include <string>

#include "analog/circuit_config.hh"
#include "core/encoder.hh"
#include "core/leca_config.hh"
#include "sensor/sensor_config.hh"
#include "tensor/tensor.hh"
#include "util/check.hh"
#include "util/numeric.hh"
#include "util/rng.hh"

namespace leca {
namespace {

TEST(Check, PassingConditionDoesNotThrow)
{
    EXPECT_NO_THROW(LECA_CHECK(1 + 1 == 2, "arithmetic holds"));
}

TEST(Check, FailingConditionThrowsCheckError)
{
    EXPECT_THROW(LECA_CHECK(false, "forced"), CheckError);
}

TEST(Check, CheckErrorIsARuntimeError)
{
    // Callers that only know std::exception still get the message.
    EXPECT_THROW(LECA_CHECK(false), std::runtime_error);
}

TEST(Check, MessageCarriesConditionFileLineAndContext)
{
    try {
        const int got = 7;
        LECA_CHECK(got == 3, "expected 3, got ", got);
        FAIL() << "expected CheckError";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.condition(), "got == 3");
        EXPECT_NE(err.file().find("test_check.cc"), std::string::npos);
        EXPECT_GT(err.line(), 0);
        EXPECT_EQ(err.message(), "expected 3, got 7");
        const std::string what = err.what();
        EXPECT_NE(what.find("test_check.cc"), std::string::npos);
        EXPECT_NE(what.find("got == 3"), std::string::npos);
        EXPECT_NE(what.find("expected 3, got 7"), std::string::npos);
    }
}

TEST(Check, NoContextArgumentsProducesBareMessage)
{
    try {
        LECA_CHECK(false);
        FAIL() << "expected CheckError";
    } catch (const CheckError &err) {
        EXPECT_TRUE(err.message().empty());
        EXPECT_NE(std::string(err.what()).find("check 'false' failed"),
                  std::string::npos);
    }
}

TEST(CheckShape, AcceptsExactShapeRejectsOthers)
{
    Tensor t({2, 3, 4});
    EXPECT_NO_THROW(LECA_CHECK_SHAPE(t, (std::vector<int>{2, 3, 4})));
    try {
        LECA_CHECK_SHAPE(t, {2, 3, 5});
        FAIL() << "expected CheckError";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.message(), "got [2, 3, 4], expected [2, 3, 5]");
    }
}

TEST(CheckShape, SameShapeComparesBothOperands)
{
    Tensor a({4, 4});
    Tensor b({4, 4});
    EXPECT_NO_THROW(LECA_CHECK_SAME_SHAPE(a, b));
    Tensor c({2, 8});
    try {
        LECA_CHECK_SAME_SHAPE(a, c);
        FAIL() << "expected CheckError";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.message(), "a is [4, 4], c is [2, 8]");
    }
}

TEST(Numeric, RoundingHelpersNameTheMode)
{
    EXPECT_EQ(roundToInt(2.5), 3);
    EXPECT_EQ(roundToInt(-2.5), -3);
    EXPECT_EQ(roundToInt(2.4f), 2);
    EXPECT_EQ(truncToInt(2.9), 2);
    EXPECT_EQ(truncToInt(-2.9), -2);
}

TEST(ConfigValidation, RejectsDegenerateDesignPoints)
{
    LecaConfig bad;
    bad.nch = 0;
    EXPECT_THROW(bad.validate(), CheckError);

    LecaConfig kernel_too_big;
    kernel_too_big.kernel = 64;
    EXPECT_THROW(kernel_too_big.validate(), CheckError);

    CircuitConfig circuit;
    circuit.cSampleTotFf = 0.0;
    EXPECT_THROW(circuit.validate(), CheckError);
}

// ---------------------------------------------------------------------
// Determinism regression: a fixed seed must reproduce the encoder
// bit-for-bit, or every experiment in bench/ stops being replayable.
// ---------------------------------------------------------------------

Tensor
encodeWithSeed(std::uint64_t seed)
{
    LecaConfig cfg;
    cfg.nch = 4;
    cfg.qbits = QBits(3.0);
    cfg.decoderDncnnLayers = 1;
    cfg.decoderFilters = 8;
    Rng init(seed);
    LecaEncoder enc(cfg, CircuitConfig{}, SensorConfig{}, init);

    Tensor x({2, 3, 16, 16});
    Rng data(seed ^ 0xA5A5A5A5ULL);
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(data.uniform());
    return enc.forward(x, Mode::Eval);
}

TEST(Determinism, SameSeedGivesBitIdenticalEncoderOutput)
{
    const Tensor a = encodeWithSeed(17);
    const Tensor b = encodeWithSeed(17);
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a[i], b[i]) << "diverged at flat index " << i;
}

TEST(Determinism, DifferentSeedsGiveDifferentOutput)
{
    const Tensor a = encodeWithSeed(17);
    const Tensor b = encodeWithSeed(18);
    ASSERT_EQ(a.shape(), b.shape());
    bool any_diff = false;
    for (std::size_t i = 0; i < a.numel() && !any_diff; ++i)
        any_diff = a[i] != b[i];
    EXPECT_TRUE(any_diff);
}

} // namespace
} // namespace leca

/**
 * @file
 * Edge-case and small-surface tests: augmentation batches, empty
 * datasets, stats merging, config arithmetic and the banner/table
 * output helpers.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analog/circuit_config.hh"
#include "data/augment.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"
#include "hw/stats.hh"
#include "nn/linear.hh"
#include "util/check.hh"
#include "util/table.hh"

namespace leca {
namespace {

TEST(AugmentBatch, DeterministicForSeed)
{
    SyntheticVision::Config cfg;
    cfg.resolution = 16;
    cfg.numClasses = 4;
    cfg.seed = 3;
    SyntheticVision gen(cfg);
    Dataset a = gen.generate(6, 1);
    Dataset b = gen.generate(6, 1);
    Rng r1(42), r2(42);
    augmentBatch(a.images, r1);
    augmentBatch(b.images, r2);
    for (std::size_t i = 0; i < a.images.numel(); ++i)
        EXPECT_EQ(a.images[i], b.images[i]);
}

TEST(AugmentBatch, PreservesShapeAndRange)
{
    SyntheticVision::Config cfg;
    cfg.resolution = 16;
    cfg.numClasses = 4;
    cfg.seed = 5;
    SyntheticVision gen(cfg);
    Dataset ds = gen.generate(4, 9);
    const auto shape = ds.images.shape();
    Rng rng(7);
    augmentBatch(ds.images, rng);
    EXPECT_EQ(ds.images.shape(), shape);
    for (std::size_t i = 0; i < ds.images.numel(); ++i) {
        EXPECT_GE(ds.images[i], 0.0f);
        EXPECT_LE(ds.images[i], 1.0f);
    }
}

TEST(TrainLoop, EmptyDatasetAccuracyIsZero)
{
    Rng rng(1);
    Linear fc(4, 2, rng);
    Dataset empty;
    EXPECT_DOUBLE_EQ(evalAccuracy(fc, empty), 0.0);
}

TEST(ChipStats, MergeAccumulatesAllCounters)
{
    ChipStats a, b;
    a.pixelReads = 10;
    a.macOps = 5;
    a.adcConversions[3.0] = 7;
    a.outputLinkBits = 100;
    b.pixelReads = 1;
    b.adcConversions[3.0] = 2;
    b.adcConversions[8.0] = 4;
    b.localSramReadBits = 50;
    a += b;
    EXPECT_EQ(a.pixelReads, 11);
    EXPECT_EQ(a.macOps, 5);
    EXPECT_EQ(a.adcConversions.at(3.0), 9);
    EXPECT_EQ(a.adcConversions.at(8.0), 4);
    EXPECT_EQ(a.localSramReadBits, 50);
    EXPECT_EQ(a.totalAdcConversions(), 13);
}

TEST(CircuitConfig, DacArithmetic)
{
    CircuitConfig cfg;
    EXPECT_EQ(cfg.dacSteps(), 15);
    EXPECT_NEAR(cfg.unitCapFf() * cfg.dacSteps(), cfg.cSampleTotFf,
                1e-12);
}

TEST(Table, BannerContainsTitle)
{
    std::ostringstream os;
    printBanner(os, "hello world");
    EXPECT_NE(os.str().find("hello world"), std::string::npos);
    EXPECT_NE(os.str().find("==="), std::string::npos);
}

TEST(Table, RowWidthMismatchDies)
{
    Table t({"a", "b"});
    try {
        t.addRow({"only one"});
        FAIL() << "expected CheckError";
    } catch (const CheckError &err) {
        EXPECT_NE(std::string(err.what()).find("row width"),
                  std::string::npos);
    }
}

TEST(Dataset, RenderImageDeterministicGivenRngState)
{
    SyntheticVision::Config cfg;
    cfg.resolution = 12;
    cfg.numClasses = 4;
    cfg.seed = 9;
    SyntheticVision gen(cfg);
    Rng r1(77), r2(77);
    const Tensor a = gen.renderImage(2, r1);
    const Tensor b = gen.renderImage(2, r2);
    for (std::size_t i = 0; i < a.numel(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(Dataset, CountHelper)
{
    Dataset empty;
    EXPECT_EQ(empty.count(), 0);
    SyntheticVision::Config cfg;
    cfg.resolution = 8;
    cfg.numClasses = 2;
    const Dataset ds = SyntheticVision(cfg).generate(6, 1);
    EXPECT_EQ(ds.count(), 6);
}

} // namespace
} // namespace leca

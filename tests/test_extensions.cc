/**
 * @file
 * Tests for the extension features: the learned digital codec
 * (Table 1 "Learned" row), the dual-clock controller event schedule
 * (Fig. 6(b)), the 2-D LUT used for the SCM error surface, and
 * whole-pipeline serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "analog/lut.hh"
#include "analog/mismatch.hh"
#include "compression/learned_codec.hh"
#include "compression/simple_methods.hh"
#include "core/pipeline.hh"
#include "core/trainer.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"
#include "hw/controller.hh"
#include "tensor/ops.hh"
#include "util/check.hh"

namespace leca {
namespace {

// ---------------------------------------------------------------------
// Learned codec.
// ---------------------------------------------------------------------

Dataset
codecData(int count = 64, int hw = 16)
{
    SyntheticVision::Config cfg;
    cfg.resolution = hw;
    cfg.numClasses = 4;
    cfg.seed = 17;
    return SyntheticVision(cfg).generate(count, 5);
}

TEST(LearnedCodec, CompressionRatios)
{
    EXPECT_DOUBLE_EQ(LearnedCodec(12).compressionRatio(), 4.0);
    EXPECT_DOUBLE_EQ(LearnedCodec(8).compressionRatio(), 6.0);
    EXPECT_DOUBLE_EQ(LearnedCodec(6).compressionRatio(), 8.0);
}

TEST(LearnedCodec, RequiresTrainingBeforeUse)
{
    LearnedCodec codec(12);
    const Dataset ds = codecData(4);
    try {
        codec.process(ds.images);
        FAIL() << "expected CheckError";
    } catch (const CheckError &err) {
        EXPECT_NE(std::string(err.what()).find("before train"),
                  std::string::npos);
    }
}

TEST(LearnedCodec, TrainingImprovesReconstruction)
{
    const Dataset ds = codecData(64);
    LearnedCodec codec(12);
    const auto mse = [&] {
        const Tensor recon = codec.process(ds.images);
        double acc = 0.0;
        for (std::size_t i = 0; i < recon.numel(); ++i) {
            const double d = static_cast<double>(recon[i]) - ds.images[i];
            acc += d * d;
        }
        return acc / static_cast<double>(recon.numel());
    };
    codec.train(ds, /*epochs=*/2);
    const double early = mse();
    // Continue with a decayed learning rate (standard codec recipe).
    codec.train(ds, 10, 3e-3);
    codec.train(ds, 8, 1e-3);
    const double late = mse();
    EXPECT_LT(late, early);
    EXPECT_LT(late, 0.03);
}

TEST(LearnedCodec, OutputShapeAndRange)
{
    const Dataset ds = codecData(32);
    LearnedCodec codec(8);
    codec.train(ds, 4);
    const Tensor out = codec.process(ds.images);
    ASSERT_EQ(out.shape(), ds.images.shape());
    for (std::size_t i = 0; i < out.numel(); ++i) {
        EXPECT_GE(out[i], 0.0f);
        EXPECT_LE(out[i], 1.0f);
    }
}

TEST(LearnedCodec, Table1Metadata)
{
    LearnedCodec codec(12);
    EXPECT_EQ(codec.domain(), EncodingDomain::Digital);
    EXPECT_EQ(codec.objective(), Objective::TaskAgnostic);
    EXPECT_EQ(codec.hardwareOverhead(), "Medium");
}

// ---------------------------------------------------------------------
// Controller schedule (Fig. 6(b)).
// ---------------------------------------------------------------------

TEST(BandScheduler, EndMatchesTimingModel)
{
    BandScheduler scheduler;
    TimingModel timing;
    double end = 0.0;
    for (const ScheduleEvent &e : scheduler.schedule())
        end = std::max(end, e.endNs);
    EXPECT_NEAR(end, timing.bandLatencyNs(), 1e-9);
}

TEST(BandScheduler, SramWritesHiddenBehindReadout)
{
    // Every local-SRAM weight write must fit inside its row's ROWSEL
    // window, which starts at the same instant.
    const auto hidden = [](const TimingConfig &config) {
        for (const ScheduleEvent &e : BandScheduler(config).schedule())
            if (e.unit == ScheduleUnit::ControllerS
                && e.action.find("SRAM") != std::string::npos
                && e.endNs - e.startNs > config.pixelRowReadoutNs)
                return false;
        return true;
    };
    EXPECT_TRUE(hidden(TimingConfig{}));
    // And a pathological configuration is detected.
    TimingConfig slow;
    slow.localSramWriteNs = slow.pixelRowReadoutNs + 1.0;
    EXPECT_FALSE(hidden(slow));
}

TEST(BandScheduler, EventOrderingWithinRow)
{
    // Per row: ROWSEL, then i-buffer write, then the MAC burst.
    const auto events = BandScheduler().schedule();
    double rowsel_end = -1, ibuf_end = -1, mac_end = -1;
    for (const auto &e : events) {
        if (e.action.find("row 0") == std::string::npos)
            continue;
        if (e.action.find("ROWSEL") == 0)
            rowsel_end = e.endNs;
        if (e.action.find("i-buffer") == 0)
            ibuf_end = e.endNs;
        if (e.action.find("SCM MAC") == 0)
            mac_end = e.endNs;
    }
    ASSERT_GT(rowsel_end, 0);
    EXPECT_GT(ibuf_end, rowsel_end);
    EXPECT_GT(mac_end, ibuf_end);
}

TEST(BandScheduler, SixteenMacCyclesFitInBurstSlot)
{
    BandScheduler scheduler;
    // 16 cycles at 400 MHz = 40 ns, well under the 250 ns budget.
    EXPECT_LT(scheduler.macCyclesNs(), scheduler.config().macBurstNs);
}

TEST(BandScheduler, FourRowsPlusOfmapFetch)
{
    const auto events = BandScheduler().schedule();
    int rowsel = 0, fetch = 0;
    for (const auto &e : events) {
        if (e.action.find("ROWSEL") == 0)
            ++rowsel;
        if (e.unit == ScheduleUnit::AdcArray)
            ++fetch;
    }
    EXPECT_EQ(rowsel, 4);
    EXPECT_EQ(fetch, 1);
    EXPECT_EQ(scheduleUnitName(ScheduleUnit::ControllerF),
              "controller-f");
}

// ---------------------------------------------------------------------
// 2-D LUT.
// ---------------------------------------------------------------------

TEST(Lut2d, ExactOnGridPoints)
{
    Lut2d lut(0.0, 1.0, 5, 0.0, 2.0, 5,
              [](double x, double y) { return 3 * x + 7 * y; });
    for (int i = 0; i <= 4; ++i)
        for (int j = 0; j <= 4; ++j) {
            const double x = i / 4.0, y = j / 2.0;
            EXPECT_NEAR(lut(x, y), 3 * x + 7 * y, 1e-12);
        }
}

TEST(Lut2d, BilinearBetweenPoints)
{
    // Bilinear interpolation is exact for bilinear functions.
    Lut2d lut(0.0, 1.0, 3, 0.0, 1.0, 3,
              [](double x, double y) { return 2 * x * y + x - y; });
    EXPECT_NEAR(lut(0.3, 0.7), 2 * 0.3 * 0.7 + 0.3 - 0.7, 1e-9);
}

TEST(Lut2d, ClampsOutsideDomain)
{
    Lut2d lut(0.0, 1.0, 3, 0.0, 1.0, 3,
              [](double x, double y) { return x + y; });
    EXPECT_NEAR(lut(-5.0, -5.0), 0.0, 1e-12);
    EXPECT_NEAR(lut(5.0, 5.0), 2.0, 1e-12);
}

TEST(Lut2d, ExtractedEpsSurfacePresentAndConsistent)
{
    CircuitConfig cfg;
    Rng mc(43);
    const AnalogNoiseModel model = extractNoiseModel(cfg, 60, mc);
    ASSERT_FALSE(model.scm.epsSurface.empty());
    // The surface, averaged over V_in, should track the per-code mean.
    for (int code = 2; code <= cfg.dacSteps(); code += 4) {
        double avg = 0.0;
        int n = 0;
        for (double v = 0.4; v <= 1.4; v += 0.1) {
            avg += model.scm.epsSurface(v, code);
            ++n;
        }
        avg /= n;
        EXPECT_NEAR(avg, model.scm.epsMean[static_cast<std::size_t>(code)],
                    5e-4);
    }
}

// ---------------------------------------------------------------------
// Pipeline serialization.
// ---------------------------------------------------------------------

TEST(PipelineSerialize, SaveLoadRoundTripPreservesBehaviour)
{
    SyntheticVision::Config dcfg;
    dcfg.resolution = 16;
    dcfg.numClasses = 4;
    dcfg.seed = 7;
    SyntheticVision gen(dcfg);
    const Dataset train = gen.generate(64, 1);
    const Dataset val = gen.generate(32, 2);

    auto build = [&](std::uint64_t seed) {
        Rng rng(seed);
        auto backbone = makeBackbone(BackboneStyle::Proxy, 3, 4, rng);
        LecaPipeline::Options options;
        options.leca.nch = 4;
        options.leca.qbits = QBits(3.0);
        options.leca.decoderDncnnLayers = 1;
        options.leca.decoderFilters = 8;
        options.seed = 3;
        return std::make_unique<LecaPipeline>(options,
                                              std::move(backbone));
    };

    auto a = build(1);
    LecaTrainer trainer(*a);
    LecaTrainOptions topts;
    topts.epochs = 2;
    topts.incrementalQbit = false;
    topts.unfreezeBackbone = true; // move the backbone too
    trainer.train(train, val, topts);

    const std::string path = "/tmp/leca_test_pipeline.bin";
    a->save(path);

    auto b = build(999); // different init; load must overwrite all
    ASSERT_TRUE(b->load(path));

    const Dataset probe = sliceDataset(val, 0, 8);
    const Tensor la = a->forward(probe.images, Mode::Eval);
    const Tensor lb = b->forward(probe.images, Mode::Eval);
    for (std::size_t i = 0; i < la.numel(); ++i)
        EXPECT_NEAR(la[i], lb[i], 1e-5f);
    std::remove(path.c_str());
}

TEST(PipelineSerialize, LoadRejectsWrongArchitecture)
{
    Rng rng(1);
    auto backbone = makeBackbone(BackboneStyle::Proxy, 3, 4, rng);
    LecaPipeline::Options options;
    options.leca.nch = 4;
    options.leca.decoderDncnnLayers = 1;
    options.leca.decoderFilters = 8;
    LecaPipeline a(options, std::move(backbone));
    const std::string path = "/tmp/leca_test_pipeline2.bin";
    a.save(path);

    Rng rng2(2);
    auto backbone2 = makeBackbone(BackboneStyle::Proxy, 3, 4, rng2);
    LecaPipeline::Options other = options;
    other.leca.nch = 8; // different encoder width
    LecaPipeline b(other, std::move(backbone2));
    EXPECT_FALSE(b.load(path));
    std::remove(path.c_str());
}

} // namespace
} // namespace leca

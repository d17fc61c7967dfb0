/**
 * @file
 * Cross-module integration tests: the trained encoder deployed onto
 * the simulated sensor chip, the full capture->decode->classify path
 * under hardware noise, energy accounting over real simulated frames,
 * and failure-injection cases (broken ADC, dead weights, extreme
 * noise).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hh"
#include "core/trainer.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"
#include "energy/energy_model.hh"
#include "sensor/bayer.hh"
#include "hw/sensor_chip.hh"
#include "hw/weights.hh"
#include "nn/loss.hh"
#include "tensor/ops.hh"

namespace leca {
namespace {

/** Shared fixture: a small trained pipeline (16x16, 4 classes). */
class DeployedPipeline : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        SyntheticVision::Config dcfg;
        dcfg.resolution = 16;
        dcfg.numClasses = 4;
        dcfg.seed = 77;
        SyntheticVision gen(dcfg);
        _train = new Dataset(gen.generate(96, 1));
        _val = new Dataset(gen.generate(48, 2));

        Rng rng(5);
        auto backbone = makeBackbone(BackboneStyle::Proxy, 3, 4, rng);
        TrainOptions bopts;
        bopts.epochs = 5;
        bopts.learningRate = 3e-3;
        trainClassifier(*backbone, *_train, *_val, bopts);

        LecaPipeline::Options options;
        options.leca.nch = 4;
        options.leca.qbits = QBits(3.0);
        options.leca.decoderDncnnLayers = 1;
        options.leca.decoderFilters = 8;
        options.seed = 9;
        _pipeline = new LecaPipeline(options, std::move(backbone));

        LecaTrainer trainer(*_pipeline);
        LecaTrainOptions topts;
        topts.epochs = 4;
        topts.incrementalEpochs = 1;
        topts.learningRate = 3e-3;
        _pipeline->setModality(EncoderModality::Hard);
        _hardAcc = trainer.train(*_train, *_val, topts);
    }

    static void
    TearDownTestSuite()
    {
        delete _pipeline;
        delete _train;
        delete _val;
        _pipeline = nullptr;
        _train = _val = nullptr;
    }

    static Dataset *_train;
    static Dataset *_val;
    static LecaPipeline *_pipeline;
    static double _hardAcc;
};

Dataset *DeployedPipeline::_train = nullptr;
Dataset *DeployedPipeline::_val = nullptr;
LecaPipeline *DeployedPipeline::_pipeline = nullptr;
double DeployedPipeline::_hardAcc = 0.0;

TEST_F(DeployedPipeline, HardTrainingLearns)
{
    EXPECT_GT(_hardAcc, 0.6); // chance = 0.25
}

TEST_F(DeployedPipeline, ChipDeploymentMatchesTrainingModel)
{
    // Program the trained weights into the chip; ideal-mode codes must
    // equal the hard training model's features on every image.
    LecaEncoder &enc = _pipeline->encoder();
    ChipConfig ccfg;
    ccfg.rgbHeight = 16;
    ccfg.rgbWidth = 16;
    ccfg.qbits = enc.qbits();
    ccfg.adcFullScale = std::max(enc.outScale().value[0], 0.02f);
    ccfg.monteCarlo = false;
    LecaSensorChip chip(ccfg);
    chip.loadKernels(flattenKernels(enc.weight().value,
                                    enc.weightScale()));

    int mismatches = 0;
    for (int img = 0; img < 8; ++img) {
        const Dataset one = sliceDataset(*_val, img, 1);
        const Tensor scene = one.images.reshape({3, 16, 16});
        Rng rng(1);
        const Tensor codes =
            chip.encodeFrame(scene, PeMode::Ideal, rng, false);
        const Tensor chip_features = chip.codesToFeatures(codes);
        const Tensor train_features =
            enc.forward(one.images, Mode::Eval);
        for (std::size_t i = 0; i < chip_features.numel(); ++i)
            if (std::abs(chip_features[i] - train_features[i]) > 1e-6f)
                ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST_F(DeployedPipeline, ChipCaptureClassifiesUnderNoise)
{
    // Full deployment path: noisy chip capture -> decoder -> backbone.
    LecaEncoder &enc = _pipeline->encoder();
    ChipConfig ccfg;
    ccfg.rgbHeight = 16;
    ccfg.rgbWidth = 16;
    ccfg.qbits = enc.qbits();
    ccfg.adcFullScale = std::max(enc.outScale().value[0], 0.02f);
    ccfg.monteCarlo = true;
    LecaSensorChip chip(ccfg);
    chip.loadKernels(flattenKernels(enc.weight().value,
                                    enc.weightScale()));

    Rng rng(3);
    int correct = 0;
    const int count = 24;
    for (int img = 0; img < count; ++img) {
        const Dataset one = sliceDataset(*_val, img, 1);
        const Tensor scene = one.images.reshape({3, 16, 16});
        const Tensor codes =
            chip.encodeFrame(scene, PeMode::RealNoisy, rng, true);
        const Tensor features =
            chip.codesToFeatures(codes).reshape({1, 4, 8, 8});
        const Tensor decoded =
            _pipeline->decoder().forward(features, Mode::Eval);
        const Tensor logits =
            _pipeline->backbone().forward(decoded, Mode::Eval);
        if (argmaxRows(logits)[0] == one.labels[0])
            ++correct;
    }
    // Well above chance even on real noisy silicon.
    EXPECT_GT(static_cast<double>(correct) / count, 0.5);
}

TEST_F(DeployedPipeline, EnergyAccountedForRealFrames)
{
    LecaEncoder &enc = _pipeline->encoder();
    ChipConfig ccfg;
    ccfg.rgbHeight = 16;
    ccfg.rgbWidth = 16;
    ccfg.qbits = enc.qbits();
    ccfg.adcFullScale = 0.3;
    LecaSensorChip chip(ccfg);
    chip.loadKernels(flattenKernels(enc.weight().value, 1.0f));
    chip.resetStats();
    Rng rng(7);
    const Dataset one = sliceDataset(*_val, 0, 1);
    chip.encodeFrame(one.images.reshape({3, 16, 16}), PeMode::Ideal, rng,
                     false);
    const ChipStats stats = chip.stats();
    EXPECT_EQ(stats.pixelReads, 32 * 32);
    EXPECT_EQ(stats.macOps, 32 * 32 * 4); // 4 kernels per pixel
    EXPECT_EQ(stats.totalAdcConversions(), 8 * 8 * 4);

    EnergyModel model;
    const EnergyBreakdown e = model.fromStats(stats);
    EXPECT_GT(e.pixelNj, 0.0);
    EXPECT_GT(e.adcNj, 0.0);
    EXPECT_GT(e.commNj, 0.0);
    EXPECT_GT(e.totalNj(), e.pixelNj);
}

TEST_F(DeployedPipeline, FailureInjectionDeadWeightsGiveChance)
{
    // Zero all encoder weights: every feature becomes the mid code and
    // classification collapses to chance.
    LecaEncoder &enc = _pipeline->encoder();
    const Tensor saved = enc.weight().value;
    enc.weight().value.fill(0.0f);
    const double acc = evalAccuracy(*_pipeline, *_val);
    enc.weight().value = saved;
    EXPECT_LT(acc, 0.45);
    // And the pipeline recovers once weights are restored.
    EXPECT_GT(evalAccuracy(*_pipeline, *_val), 0.6);
}

TEST_F(DeployedPipeline, FailureInjectionTinyAdcRangeSaturates)
{
    LecaEncoder &enc = _pipeline->encoder();
    const float saved = enc.outScale().value[0];
    enc.outScale().value[0] = 0.0001f; // clamped to 0.02 internally
    const double acc = evalAccuracy(*_pipeline, *_val);
    enc.outScale().value[0] = saved;
    EXPECT_LT(acc, _hardAcc + 1e-9); // can only hurt
}

TEST_F(DeployedPipeline, ExtremeSensorNoiseDegradesAccuracy)
{
    // Rebuild a chip whose pixel front end is catastrophically noisy
    // (tiny full well): classification quality must degrade vs the
    // deployed noisy baseline.
    LecaEncoder &enc = _pipeline->encoder();
    ChipConfig ccfg;
    ccfg.rgbHeight = 16;
    ccfg.rgbWidth = 16;
    ccfg.qbits = enc.qbits();
    ccfg.adcFullScale = std::max(enc.outScale().value[0], 0.02f);
    ccfg.sensor.fullWellElectrons = 30.0; // ~18% shot noise at mid grey
    LecaSensorChip chip(ccfg);
    chip.loadKernels(flattenKernels(enc.weight().value,
                                    enc.weightScale()));
    Rng rng(11);
    const Dataset one = sliceDataset(*_val, 0, 1);
    const Tensor scene = one.images.reshape({3, 16, 16});
    const Tensor a = chip.encodeFrame(scene, PeMode::RealNoisy, rng, true);
    const Tensor b = chip.encodeFrame(scene, PeMode::RealNoisy, rng, true);
    // Successive captures of the same scene disagree substantially.
    int diffs = 0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        if (a[i] != b[i])
            ++diffs;
    EXPECT_GT(diffs, static_cast<int>(a.numel() / 20));
}

TEST(IntegrationMisc, NormalModeFeedsConventionalPipeline)
{
    // The chip's bypass mode produces an 8-bit raw frame: a quantized
    // copy of the scene's Bayer mosaic.
    ChipConfig ccfg;
    ccfg.rgbHeight = 16;
    ccfg.rgbWidth = 16;
    LecaSensorChip chip(ccfg);
    SyntheticVision::Config dcfg;
    dcfg.resolution = 16;
    dcfg.seed = 3;
    SyntheticVision gen(dcfg);
    Rng rng(1);
    const Tensor scene = gen.renderImage(1, rng);
    Rng frame_rng(2);
    const Tensor raw = chip.normalModeCapture(scene, frame_rng, false);
    EXPECT_GT(psnrDb(mosaic(scene), raw), 40.0);
}

TEST(IntegrationMisc, RepetitiveReadoutCostsShowInEnergy)
{
    // Nch = 8 (two passes) must cost more pixel energy than Nch = 4.
    EnergyModel model;
    auto run = [&](int nch) {
        ChipConfig ccfg;
        ccfg.rgbHeight = 16;
        ccfg.rgbWidth = 16;
        LecaSensorChip chip(ccfg);
        Rng rng(4);
        Tensor w({nch, 3, 2, 2});
        for (std::size_t i = 0; i < w.numel(); ++i)
            w[i] = static_cast<float>(rng.uniform(-1, 1));
        chip.loadKernels(flattenKernels(w, 1.0f));
        chip.resetStats();
        SyntheticVision::Config dcfg;
        dcfg.resolution = 16;
        dcfg.seed = 3;
        SyntheticVision gen(dcfg);
        Rng srng(1);
        const Tensor scene = gen.renderImage(0, srng);
        Rng frng(2);
        chip.encodeFrame(scene, PeMode::Ideal, frng, false);
        return model.fromStats(chip.stats());
    };
    const EnergyBreakdown e4 = run(4);
    const EnergyBreakdown e8 = run(8);
    EXPECT_NEAR(e8.pixelNj, 2 * e4.pixelNj, 1e-9);
    EXPECT_GT(e8.totalNj(), e4.totalNj());
}

} // namespace
} // namespace leca

/**
 * @file
 * Tests for the LeCA core: Eq. (1) compression ratios, the design-space
 * enumerator, encoder modalities (including the critical equivalence
 * between the hard training model and the simulated sensor chip),
 * gradient sanity of the hand-derived analog backward pass, the
 * decoder, pipeline composition, and the training curriculum.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/decoder.hh"
#include "core/encoder.hh"
#include "core/leca_config.hh"
#include "core/pipeline.hh"
#include "core/trainer.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"
#include "hw/sensor_chip.hh"
#include "hw/weights.hh"
#include "nn/loss.hh"
#include "tensor/ops.hh"
#include "util/check.hh"

namespace leca {
namespace {

TEST(LecaConfig, Eq1CompressionRatio)
{
    LecaConfig cfg;
    cfg.kernel = 2;
    cfg.nch = 8;
    cfg.qbits = QBits(3.0);
    EXPECT_DOUBLE_EQ(cfg.compressionRatio(), 4.0); // 2*2*3*8 / (8*3)

    cfg.nch = 4;
    cfg.qbits = QBits(4.0);
    EXPECT_DOUBLE_EQ(cfg.compressionRatio(), 6.0);

    cfg.nch = 4;
    cfg.qbits = QBits(3.0);
    EXPECT_DOUBLE_EQ(cfg.compressionRatio(), 8.0);
}

TEST(LecaConfig, DesignPointsContainPaperOptima)
{
    // Fig. 4(b): the best Nch|Qbit per CR are 8|3 (CR4), 4|4 (CR6),
    // 4|3 (CR8); the enumerator must offer them.
    auto contains = [](const std::vector<LecaConfig> &points, int nch,
                       double bits) {
        for (const auto &p : points)
            if (p.nch == nch && p.qbits.bits() == bits)
                return true;
        return false;
    };
    EXPECT_TRUE(contains(designPointsForCr(4.0), 8, 3.0));
    EXPECT_TRUE(contains(designPointsForCr(6.0), 4, 4.0));
    EXPECT_TRUE(contains(designPointsForCr(8.0), 4, 3.0));
    // And every offered point really has the target CR.
    for (double cr : {4.0, 6.0, 8.0, 12.0})
        for (const auto &p : designPointsForCr(cr))
            EXPECT_DOUBLE_EQ(p.compressionRatio(), cr);
}

LecaConfig
tinyConfig(int nch = 4, double qbits = 3.0)
{
    LecaConfig cfg;
    cfg.nch = nch;
    cfg.qbits = QBits(qbits);
    cfg.decoderDncnnLayers = 1;
    cfg.decoderFilters = 8;
    return cfg;
}

TEST(Encoder, SoftOutputShapeAndRange)
{
    Rng rng(3);
    LecaEncoder enc(tinyConfig(), CircuitConfig{}, SensorConfig{}, rng);
    Tensor x = Tensor::full({2, 3, 16, 16}, 0.5f);
    const Tensor f = enc.forward(x, Mode::Eval);
    EXPECT_EQ(f.shape(), (std::vector<int>{2, 4, 8, 8}));
    for (std::size_t i = 0; i < f.numel(); ++i) {
        EXPECT_GE(f[i], -1.0f);
        EXPECT_LE(f[i], 1.0f);
    }
}

TEST(Encoder, SoftOutputIsQuantized)
{
    Rng rng(5);
    LecaEncoder enc(tinyConfig(4, 2.0), CircuitConfig{}, SensorConfig{},
                    rng);
    Tensor x({1, 3, 8, 8});
    Rng noise(1);
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(noise.uniform());
    const Tensor f = enc.forward(x, Mode::Eval);
    // 2-bit: only 4 distinct values, uniformly spaced in [-1, 1].
    for (std::size_t i = 0; i < f.numel(); ++i) {
        const float idx = (f[i] + 1.0f) / 2.0f * 3.0f;
        EXPECT_NEAR(idx, std::round(idx), 1e-4f);
    }
}

TEST(Encoder, HardRequiresK2)
{
    Rng rng(7);
    LecaConfig cfg = tinyConfig();
    cfg.kernel = 4;
    LecaEncoder enc(cfg, CircuitConfig{}, SensorConfig{}, rng);
    try {
        enc.setModality(EncoderModality::Hard);
        FAIL() << "expected CheckError";
    } catch (const CheckError &err) {
        EXPECT_NE(std::string(err.what()).find("K = 2"), std::string::npos);
    }
}

TEST(Encoder, HardMatchesSensorChip)
{
    // THE central consistency check of the repository: the hard
    // training model must produce bit-identical codes to the
    // cycle-level sensor chip simulation in ideal mode.
    Rng rng(11);
    LecaConfig cfg = tinyConfig(4, 3.0);
    LecaEncoder enc(cfg, CircuitConfig{}, SensorConfig{}, rng);
    enc.setModality(EncoderModality::Hard);
    const float fs = enc.outScale().value[0];

    ChipConfig chip_cfg;
    chip_cfg.rgbHeight = 16;
    chip_cfg.rgbWidth = 16;
    chip_cfg.qbits = QBits(3.0);
    chip_cfg.adcFullScale = fs;
    chip_cfg.monteCarlo = false;
    LecaSensorChip chip(chip_cfg);
    chip.loadKernels(flattenKernels(enc.weight().value,
                                    enc.weightScale()));

    Tensor rgb({3, 16, 16});
    Rng scene_rng(13);
    for (std::size_t i = 0; i < rgb.numel(); ++i)
        rgb[i] = static_cast<float>(scene_rng.uniform());

    Rng frame_rng(1);
    const Tensor codes =
        chip.encodeFrame(rgb, PeMode::Ideal, frame_rng, false);
    const Tensor chip_features = chip.codesToFeatures(codes);

    const Tensor batch = rgb.reshape({1, 3, 16, 16});
    const Tensor train_features = enc.forward(batch, Mode::Eval);

    ASSERT_EQ(chip_features.numel(), train_features.numel());
    int mismatches = 0;
    for (int k = 0; k < 4; ++k)
        for (int y = 0; y < 8; ++y)
            for (int x = 0; x < 8; ++x)
                if (std::abs(chip_features.at(k, y, x)
                             - train_features.at(0, k, y, x)) > 1e-6f)
                    ++mismatches;
    EXPECT_EQ(mismatches, 0);
}

TEST(Encoder, NoisyDiffersFromHardButCorrelated)
{
    Rng rng(17);
    LecaConfig cfg = tinyConfig(4, 3.0);
    LecaEncoder enc(cfg, CircuitConfig{}, SensorConfig{}, rng);
    Rng mc(3);
    enc.setNoiseModel(extractNoiseModel(CircuitConfig{}, 50, mc));
    Rng noise(5);
    enc.setNoiseRng(&noise);

    Tensor x({1, 3, 16, 16});
    Rng scene(7);
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(scene.uniform(0.2, 0.8));

    enc.setModality(EncoderModality::Hard);
    const Tensor hard = enc.forward(x, Mode::Eval);
    enc.setModality(EncoderModality::Noisy);
    const Tensor noisy = enc.forward(x, Mode::Eval);

    double corr_num = 0.0, na = 0.0, nb = 0.0;
    int diffs = 0;
    for (std::size_t i = 0; i < hard.numel(); ++i) {
        corr_num += static_cast<double>(hard[i]) * noisy[i];
        na += static_cast<double>(hard[i]) * hard[i];
        nb += static_cast<double>(noisy[i]) * noisy[i];
        if (hard[i] != noisy[i])
            ++diffs;
    }
    EXPECT_GT(diffs, 0);
    EXPECT_GT(corr_num / std::sqrt(na * nb + 1e-12), 0.8);
}

TEST(Encoder, HardGradientMatchesFiniteDifference)
{
    // Validate the hand-derived backward through Eq. (3). Quantization
    // makes the true function a staircase, so use 8-bit output and a
    // finite-difference step spanning several LSBs with loose
    // tolerance.
    Rng rng(19);
    LecaConfig cfg = tinyConfig(2, 8.0);
    LecaEncoder enc(cfg, CircuitConfig{}, SensorConfig{}, rng);
    enc.setModality(EncoderModality::Hard);

    Tensor x({1, 3, 8, 8});
    Rng scene(23);
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(scene.uniform(0.1, 0.9));

    const Tensor f0 = enc.forward(x, Mode::Train);
    Tensor probe(f0.shape());
    Rng prng(29);
    for (std::size_t i = 0; i < probe.numel(); ++i)
        probe[i] = static_cast<float>(prng.uniform(-1, 1));
    for (Param *p : enc.params())
        p->zeroGrad();
    enc.backward(probe);

    auto objective = [&]() {
        const Tensor f = enc.forward(x, Mode::Eval);
        double acc = 0.0;
        for (std::size_t i = 0; i < f.numel(); ++i)
            acc += static_cast<double>(f[i]) * probe[i];
        return acc;
    };

    const double eps = 0.12; // spans ~2 cap-DAC codes
    int checked = 0, agree = 0;
    double analytic_dot_numeric = 0.0, analytic_sq = 0.0, numeric_sq = 0.0;
    Tensor &w = enc.weight().value;
    for (std::size_t i = 0; i < w.numel(); i += 3) {
        const float orig = w[i];
        w[i] = orig + static_cast<float>(eps);
        const double fp = objective();
        w[i] = orig - static_cast<float>(eps);
        const double fm = objective();
        w[i] = orig;
        const double numeric = (fp - fm) / (2 * eps);
        const double analytic = enc.weight().grad[i];
        analytic_dot_numeric += analytic * numeric;
        analytic_sq += analytic * analytic;
        numeric_sq += numeric * numeric;
        ++checked;
        if (numeric == 0.0 && analytic == 0.0) {
            ++agree;
        } else if (numeric != 0.0 &&
                   std::abs(analytic - numeric)
                       < 0.5 * std::abs(numeric) + 0.05) {
            ++agree;
        }
    }
    ASSERT_GT(checked, 3);
    // Cosine similarity between analytic and numeric gradients.
    const double cosine = analytic_dot_numeric
        / (std::sqrt(analytic_sq * numeric_sq) + 1e-12);
    EXPECT_GT(cosine, 0.8);
    EXPECT_GT(static_cast<double>(agree) / checked, 0.6);
}

TEST(Decoder, RestoresImageShape)
{
    Rng rng(31);
    LecaConfig cfg = tinyConfig(4, 3.0);
    LecaDecoder dec(cfg, rng);
    const Tensor out = dec.forward(Tensor({2, 4, 8, 8}), Mode::Eval);
    EXPECT_EQ(out.shape(), (std::vector<int>{2, 3, 16, 16}));
    EXPECT_GT(dec.parameterCount(), 100u);
}

class PipelineTest : public ::testing::Test
{
  protected:
    static constexpr int kHw = 16;
    static constexpr int kClasses = 4;

    std::unique_ptr<LecaPipeline>
    makePipeline(int nch = 4, double qbits = 3.0)
    {
        SyntheticVision::Config dcfg;
        dcfg.resolution = kHw;
        dcfg.numClasses = kClasses;
        dcfg.seed = 11;
        SyntheticVision gen(dcfg);
        _train = gen.generate(96, 1);
        _val = gen.generate(48, 2);

        Rng rng(3);
        auto backbone = makeBackbone(BackboneStyle::Proxy, 3, kClasses,
                                     rng);
        TrainOptions bopts;
        bopts.epochs = 5;
        bopts.batchSize = 16;
        bopts.learningRate = 3e-3;
        _backboneAcc = trainClassifier(*backbone, _train, _val, bopts);

        LecaPipeline::Options options;
        options.leca = tinyConfig(nch, qbits);
        options.seed = 21;
        return std::make_unique<LecaPipeline>(options,
                                              std::move(backbone));
    }

    Dataset _train, _val;
    double _backboneAcc = 0.0;
};

TEST_F(PipelineTest, ForwardShapes)
{
    auto pipe = makePipeline();
    const Tensor logits =
        pipe->forward(sliceDataset(_val, 0, 4).images, Mode::Eval);
    EXPECT_EQ(logits.shape(), (std::vector<int>{4, kClasses}));
    const Tensor decoded =
        pipe->decodeImages(sliceDataset(_val, 0, 2).images, Mode::Eval);
    EXPECT_EQ(decoded.shape(), (std::vector<int>{2, 3, kHw, kHw}));
}

TEST_F(PipelineTest, BackboneStaysFrozenDuringTraining)
{
    auto pipe = makePipeline();
    // Snapshot one backbone weight.
    Param *bb_param = pipe->backbone().params().front();
    const float before = bb_param->value[0];

    LecaTrainer trainer(*pipe);
    LecaTrainOptions opts;
    opts.epochs = 1;
    opts.incrementalQbit = false;
    opts.batchSize = 16;
    trainer.train(_train, _val, opts);
    EXPECT_EQ(bb_param->value[0], before);
    // But the encoder DID move.
    // (weight init is deterministic; after training it differs)
}

TEST_F(PipelineTest, SoftTrainingRecoversMostAccuracy)
{
    auto pipe = makePipeline(8, 3.0); // CR 4
    LecaTrainer trainer(*pipe);
    LecaTrainOptions opts;
    opts.epochs = 6;
    opts.incrementalEpochs = 2;
    opts.batchSize = 16;
    opts.learningRate = 2e-3;
    pipe->setModality(EncoderModality::Soft);
    const double acc = trainer.train(_train, _val, opts);
    EXPECT_GT(_backboneAcc, 0.7);
    // Within a few points of the uncompressed backbone (chance = 0.25).
    EXPECT_GT(acc, _backboneAcc - 0.2);
}

TEST_F(PipelineTest, CurriculumShapesMatchFig11)
{
    auto pipe = makePipeline(4, 3.0);
    LecaTrainer trainer(*pipe);
    LecaTrainOptions opts;
    opts.epochs = 4;
    opts.incrementalEpochs = 2;
    opts.batchSize = 16;
    opts.learningRate = 2e-3;

    double soft_acc = 0.0, hard_acc = 0.0;
    // Stage 1+2 manually to capture the naive soft->hard mapping.
    pipe->setModality(EncoderModality::Soft);
    soft_acc = trainer.train(_train, _val, opts);
    const double soft_on_hard =
        trainer.evaluate(_val, EncoderModality::Hard);

    pipe->setModality(EncoderModality::Hard);
    hard_acc = trainer.train(_train, _val, opts);

    // Fig. 11: mapping soft weights onto the hard model drops accuracy;
    // hard training recovers it.
    EXPECT_GT(soft_acc, 0.5);
    EXPECT_LT(soft_on_hard, soft_acc);
    EXPECT_GT(hard_acc, soft_on_hard);
}

TEST_F(PipelineTest, UnfreezeBackboneAblation)
{
    auto pipe = makePipeline(4, 3.0);
    Param *bb_param = pipe->backbone().params().front();
    const float before = bb_param->value[0];
    LecaTrainer trainer(*pipe);
    LecaTrainOptions opts;
    opts.epochs = 1;
    opts.incrementalQbit = false;
    opts.unfreezeBackbone = true;
    opts.batchSize = 16;
    trainer.train(_train, _val, opts);
    EXPECT_NE(bb_param->value[0], before);
}

/** Every grad of @p params, concatenated. */
std::vector<float>
gradsOf(const std::vector<Param *> &params)
{
    std::vector<float> out;
    for (const Param *p : params)
        out.insert(out.end(), p->grad.data(),
                   p->grad.data() + p->grad.numel());
    return out;
}

TEST(PipelineFrozen, BackboneFreezeLeavesEncoderDecoderGradsUnchanged)
{
    // A frozen backbone computes dX only; the encoder and decoder
    // gradients that flow through it are bit-identical to the same step
    // with the backbone unfrozen, and no backbone grad is written.
    SyntheticVision::Config dcfg;
    dcfg.resolution = 16;
    dcfg.numClasses = 4;
    dcfg.seed = 5;
    const Dataset batch = SyntheticVision(dcfg).generate(6, 1);
    for (EncoderModality m : {EncoderModality::Soft, EncoderModality::Hard}) {
        Rng rng(3);
        LecaPipeline::Options options;
        options.leca = tinyConfig(4, 3.0);
        options.seed = 21;
        LecaPipeline pipe(options,
                          makeBackbone(BackboneStyle::Proxy, 3, 4, rng));
        pipe.setModality(m);
        std::vector<Param *> trained = pipe.encoder().params();
        for (Param *p : pipe.decoder().params())
            trained.push_back(p);
        SoftmaxCrossEntropy loss;
        const auto step = [&] {
            for (Param *p : pipe.allParams())
                p->zeroGrad();
            const Tensor logits = pipe.forward(batch.images, Mode::Train);
            loss.forward(logits, batch.labels);
            pipe.backward(loss.backward());
        };

        step(); // the backbone is frozen on construction
        const std::vector<float> frozen = gradsOf(trained);
        const std::vector<float> bb = gradsOf(pipe.backbone().params());
        const std::vector<float> zeros(bb.size(), 0.0f);
        EXPECT_EQ(std::memcmp(bb.data(), zeros.data(),
                              bb.size() * sizeof(float)),
                  0)
            << "a frozen backbone grad was written";
        pipe.setBackboneFrozen(false);
        step();
        const std::vector<float> live = gradsOf(trained);

        ASSERT_EQ(frozen.size(), live.size());
        EXPECT_EQ(std::memcmp(frozen.data(), live.data(),
                              live.size() * sizeof(float)),
                  0)
            << "modality " << static_cast<int>(m);
        bool any_backbone_grad = false;
        for (float g : gradsOf(pipe.backbone().params()))
            any_backbone_grad = any_backbone_grad || g != 0.0f;
        EXPECT_TRUE(any_backbone_grad);
    }
}

TEST(EncoderScale, ModalitySwitchReseedsScale)
{
    Rng rng(37);
    LecaEncoder enc(tinyConfig(), CircuitConfig{}, SensorConfig{}, rng);
    enc.outScale().value[0] = 2.5f;
    enc.setModality(EncoderModality::Hard);
    EXPECT_FLOAT_EQ(enc.outScale().value[0], 0.3f);
    enc.outScale().value[0] = 0.5f;
    enc.setModality(EncoderModality::Hard); // no-op switch keeps it
    EXPECT_FLOAT_EQ(enc.outScale().value[0], 0.5f);
}

} // namespace
} // namespace leca

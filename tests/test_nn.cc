/**
 * @file
 * Behavioural tests for the nn framework: layer semantics, optimizer
 * updates, frozen parameters (a frozen layer's backward is dX only),
 * quantizer levels, and a tiny end-to-end training run that must fit a
 * toy problem.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/conv_transpose.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "nn/pool.hh"
#include "nn/quantize.hh"
#include "nn/sequential.hh"
#include "tensor/ops.hh"
#include "util/check.hh"
#include "util/rng.hh"

namespace leca {
namespace {

Tensor
randomTensor(std::vector<int> shape, Rng &rng, double lo = -1.0,
             double hi = 1.0)
{
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(lo, hi));
    return t;
}

TEST(Conv2d, OutputShape)
{
    Rng rng(1);
    Conv2d conv(3, 8, 2, 2, 0, true, rng);
    Tensor y = conv.forward(Tensor({2, 3, 8, 8}), Mode::Eval);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 4, 4}));
}

TEST(Conv2d, MatchesFreeFunction)
{
    Rng rng(2);
    Conv2d conv(2, 3, 3, 1, 1, true, rng);
    Tensor x = randomTensor({2, 2, 5, 5}, rng);
    Tensor via_layer = conv.forward(x, Mode::Eval);
    Tensor via_op =
        conv2d(x, conv.weight().value, conv.bias().value, 1, 1);
    for (std::size_t i = 0; i < via_layer.numel(); ++i)
        EXPECT_NEAR(via_layer[i], via_op[i], 1e-5f);
}

TEST(ConvTranspose2d, UpsamplesByStride)
{
    Rng rng(3);
    ConvTranspose2d deconv(4, 3, 2, 2, true, rng);
    Tensor y = deconv.forward(Tensor({1, 4, 5, 5}), Mode::Eval);
    EXPECT_EQ(y.shape(), (std::vector<int>{1, 3, 10, 10}));
}

TEST(ConvTranspose2d, IsAdjointOfConv)
{
    // <conv(x), y> == <x, convT(y)> when they share a weight.
    Rng rng(4);
    const int cin = 2, cout = 3, k = 2, s = 2;
    Conv2d conv(cin, cout, k, s, 0, false, rng);
    ConvTranspose2d deconv(cout, cin, k, s, false, rng);
    // Copy conv weight [cout, cin, k, k] into deconv weight
    // [cout, cin, k, k] (deconv's Cin = conv's Cout).
    deconv.weight().value = conv.weight().value;

    Tensor x = randomTensor({1, cin, 6, 6}, rng);
    Tensor y = randomTensor({1, cout, 3, 3}, rng);
    Tensor cx = conv.forward(x, Mode::Eval);
    Tensor dy = deconv.forward(y, Mode::Eval);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < cx.numel(); ++i)
        lhs += static_cast<double>(cx[i]) * y[i];
    for (std::size_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x[i]) * dy[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(BatchNorm2d, NormalisesTrainingBatch)
{
    Rng rng(5);
    BatchNorm2d bn(2);
    Tensor x = randomTensor({8, 2, 4, 4}, rng, 3.0, 9.0);
    Tensor y = bn.forward(x, Mode::Train);
    // Each channel of y should be ~zero-mean unit-var.
    for (int c = 0; c < 2; ++c) {
        double sum = 0.0, sq = 0.0;
        int count = 0;
        for (int n = 0; n < 8; ++n)
            for (int h = 0; h < 4; ++h)
                for (int w = 0; w < 4; ++w) {
                    const double v = y.at(n, c, h, w);
                    sum += v;
                    sq += v * v;
                    ++count;
                }
        EXPECT_NEAR(sum / count, 0.0, 1e-4);
        EXPECT_NEAR(sq / count, 1.0, 1e-2);
    }
}

TEST(BatchNorm2d, EvalUsesRunningStats)
{
    Rng rng(6);
    BatchNorm2d bn(1);
    // Batch with mean 10 and variance 1.
    Tensor x({2, 1, 1, 1});
    x.at(0, 0, 0, 0) = 9.0f;
    x.at(1, 0, 0, 0) = 11.0f;
    for (int i = 0; i < 200; ++i)
        bn.forward(x, Mode::Train);
    EXPECT_NEAR(bn.runningMean()[0], 10.0f, 0.05f);
    EXPECT_NEAR(bn.runningVar()[0], 1.0f, 0.05f);
    // In eval, the running mean maps to ~beta = 0, mean+std to ~gamma = 1.
    Tensor probe({2, 1, 1, 1});
    probe.at(0, 0, 0, 0) = 10.0f;
    probe.at(1, 0, 0, 0) = 11.0f;
    Tensor y = bn.forward(probe, Mode::Eval);
    EXPECT_NEAR(y[0], 0.0f, 0.05f);
    EXPECT_NEAR(y[1], 1.0f, 0.1f);
}

TEST(Relu, ZeroesNegatives)
{
    Relu relu;
    Tensor x = Tensor::fromData({3}, {-1.0f, 0.0f, 2.0f});
    Tensor y = relu.forward(x, Mode::Eval);
    EXPECT_FLOAT_EQ(y.at(0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(1), 0.0f);
    EXPECT_FLOAT_EQ(y.at(2), 2.0f);
}

TEST(HardClamp, ClampsRange)
{
    HardClamp clamp(0.0f, 1.0f);
    Tensor x = Tensor::fromData({3}, {-0.5f, 0.5f, 1.5f});
    Tensor y = clamp.forward(x, Mode::Eval);
    EXPECT_FLOAT_EQ(y.at(0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(1), 0.5f);
    EXPECT_FLOAT_EQ(y.at(2), 1.0f);
}

TEST(QBits, LevelCounts)
{
    EXPECT_EQ(QBits(1.0).levels(), 2);
    EXPECT_EQ(QBits(1.5).levels(), 3);
    EXPECT_EQ(QBits(2.0).levels(), 4);
    EXPECT_EQ(QBits(3.0).levels(), 8);
    EXPECT_EQ(QBits(4.0).levels(), 16);
    EXPECT_EQ(QBits(8.0).levels(), 256);
    EXPECT_TRUE(QBits(1.5).isTernary());
    EXPECT_FALSE(QBits(2.0).isTernary());
}

TEST(Quantize, CodesCoverRange)
{
    EXPECT_EQ(quantizeCode(0.0f, 0.0f, 1.0f, 4), 0);
    EXPECT_EQ(quantizeCode(1.0f, 0.0f, 1.0f, 4), 3);
    EXPECT_EQ(quantizeCode(0.5f, 0.0f, 1.0f, 4), 2); // rounds to 2/3
    EXPECT_EQ(quantizeCode(-5.0f, 0.0f, 1.0f, 4), 0);
    EXPECT_EQ(quantizeCode(5.0f, 0.0f, 1.0f, 4), 3);
}

TEST(Quantize, RoundTripIdempotent)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const float x = static_cast<float>(rng.uniform(-1.0, 2.0));
        const float q1 = quantizeUniform(x, 0.0f, 1.0f, 8);
        const float q2 = quantizeUniform(q1, 0.0f, 1.0f, 8);
        EXPECT_FLOAT_EQ(q1, q2);
    }
}

TEST(Quantize, TernaryLevels)
{
    // 1.5-bit should emit exactly {lo, mid, hi}.
    const int levels = QBits(1.5).levels();
    EXPECT_EQ(levels, 3);
    EXPECT_FLOAT_EQ(quantizeUniform(-0.9f, -1.0f, 1.0f, levels), -1.0f);
    EXPECT_FLOAT_EQ(quantizeUniform(0.1f, -1.0f, 1.0f, levels), 0.0f);
    EXPECT_FLOAT_EQ(quantizeUniform(0.8f, -1.0f, 1.0f, levels), 1.0f);
}

TEST(Quantize, ErrorBoundedByHalfStep)
{
    Rng rng(8);
    const int levels = 16;
    const float step = 1.0f / (levels - 1);
    for (int i = 0; i < 200; ++i) {
        const float x = static_cast<float>(rng.uniform(0.0, 1.0));
        const float q = quantizeUniform(x, 0.0f, 1.0f, levels);
        EXPECT_LE(std::abs(q - x), step / 2 + 1e-6f);
    }
}

TEST(Optimizer, SgdMovesAgainstGradient)
{
    Param p(Tensor::fromData({2}, {1.0f, -1.0f}));
    p.grad = Tensor::fromData({2}, {0.5f, -0.5f});
    Sgd sgd({&p}, 0.1, 0.0);
    sgd.step();
    EXPECT_NEAR(p.value.at(0), 0.95f, 1e-6f);
    EXPECT_NEAR(p.value.at(1), -0.95f, 1e-6f);
}

TEST(Optimizer, SgdMomentumAccumulates)
{
    Param p(Tensor::fromData({1}, {0.0f}));
    Sgd sgd({&p}, 0.1, 0.9);
    p.grad = Tensor::fromData({1}, {1.0f});
    sgd.step();
    const float after_one = p.value.at(0);
    p.grad = Tensor::fromData({1}, {1.0f});
    sgd.step();
    // Second step is larger due to momentum.
    EXPECT_LT(p.value.at(0) - after_one, after_one);
}

TEST(Optimizer, FrozenParamNotUpdated)
{
    Param p(Tensor::fromData({1}, {3.0f}));
    p.frozen = true;
    p.grad = Tensor::fromData({1}, {100.0f});
    Adam adam({&p}, 0.1);
    adam.step();
    EXPECT_FLOAT_EQ(p.value.at(0), 3.0f);
}

TEST(Optimizer, AdamStepSizeBounded)
{
    // Adam's first update magnitude is ~lr regardless of grad scale.
    Param p(Tensor::fromData({1}, {0.0f}));
    p.grad = Tensor::fromData({1}, {1e6f});
    Adam adam({&p}, 0.01);
    adam.step();
    EXPECT_NEAR(p.value.at(0), -0.01f, 1e-4f);
}

TEST(Optimizer, ZeroGradClears)
{
    Param p(Tensor::fromData({2}, {1.0f, 2.0f}));
    p.grad = Tensor::fromData({2}, {5.0f, 6.0f});
    Sgd sgd({&p}, 0.1);
    sgd.zeroGrad();
    EXPECT_FLOAT_EQ(p.grad.at(0), 0.0f);
    EXPECT_FLOAT_EQ(p.grad.at(1), 0.0f);
}

TEST(Loss, PerfectPredictionLowLoss)
{
    Tensor logits = Tensor::fromData({2, 3},
                                     {10.0f, -10.0f, -10.0f,
                                      -10.0f, 10.0f, -10.0f});
    SoftmaxCrossEntropy loss;
    EXPECT_LT(loss.forward(logits, {0, 1}), 1e-3);
    EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1}), 1.0);
    EXPECT_DOUBLE_EQ(accuracy(logits, {2, 2}), 0.0);
}

TEST(Loss, UniformLogitsGiveLogK)
{
    Tensor logits = Tensor::zeros({1, 8});
    SoftmaxCrossEntropy loss;
    EXPECT_NEAR(loss.forward(logits, {3}), std::log(8.0), 1e-5);
}

TEST(Freeze, MarksAllParams)
{
    Rng rng(9);
    Sequential seq;
    seq.emplace<Conv2d>(1, 2, 3, 1, 1, true, rng);
    seq.emplace<BatchNorm2d>(2);
    seq.freeze(true);
    for (Param *p : seq.params())
        EXPECT_TRUE(p->frozen);
    seq.freeze(false);
    for (Param *p : seq.params())
        EXPECT_FALSE(p->frozen);
}

/** A fresh layer and an input it accepts. */
struct FrozenCase
{
    const char *name;
    std::function<LayerPtr(Rng &)> make;
    std::vector<int> inShape;
};

std::vector<FrozenCase>
frozenCases()
{
    return {
        {"Conv2d bias s2 p1", [](Rng &r) -> LayerPtr {
             return std::make_unique<Conv2d>(3, 5, 3, 2, 1, true, r);
         }, {2, 3, 7, 7}},
        {"Conv2d no-bias s2 p1", [](Rng &r) -> LayerPtr {
             return std::make_unique<Conv2d>(3, 5, 3, 2, 1, false, r);
         }, {2, 3, 7, 7}},
        {"ConvTranspose2d", [](Rng &r) -> LayerPtr {
             return std::make_unique<ConvTranspose2d>(4, 3, 2, 2, true, r);
         }, {2, 4, 5, 5}},
        {"Linear", [](Rng &r) -> LayerPtr {
             return std::make_unique<Linear>(6, 4, r);
         }, {3, 6}},
        {"BatchNorm2d", [](Rng &) -> LayerPtr {
             return std::make_unique<BatchNorm2d>(3);
         }, {2, 3, 4, 4}},
        {"ResidualBlock projection", [](Rng &r) -> LayerPtr {
             return std::make_unique<ResidualBlock>(3, 6, 2, r);
         }, {2, 3, 8, 8}},
        {"ResidualBlock identity", [](Rng &r) -> LayerPtr {
             return std::make_unique<ResidualBlock>(4, 4, 1, r);
         }, {2, 4, 6, 6}},
    };
}

TEST(Freeze, FrozenBackwardIsDxOnly)
{
    // A layer whose Params are all frozen returns the unfrozen layer's
    // dX bit for bit and writes no gradient.
    for (const FrozenCase &fc : frozenCases()) {
        Rng init(40);
        LayerPtr layer = fc.make(init);
        Rng data(41);
        const Tensor x = randomTensor(fc.inShape, data);
        const Tensor dy = randomTensor(layer->forward(x, Mode::Eval).shape(),
                                       data);

        layer->forward(x, Mode::Train);
        const Tensor dx_live = layer->backward(dy);
        for (Param *p : layer->params())
            p->zeroGrad();

        layer->freeze(true);
        layer->forward(x, Mode::Train);
        const Tensor dx_frozen = layer->backward(dy);
        ASSERT_EQ(dx_frozen.shape(), dx_live.shape()) << fc.name;
        EXPECT_EQ(std::memcmp(dx_frozen.data(), dx_live.data(),
                              dx_live.numel() * sizeof(float)),
                  0)
            << fc.name << ": frozen dX differs";
        for (Param *p : layer->params()) {
            const Tensor zero = Tensor::zeros(p->grad.shape());
            EXPECT_EQ(std::memcmp(p->grad.data(), zero.data(),
                                  zero.numel() * sizeof(float)),
                      0)
                << fc.name << ": a frozen grad was written";
        }
    }
}

TEST(Freeze, ToggleBetweenForwardAndBackwardThrows)
{
    for (const FrozenCase &fc : frozenCases()) {
        for (bool frozen_at_forward : {false, true}) {
            Rng init(42);
            LayerPtr layer = fc.make(init);
            Rng data(43);
            const Tensor x = randomTensor(fc.inShape, data);
            layer->freeze(frozen_at_forward);
            const Tensor y = layer->forward(x, Mode::Train);
            layer->freeze(!frozen_at_forward);
            EXPECT_THROW(layer->backward(randomTensor(y.shape(), data)),
                         CheckError)
                << fc.name << " frozen at forward: " << frozen_at_forward;
        }
    }
}

TEST(Training, LinearModelFitsSeparableToy)
{
    // Two Gaussian blobs in 4-D must be separated in a few epochs.
    Rng rng(10);
    const int n = 64;
    Tensor x({n, 4});
    std::vector<int> labels(n);
    for (int i = 0; i < n; ++i) {
        const int cls = i % 2;
        labels[static_cast<std::size_t>(i)] = cls;
        for (int j = 0; j < 4; ++j)
            x.at(i, j) = static_cast<float>(
                rng.gaussian(cls ? 1.0 : -1.0, 0.4));
    }
    Linear fc(4, 2, rng);
    Adam adam(fc.params(), 0.05);
    SoftmaxCrossEntropy loss;
    double final_loss = 1e9;
    for (int epoch = 0; epoch < 60; ++epoch) {
        adam.zeroGrad();
        Tensor logits = fc.forward(x, Mode::Train);
        final_loss = loss.forward(logits, labels);
        fc.backward(loss.backward());
        adam.step();
    }
    EXPECT_LT(final_loss, 0.1);
    Tensor logits = fc.forward(x, Mode::Eval);
    EXPECT_GT(accuracy(logits, labels), 0.95);
}

TEST(Training, SmallConvNetLearnsPattern)
{
    // Classify images by whether the left or right half is brighter.
    Rng rng(11);
    const int n = 48, hw = 8;
    Tensor x({n, 1, hw, hw});
    std::vector<int> labels(n);
    for (int i = 0; i < n; ++i) {
        const int cls = i % 2;
        labels[static_cast<std::size_t>(i)] = cls;
        for (int h = 0; h < hw; ++h)
            for (int w = 0; w < hw; ++w) {
                const bool bright_side = (w < hw / 2) == (cls == 0);
                x.at(i, 0, h, w) = static_cast<float>(
                    rng.uniform(0, 0.3) + (bright_side ? 0.7 : 0.0));
            }
    }
    Sequential net;
    net.emplace<Conv2d>(1, 4, 3, 1, 1, true, rng);
    net.emplace<Relu>();
    net.emplace<GlobalAvgPool>();
    net.emplace<Linear>(4, 2, rng);

    Adam adam(net.params(), 0.02);
    SoftmaxCrossEntropy loss;
    for (int epoch = 0; epoch < 80; ++epoch) {
        adam.zeroGrad();
        Tensor logits = net.forward(x, Mode::Train);
        loss.forward(logits, labels);
        net.backward(loss.backward());
        adam.step();
    }
    Tensor logits = net.forward(x, Mode::Eval);
    EXPECT_GT(accuracy(logits, labels), 0.9);
}

TEST(Flatten, ReshapesAndRestores)
{
    Flatten flat;
    Rng rng(14);
    Tensor x = randomTensor({2, 3, 4, 5}, rng);
    Tensor y = flat.forward(x, Mode::Train);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 60}));
    Tensor dx = flat.backward(y);
    EXPECT_EQ(dx.shape(), x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i)
        EXPECT_FLOAT_EQ(dx[i], x[i]);
}

TEST(MseLoss, ZeroForIdenticalTensors)
{
    MseLoss loss;
    Tensor a = Tensor::full({4}, 0.3f);
    EXPECT_DOUBLE_EQ(loss.forward(a, a), 0.0);
}

TEST(MseLoss, KnownValueAndGradient)
{
    MseLoss loss;
    Tensor pred = Tensor::fromData({2}, {1.0f, 3.0f});
    Tensor target = Tensor::fromData({2}, {0.0f, 1.0f});
    EXPECT_DOUBLE_EQ(loss.forward(pred, target), (1.0 + 4.0) / 2.0);
    const Tensor d = loss.backward();
    EXPECT_FLOAT_EQ(d.at(0), 1.0f);  // 2*(1-0)/2
    EXPECT_FLOAT_EQ(d.at(1), 2.0f);  // 2*(3-1)/2
}

TEST(MseLoss, GradientMatchesFiniteDifference)
{
    Rng rng(15);
    Tensor pred = randomTensor({3, 2}, rng);
    Tensor target = randomTensor({3, 2}, rng);
    MseLoss loss;
    loss.forward(pred, target);
    const Tensor d = loss.backward();
    const double eps = 1e-3;
    for (std::size_t i = 0; i < pred.numel(); ++i) {
        const float orig = pred[i];
        pred[i] = orig + static_cast<float>(eps);
        MseLoss l1;
        const double fp = l1.forward(pred, target);
        pred[i] = orig - static_cast<float>(eps);
        MseLoss l2;
        const double fm = l2.forward(pred, target);
        pred[i] = orig;
        EXPECT_NEAR(d[i], (fp - fm) / (2 * eps), 1e-4);
    }
}

TEST(Sequential, EmptyActsAsIdentity)
{
    Sequential seq;
    Rng rng(12);
    Tensor x = randomTensor({2, 3}, rng);
    Tensor y = seq.forward(x, Mode::Eval);
    for (std::size_t i = 0; i < x.numel(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(ResidualBlock, ShapePreservingAndDownsampling)
{
    Rng rng(13);
    ResidualBlock same(4, 4, 1, rng);
    Tensor y1 = same.forward(Tensor({1, 4, 8, 8}), Mode::Eval);
    EXPECT_EQ(y1.shape(), (std::vector<int>{1, 4, 8, 8}));

    ResidualBlock down(4, 8, 2, rng);
    Tensor y2 = down.forward(Tensor({1, 4, 8, 8}), Mode::Eval);
    EXPECT_EQ(y2.shape(), (std::vector<int>{1, 8, 4, 4}));
}

} // namespace
} // namespace leca

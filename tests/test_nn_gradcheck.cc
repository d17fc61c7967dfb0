/**
 * @file
 * Finite-difference gradient checks for every differentiable layer.
 * These validate the hand-derived backward passes that the whole LeCA
 * training methodology rests on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/conv_transpose.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/pool.hh"
#include "nn/quantize.hh"
#include "nn/sequential.hh"
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

/** Scalar objective: sum(weights .* layer(x)). */
double
objective(Layer &layer, const Tensor &x, const Tensor &probe)
{
    const Tensor y = layer.forward(x, Mode::Train);
    EXPECT_EQ(y.numel(), probe.numel());
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i)
        acc += static_cast<double>(y[i]) * probe[i];
    return acc;
}

/**
 * Check layer input and parameter gradients against central differences.
 * @param tol relative/absolute mixed tolerance.
 */
void
gradCheck(Layer &layer, Tensor x, Rng &rng, double tol = 2e-2,
          double eps = 1e-3)
{
    // Analytic pass.
    Tensor y = layer.forward(x, Mode::Train);
    Tensor probe = randomTensor(y.shape(), rng);
    for (Param *p : layer.params())
        p->zeroGrad();
    Tensor dx = layer.backward(probe);

    // Numeric input gradient.
    for (std::size_t i = 0; i < x.numel();
         i += std::max<std::size_t>(1, x.numel() / 24)) {
        const float orig = x[i];
        x[i] = orig + static_cast<float>(eps);
        const double f_plus = objective(layer, x, probe);
        x[i] = orig - static_cast<float>(eps);
        const double f_minus = objective(layer, x, probe);
        x[i] = orig;
        const double num = (f_plus - f_minus) / (2.0 * eps);
        EXPECT_NEAR(dx[i], num, tol * (1.0 + std::abs(num)))
            << "input grad mismatch at " << i;
    }

    // Numeric parameter gradients.
    for (Param *p : layer.params()) {
        for (std::size_t i = 0; i < p->value.numel();
             i += std::max<std::size_t>(1, p->value.numel() / 16)) {
            const float orig = p->value[i];
            p->value[i] = orig + static_cast<float>(eps);
            const double f_plus = objective(layer, x, probe);
            p->value[i] = orig - static_cast<float>(eps);
            const double f_minus = objective(layer, x, probe);
            p->value[i] = orig;
            const double num = (f_plus - f_minus) / (2.0 * eps);
            EXPECT_NEAR(p->grad[i], num, tol * (1.0 + std::abs(num)))
                << "param grad mismatch at " << i;
        }
    }
}

TEST(GradCheck, Conv2dStride1Pad1)
{
    Rng rng(101);
    Conv2d conv(2, 3, 3, 1, 1, true, rng);
    gradCheck(conv, randomTensor({2, 2, 5, 5}, rng), rng);
}

TEST(GradCheck, Conv2dStride2NoPad)
{
    Rng rng(102);
    Conv2d conv(3, 4, 2, 2, 0, true, rng);
    gradCheck(conv, randomTensor({2, 3, 6, 6}, rng), rng);
}

TEST(GradCheck, Conv2dNoBias)
{
    Rng rng(103);
    Conv2d conv(1, 2, 3, 1, 0, false, rng);
    gradCheck(conv, randomTensor({1, 1, 5, 5}, rng), rng);
}

TEST(GradCheck, ConvTranspose2dStride2)
{
    Rng rng(104);
    ConvTranspose2d deconv(3, 2, 2, 2, true, rng);
    gradCheck(deconv, randomTensor({2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, ConvTranspose2dStride3Kernel3)
{
    Rng rng(105);
    ConvTranspose2d deconv(2, 2, 3, 3, false, rng);
    gradCheck(deconv, randomTensor({1, 2, 3, 3}, rng), rng);
}

TEST(GradCheck, Linear)
{
    Rng rng(106);
    Linear fc(6, 4, rng);
    gradCheck(fc, randomTensor({3, 6}, rng), rng);
}

TEST(GradCheck, BatchNorm2d)
{
    Rng rng(107);
    BatchNorm2d bn(3);
    gradCheck(bn, randomTensor({4, 3, 3, 3}, rng), rng, 3e-2);
}

TEST(GradCheck, Relu)
{
    Rng rng(108);
    Relu relu;
    // Keep values away from the kink at 0.
    Tensor x = randomTensor({2, 2, 3, 3}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i)
        if (std::abs(x[i]) < 0.05f)
            x[i] = 0.2f;
    gradCheck(relu, x, rng);
}

TEST(GradCheck, HardClamp)
{
    Rng rng(109);
    HardClamp clamp(-0.5f, 0.5f);
    Tensor x = randomTensor({2, 8}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i)
        if (std::abs(std::abs(x[i]) - 0.5f) < 0.05f)
            x[i] = 0.0f;
    gradCheck(clamp, x, rng);
}

TEST(GradCheck, GlobalAvgPool)
{
    Rng rng(112);
    GlobalAvgPool pool;
    gradCheck(pool, randomTensor({2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, ResidualBlockIdentitySkip)
{
    Rng rng(113);
    ResidualBlock block(3, 3, 1, rng);
    gradCheck(block, randomTensor({2, 3, 4, 4}, rng), rng, 4e-2);
}

TEST(GradCheck, ResidualBlockProjectedSkip)
{
    Rng rng(114);
    ResidualBlock block(2, 4, 2, rng);
    gradCheck(block, randomTensor({2, 2, 4, 4}, rng), rng, 4e-2);
}

TEST(GradCheck, SequentialStack)
{
    Rng rng(115);
    Sequential seq;
    seq.emplace<Conv2d>(2, 3, 3, 1, 1, true, rng);
    seq.emplace<Relu>();
    seq.emplace<Conv2d>(3, 2, 3, 1, 1, true, rng);
    Tensor x = randomTensor({1, 2, 4, 4}, rng);
    gradCheck(seq, x, rng, 4e-2);
}

TEST(GradCheck, SoftmaxCrossEntropy)
{
    Rng rng(116);
    Tensor logits = randomTensor({3, 5}, rng, -2, 2);
    std::vector<int> labels = {1, 4, 0};
    SoftmaxCrossEntropy loss;
    loss.forward(logits, labels);
    Tensor d = loss.backward();
    const double eps = 1e-3;
    for (std::size_t i = 0; i < logits.numel(); ++i) {
        const float orig = logits[i];
        logits[i] = orig + static_cast<float>(eps);
        SoftmaxCrossEntropy l1;
        const double f_plus = l1.forward(logits, labels);
        logits[i] = orig - static_cast<float>(eps);
        SoftmaxCrossEntropy l2;
        const double f_minus = l2.forward(logits, labels);
        logits[i] = orig;
        const double num = (f_plus - f_minus) / (2.0 * eps);
        EXPECT_NEAR(d[i], num, 1e-3);
    }
}

} // namespace
} // namespace leca

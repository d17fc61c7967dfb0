/**
 * @file
 * The deterministic parallel execution context: pool basics (coverage,
 * exceptions, nesting, reconfiguration) and the repo-wide determinism
 * policy — bit-identical logits, gradients, compressed outputs, noisy
 * captures and hard/noisy encoder features and gradients for
 * LECA_THREADS = 1, 2 and 8 (1, 2 and 4 for the encoder) on fixed-seed
 * pipelines (extends the seed-determinism regression from
 * tests/test_check.cc).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "compression/compressive_sensing.hh"
#include "compression/microshift.hh"
#include "core/encoder.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "hw/sensor_chip.hh"
#include "hw/weights.hh"
#include "nn/loss.hh"
#include "tensor/ops.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace leca {
namespace {

/** Restores the ambient thread count after each test. */
class ParallelTest : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }

  private:
    int _saved = 1;
};

TEST_F(ParallelTest, ThreadCountRoundTrip)
{
    setThreadCount(3);
    EXPECT_EQ(threadCount(), 3);
    setThreadCount(1);
    EXPECT_EQ(threadCount(), 1);
}

TEST_F(ParallelTest, ForCoversEveryIndexOnce)
{
    setThreadCount(8);
    for (std::int64_t grain : {1, 3, 7, 100}) {
        const std::int64_t n = 257;
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        for (auto &h : hits)
            h.store(0);
        parallelFor(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
            EXPECT_LE(hi - lo, grain);
            for (std::int64_t i = lo; i < hi; ++i)
                hits[static_cast<std::size_t>(i)].fetch_add(1);
        });
        for (std::int64_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
                << "index " << i << " grain " << grain;
    }
}

TEST_F(ParallelTest, EmptyRangeNeverInvokes)
{
    setThreadCount(4);
    bool called = false;
    parallelFor(5, 5, 1, [&](std::int64_t, std::int64_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST_F(ParallelTest, NestedRegionsRunSerially)
{
    setThreadCount(8);
    std::vector<int> out(64, 0);
    parallelFor(0, 8, 1, [&](std::int64_t o0, std::int64_t o1) {
        for (std::int64_t o = o0; o < o1; ++o) {
            parallelFor(0, 8, 1, [&](std::int64_t i0, std::int64_t i1) {
                for (std::int64_t i = i0; i < i1; ++i)
                    out[static_cast<std::size_t>(o * 8 + i)] =
                        static_cast<int>(o * 8 + i);
            });
        }
    });
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST_F(ParallelTest, ExceptionsPropagateToCaller)
{
    setThreadCount(4);
    EXPECT_THROW(
        parallelFor(0, 100, 1, [&](std::int64_t lo, std::int64_t) {
            if (lo == 42)
                throw std::runtime_error("boom");
        }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> sum{0};
    parallelFor(0, 10, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
            sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST_F(ParallelTest, ReduceMatchesSerialBitwise)
{
    // grain == 1 must reproduce the serial accumulation exactly,
    // including floating-point rounding.
    const std::int64_t n = 1000;
    double serial = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
        serial += 1.0 / static_cast<double>(i + 1);

    for (int threads : {1, 2, 8}) {
        setThreadCount(threads);
        const double parallel = parallelReduce(
            0, n, 1, 0.0,
            [](std::int64_t lo, std::int64_t) {
                return 1.0 / static_cast<double>(lo + 1);
            },
            [](double acc, double part) { return acc + part; });
        EXPECT_EQ(parallel, serial) << "threads " << threads;
    }
}

/** Runs fn under each thread count and asserts identical float output. */
template <typename Fn>
void
expectInvariant(const Fn &fn, const char *what,
                std::initializer_list<int> thread_counts = {2, 8})
{
    setThreadCount(1);
    const std::vector<float> reference = fn();
    for (int threads : thread_counts) {
        setThreadCount(threads);
        const std::vector<float> got = fn();
        ASSERT_EQ(got.size(), reference.size()) << what;
        for (std::size_t i = 0; i < reference.size(); ++i)
            ASSERT_EQ(got[i], reference[i])
                << what << " diverges at " << i << " with " << threads
                << " threads";
    }
}

std::vector<float>
toVec(const Tensor &t)
{
    return std::vector<float>(t.data(), t.data() + t.numel());
}

Tensor
randomTensor(std::vector<int> shape, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(-1, 1));
    return t;
}

TEST_F(ParallelTest, MatmulInvariantAcrossThreadCounts)
{
    expectInvariant([] {
        const Tensor a = randomTensor({37, 53}, 1);
        const Tensor b = randomTensor({53, 29}, 2);
        const Tensor c = randomTensor({37, 61}, 3);
        const Tensor d = randomTensor({61, 29}, 4);
        std::vector<float> out = toVec(matmul(a, b));
        const std::vector<float> ta = toVec(matmulTransA(c, matmul(c, d)));
        const std::vector<float> tb = toVec(matmulTransB(a, matmulTransB(b, b)));
        out.insert(out.end(), ta.begin(), ta.end());
        out.insert(out.end(), tb.begin(), tb.end());
        return out;
    }, "matmul family");
}

TEST_F(ParallelTest, LogitsAndGradientsInvariantAcrossThreadCounts)
{
    expectInvariant([] {
        SyntheticVision::Config cfg;
        cfg.resolution = 16;
        cfg.numClasses = 4;
        cfg.seed = 11;
        SyntheticVision gen(cfg);
        const Dataset ds = gen.generate(6, 1);

        Rng rng(5);
        auto net = makeBackbone(BackboneStyle::Proxy, 3, 4, rng);
        SoftmaxCrossEntropy loss;
        const Tensor logits = net->forward(ds.images, Mode::Train);
        loss.forward(logits, ds.labels);
        net->backward(loss.backward());

        std::vector<float> out = toVec(logits);
        for (Param *p : net->params()) {
            const std::vector<float> g = toVec(p->grad);
            out.insert(out.end(), g.begin(), g.end());
        }
        return out;
    }, "logits+gradients");
}

TEST_F(ParallelTest, CompressedOutputsInvariantAcrossThreadCounts)
{
    expectInvariant([] {
        const Tensor batch = randomTensor({4, 3, 16, 16}, 21);
        Tensor clipped(batch.shape());
        for (std::size_t i = 0; i < batch.numel(); ++i)
            clipped[i] = 0.5f + 0.49f * batch[i];
        Microshift ms(2);
        CompressiveSensing cs(8, 3, 20);
        std::vector<float> out = toVec(ms.process(clipped));
        const std::vector<float> c = toVec(cs.process(clipped));
        out.insert(out.end(), c.begin(), c.end());
        return out;
    }, "compressed outputs");
}

TEST_F(ParallelTest, NoisyChipCaptureInvariantAcrossThreadCounts)
{
    expectInvariant([] {
        ChipConfig cfg;
        cfg.rgbHeight = 16;
        cfg.rgbWidth = 16;
        cfg.monteCarlo = true;
        LecaSensorChip chip(cfg);
        Rng krng(19);
        Tensor w({4, 3, 2, 2});
        for (std::size_t i = 0; i < w.numel(); ++i)
            w[i] = static_cast<float>(krng.uniform(-1, 1));
        chip.loadKernels(flattenKernels(w, 1.0f));
        Tensor scene({3, 16, 16});
        for (std::size_t i = 0; i < scene.numel(); ++i)
            scene[i] = static_cast<float>(krng.uniform(0.2, 0.8));
        Rng frame_rng(1);
        const Tensor codes =
            chip.encodeFrame(scene, PeMode::RealNoisy, frame_rng, true);
        return toVec(codes);
    }, "noisy chip capture");
}

TEST_F(ParallelTest, HardAndNoisyEncoderInvariantAcrossThreadCounts)
{
    // The circuit-model encoder splits the forward by image (one
    // pre-split noise stream each) and the backward by kernel; features
    // and both parameter gradients must not depend on the split.
    for (EncoderModality m : {EncoderModality::Hard, EncoderModality::Noisy}) {
        expectInvariant([m] {
            LecaConfig cfg;
            cfg.nch = 4;
            Rng init(7);
            LecaEncoder enc(cfg, CircuitConfig{}, SensorConfig{}, init);
            Rng mc(3);
            enc.setNoiseModel(extractNoiseModel(CircuitConfig{}, 50, mc));
            Rng noise(5);
            enc.setNoiseRng(&noise);
            enc.setModality(m);
            Tensor x = randomTensor({5, 3, 12, 12}, 31);
            for (std::size_t i = 0; i < x.numel(); ++i)
                x[i] = 0.5f + 0.45f * x[i];
            const Tensor features = enc.forward(x, Mode::Train);
            enc.backward(randomTensor(features.shape(), 37));

            std::vector<float> out = toVec(features);
            const std::vector<float> gw = toVec(enc.weight().grad);
            out.insert(out.end(), gw.begin(), gw.end());
            out.push_back(enc.outScale().grad[0]);
            return out;
        }, m == EncoderModality::Hard ? "hard encoder" : "noisy encoder",
           {2, 4});
    }
}

} // namespace
} // namespace leca

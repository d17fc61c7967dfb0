/**
 * @file
 * Tests for the data module: SyntheticVision determinism and class
 * structure, image IO round trips, augmentation invariants, the
 * training loop, and parameter serialization (including a sweep of
 * every single-bit flip of a small checkpoint).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <vector>

#include "data/augment.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/image_io.hh"
#include "data/serialize.hh"
#include "data/trainloop.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/pool.hh"
#include "nn/sequential.hh"
#include "tensor/ops.hh"
#include "tensor/quant.hh"
#include "util/check.hh"

namespace leca {
namespace {

SyntheticVision::Config
smallConfig()
{
    SyntheticVision::Config cfg;
    cfg.resolution = 16;
    cfg.numClasses = 4;
    cfg.seed = 7;
    return cfg;
}

TEST(SyntheticVision, DeterministicGeneration)
{
    SyntheticVision gen(smallConfig());
    const Dataset a = gen.generate(8, 1);
    const Dataset b = gen.generate(8, 1);
    ASSERT_EQ(a.images.numel(), b.images.numel());
    for (std::size_t i = 0; i < a.images.numel(); ++i)
        EXPECT_EQ(a.images[i], b.images[i]);
    EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticVision, DifferentSaltsDiffer)
{
    SyntheticVision gen(smallConfig());
    const Dataset a = gen.generate(4, 1);
    const Dataset b = gen.generate(4, 2);
    double diff = 0.0;
    for (std::size_t i = 0; i < a.images.numel(); ++i)
        diff += std::abs(a.images[i] - b.images[i]);
    EXPECT_GT(diff, 1.0);
}

TEST(SyntheticVision, BalancedLabels)
{
    SyntheticVision gen(smallConfig());
    const Dataset ds = gen.generate(40, 3);
    std::vector<int> counts(4, 0);
    for (int label : ds.labels)
        ++counts[static_cast<std::size_t>(label)];
    for (int c : counts)
        EXPECT_EQ(c, 10);
}

TEST(SyntheticVision, PixelsInUnitRange)
{
    SyntheticVision gen(smallConfig());
    const Dataset ds = gen.generate(8, 5);
    for (std::size_t i = 0; i < ds.images.numel(); ++i) {
        EXPECT_GE(ds.images[i], 0.0f);
        EXPECT_LE(ds.images[i], 1.0f);
    }
}

TEST(SyntheticVision, ClassesAreSeparableByTexture)
{
    // Images of the same class must correlate more with each other than
    // with other classes on average (sanity of the generative factors).
    SyntheticVision gen(smallConfig());
    const Dataset ds = gen.generate(32, 11);
    const int hw = 16;
    const std::size_t img = 3u * hw * hw;
    auto dot = [&](int a, int b) {
        double s = 0.0;
        for (std::size_t i = 0; i < img; ++i)
            s += static_cast<double>(ds.images[a * img + i])
                 * ds.images[b * img + i];
        return s;
    };
    double same = 0.0, other = 0.0;
    int same_n = 0, other_n = 0;
    for (int a = 0; a < 32; ++a)
        for (int b = a + 1; b < 32; ++b) {
            if (ds.labels[static_cast<std::size_t>(a)] ==
                ds.labels[static_cast<std::size_t>(b)]) {
                same += dot(a, b);
                ++same_n;
            } else {
                other += dot(a, b);
                ++other_n;
            }
        }
    EXPECT_GT(same / same_n, other / other_n);
}

TEST(ImageIo, PpmRoundTrip)
{
    SyntheticVision gen(smallConfig());
    Rng rng(3);
    const Tensor img = gen.renderImage(1, rng);
    const std::string path = "/tmp/leca_test_roundtrip.ppm";
    writePpm(img, path);
    const Tensor back = readPpm(path);
    ASSERT_TRUE(back.sameShape(img));
    for (std::size_t i = 0; i < img.numel(); ++i)
        EXPECT_NEAR(back[i], img[i], 1.0f / 255.0f + 1e-4f);
    std::remove(path.c_str());
}

TEST(ImageIo, PgmWritesFile)
{
    Tensor img = Tensor::full({8, 8}, 0.5f);
    const std::string path = "/tmp/leca_test_gray.pgm";
    writePgm(img, path);
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_GT(std::filesystem::file_size(path), 64u);
    std::remove(path.c_str());
}

TEST(Augment, FlipIsInvolution)
{
    SyntheticVision gen(smallConfig());
    Dataset ds = gen.generate(2, 17);
    Tensor orig = ds.images;
    flipHorizontal(ds.images, 0);
    flipHorizontal(ds.images, 0);
    for (std::size_t i = 0; i < orig.numel(); ++i)
        EXPECT_EQ(ds.images[i], orig[i]);
}

TEST(Augment, FlipOnlyTouchesTarget)
{
    SyntheticVision gen(smallConfig());
    Dataset ds = gen.generate(2, 19);
    Tensor orig = ds.images;
    flipHorizontal(ds.images, 0);
    const std::size_t img = ds.images.numel() / 2;
    for (std::size_t i = img; i < 2 * img; ++i)
        EXPECT_EQ(ds.images[i], orig[i]);
}

TEST(Augment, ZeroRotationIsIdentity)
{
    SyntheticVision gen(smallConfig());
    Dataset ds = gen.generate(1, 23);
    Tensor orig = ds.images;
    rotateImage(ds.images, 0, 0.0);
    for (std::size_t i = 0; i < orig.numel(); ++i)
        EXPECT_NEAR(ds.images[i], orig[i], 1e-5f);
}

TEST(Augment, RotationPreservesRange)
{
    SyntheticVision gen(smallConfig());
    Dataset ds = gen.generate(1, 29);
    rotateImage(ds.images, 0, 15.0);
    for (std::size_t i = 0; i < ds.images.numel(); ++i) {
        EXPECT_GE(ds.images[i], 0.0f);
        EXPECT_LE(ds.images[i], 1.0f);
    }
}

TEST(TrainLoop, SliceDataset)
{
    SyntheticVision gen(smallConfig());
    const Dataset ds = gen.generate(10, 31);
    const Dataset s = sliceDataset(ds, 4, 3);
    EXPECT_EQ(s.count(), 3);
    EXPECT_EQ(s.labels[0], ds.labels[4]);
    EXPECT_EQ(s.images[0],
              ds.images[4u * ds.images.numel() / 10]);
}

TEST(TrainLoop, BackboneLearnsSyntheticVision)
{
    // End-to-end: a proxy backbone must reach well-above-chance
    // accuracy on a small SyntheticVision problem within a few epochs.
    SyntheticVision::Config cfg;
    cfg.resolution = 16;
    cfg.numClasses = 4;
    cfg.seed = 99;
    SyntheticVision gen(cfg);
    const Dataset train = gen.generate(160, 1);
    const Dataset val = gen.generate(64, 2);

    Rng rng(5);
    auto net = makeBackbone(BackboneStyle::Proxy, 3, 4, rng);
    TrainOptions options;
    options.epochs = 6;
    options.batchSize = 16;
    options.learningRate = 3e-3;
    options.seed = 1;
    const double acc = trainClassifier(*net, train, val, options);
    EXPECT_GT(acc, 0.7); // chance is 0.25
}

TEST(Serialize, SaveLoadRoundTrip)
{
    Rng rng(7);
    Conv2d a(2, 3, 3, 1, 1, true, rng);
    Conv2d b(2, 3, 3, 1, 1, true, rng);
    const std::string path = "/tmp/leca_test_params.bin";
    saveParams(a.params(), path);
    ASSERT_TRUE(loadParams(b.params(), path));
    for (std::size_t i = 0; i < a.weight().value.numel(); ++i)
        EXPECT_EQ(a.weight().value[i], b.weight().value[i]);
    std::remove(path.c_str());
}

TEST(Serialize, RejectsShapeMismatch)
{
    Rng rng(7);
    Conv2d a(2, 3, 3, 1, 1, true, rng);
    Linear wrong(4, 4, rng);
    const std::string path = "/tmp/leca_test_params2.bin";
    saveParams(a.params(), path);
    EXPECT_FALSE(loadParams(wrong.params(), path));
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileReturnsFalse)
{
    Rng rng(7);
    Linear fc(2, 2, rng);
    EXPECT_FALSE(loadParams(fc.params(), "/tmp/leca_does_not_exist.bin"));
}

TEST(Serialize, RejectsCorruptPayloadWithCheckError)
{
    Rng rng(7);
    Linear fc(4, 4, rng);
    const std::string path = "/tmp/leca_test_corrupt.bin";
    saveParams(fc.params(), path);

    // Flip one payload byte: the trailing checksum must catch it.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(24); // inside the first tensor's float data
        char byte = 0;
        f.seekg(24);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(24);
        f.write(&byte, 1);
    }
    const float before = fc.params()[0]->value[0];
    EXPECT_THROW(loadParams(fc.params(), path), CheckError);
    // And the model was not half-overwritten by the attempt.
    EXPECT_EQ(fc.params()[0]->value[0], before);
    std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncationWithCheckError)
{
    Rng rng(7);
    Linear fc(4, 4, rng);
    const std::string path = "/tmp/leca_test_truncated.bin";
    saveParams(fc.params(), path);
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);
    EXPECT_THROW(loadParams(fc.params(), path), CheckError);
    std::remove(path.c_str());
}

TEST(Serialize, RejectsForeignFileWithCheckError)
{
    Rng rng(7);
    Linear fc(2, 2, rng);
    const std::string path = "/tmp/leca_test_foreign.bin";
    {
        std::ofstream f(path, std::ios::binary);
        f << "this is not a checkpoint at all";
    }
    EXPECT_THROW(loadParams(fc.params(), path), CheckError);
    std::remove(path.c_str());
}

TEST(Serialize, StaleFormatVersionReturnsFalse)
{
    Rng rng(7);
    Linear fc(2, 2, rng);
    const std::string path = "/tmp/leca_test_stale.bin";
    saveParams(fc.params(), path);
    {
        // Rewrite the version word (bytes 4..7) to a future version.
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        const std::uint32_t future = 999;
        f.seekp(4);
        f.write(reinterpret_cast<const char *>(&future), sizeof(future));
    }
    EXPECT_FALSE(loadParams(fc.params(), path)); // stale, not corrupt
    std::remove(path.c_str());
}

TEST(Serialize, RejectsKindMismatchWithCheckError)
{
    Rng rng(7);
    Linear fc(2, 2, rng);
    const std::string path = "/tmp/leca_test_kind.bin";
    saveLayerState(fc, path); // kind = layer state
    EXPECT_THROW(loadParams(fc.params(), path), CheckError);
    std::remove(path.c_str());
}

TEST(Serialize, LayerStateRoundTripsBatchNormStats)
{
    Rng rng(7);
    Linear a(3, 5, rng), b(3, 5, rng);
    a.weight().value[0] = 42.0f;
    const std::string path = "/tmp/leca_test_layer_state.bin";
    saveLayerState(a, path);
    ASSERT_TRUE(loadLayerState(b, path));
    EXPECT_EQ(b.weight().value[0], 42.0f);
    std::remove(path.c_str());
}

/** Conv2d 16→4 1×1 (no bias), then Linear 4→3: a few hundred bytes. */
std::unique_ptr<Sequential>
tinyNet(std::uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(16, 4, 1, 1, 0, false, rng);
    net->emplace<Linear>(4, 3, rng);
    return net;
}

/**
 * Loads every single-bit flip of the checkpoint at @p path into a
 * fresh tinyNet. Each load must end in a CheckError (corruption) or a
 * false return (stale version, different structure): never in another
 * exception such as std::bad_alloc, and never in a silent success.
 */
template <typename Load>
void
expectEveryBitFlipRejected(const std::string &path, Load load)
{
    std::vector<char> bytes;
    {
        std::ifstream f(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(f), {});
    }
    ASSERT_FALSE(bytes.empty());
    const std::string flipped = path + ".flip";
    int escaped = 0, accepted = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        for (int bit = 0; bit < 8; ++bit) {
            bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
            {
                std::ofstream f(flipped, std::ios::binary);
                f.write(bytes.data(),
                        static_cast<std::streamsize>(bytes.size()));
            }
            bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
            const auto fresh = tinyNet(99);
            try {
                if (load(*fresh, flipped) && ++accepted <= 3)
                    ADD_FAILURE() << "flip of bit " << bit << " in byte "
                                  << i << " loaded cleanly";
            } catch (const CheckError &) {
            } catch (const std::exception &e) {
                if (++escaped <= 3)
                    ADD_FAILURE() << "flip of bit " << bit << " in byte "
                                  << i << " escaped as " << e.what();
            }
        }
    EXPECT_EQ(escaped, 0);
    EXPECT_EQ(accepted, 0);
    std::remove(flipped.c_str());
}

TEST(Serialize, EveryBitFlipEndsInCheckErrorOrFalse)
{
    const auto net = tinyNet(7);
    const std::string dir = ::testing::TempDir();

    const std::string state_path = dir + "/leca_flip_state.bin";
    saveLayerState(*net, state_path);
    expectEveryBitFlipRejected(
        state_path, [](Layer &l, const std::string &p) {
            return loadLayerState(l, p);
        });

    std::vector<QuantStat> stats;
    net->quantizeWeights(stats);
    const std::string quant_path = dir + "/leca_flip_quant.bin";
    saveQuantizedState(*net, quant_path);
    expectEveryBitFlipRejected(
        quant_path, [](Layer &l, const std::string &p) {
            return loadQuantizedState(l, p);
        });

    // The pristine files still reload bit-exactly.
    const auto back = tinyNet(99);
    ASSERT_TRUE(loadLayerState(*back, state_path));
    ASSERT_TRUE(loadQuantizedState(*back, quant_path));
    const std::vector<Param *> want = net->params();
    const std::vector<Param *> got = back->params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(0, std::memcmp(got[i]->value.data(), want[i]->value.data(),
                                 want[i]->value.numel() * sizeof(float)))
            << "param " << i;
    const std::vector<QuantTensor *> want_q = net->quantTensors();
    const std::vector<QuantTensor *> got_q = back->quantTensors();
    ASSERT_EQ(got_q.size(), want_q.size());
    for (std::size_t i = 0; i < want_q.size(); ++i) {
        EXPECT_EQ(got_q[i]->shape, want_q[i]->shape);
        EXPECT_EQ(got_q[i]->q, want_q[i]->q) << "quantized tensor " << i;
        EXPECT_EQ(got_q[i]->scales, want_q[i]->scales)
            << "quantized tensor " << i;
    }
    std::remove(state_path.c_str());
    std::remove(quant_path.c_str());
}

TEST(Backbone, OutputShapeMatchesClasses)
{
    Rng rng(13);
    auto proxy = makeBackbone(BackboneStyle::Proxy, 3, 8, rng);
    Tensor y = proxy->forward(Tensor({2, 3, 32, 32}), Mode::Eval);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 8}));

    auto full = makeBackbone(BackboneStyle::Full, 3, 8, rng);
    Tensor y2 = full->forward(Tensor({1, 3, 32, 32}), Mode::Eval);
    EXPECT_EQ(y2.shape(), (std::vector<int>{1, 8}));
}

TEST(Backbone, FullHasMoreParamsThanProxy)
{
    Rng rng(13);
    auto proxy = makeBackbone(BackboneStyle::Proxy, 3, 8, rng);
    auto full = makeBackbone(BackboneStyle::Full, 3, 8, rng);
    auto count = [](Layer &l) {
        std::size_t n = 0;
        for (Param *p : l.params())
            n += p->value.numel();
        return n;
    };
    EXPECT_GT(count(*full), 2 * count(*proxy));
}

} // namespace
} // namespace leca

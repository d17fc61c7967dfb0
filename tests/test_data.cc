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
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bitstream/codec.hh"
#include "bitstream/container.hh"
#include "data/augment.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/image_io.hh"
#include "data/serialize.hh"
#include "data/trainloop.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/pool.hh"
#include "nn/sequential.hh"
#include "tensor/ops.hh"
#include "tensor/quant.hh"
#include "util/check.hh"
#include "util/fnv1a.hh"
#include "util/rng.hh"

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
    // A P6 header, then one byte per channel of each pixel, row-major.
    std::ifstream is(path, std::ios::binary);
    std::string magic;
    int w = 0, h = 0, maxval = 0;
    is >> magic >> w >> h >> maxval;
    is.get();
    ASSERT_EQ(magic, "P6");
    ASSERT_EQ(h, img.size(1));
    ASSERT_EQ(w, img.size(2));
    ASSERT_EQ(maxval, 255);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            for (int c = 0; c < 3; ++c) {
                const int b = is.get();
                ASSERT_GE(b, 0) << "truncated PPM";
                EXPECT_NEAR(static_cast<float>(b) / 255.0f, img.at(c, y, x),
                            1.0f / 255.0f + 1e-4f);
            }
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
    saveLayerState(a, path);
    ASSERT_TRUE(loadLayerState(b, path));
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
    saveLayerState(a, path);
    EXPECT_FALSE(loadLayerState(wrong, path));
    std::remove(path.c_str());
}

TEST(Serialize, SaveToUnwritablePathThrows)
{
    // A save or an image write that cannot open its path, or whose
    // bytes do not reach the file, throws a CheckError naming the path;
    // the process keeps running.
    Rng rng(7);
    Linear fc(2, 2, rng);
    const std::string blocker = "/tmp/leca_test_not_a_directory";
    std::ofstream(blocker) << "a regular file";
    const std::string path = blocker + "/params.bin";
    for (const auto &save : {saveLayerState, saveQuantizedState}) {
        try {
            save(fc, path);
            FAIL() << "expected CheckError";
        } catch (const CheckError &err) {
            EXPECT_NE(std::string(err.what()).find(path), std::string::npos)
                << err.what();
        }
    }
    EXPECT_THROW(writePpm(Tensor({3, 2, 2}), blocker + "/x.ppm"),
                 CheckError);
    EXPECT_THROW(writePgm(Tensor({2, 2}), blocker + "/x.pgm"), CheckError);
    std::remove(blocker.c_str());

    // /dev/full opens, then fails every write.
    if (std::filesystem::exists("/dev/full")) {
        EXPECT_THROW(saveLayerState(fc, "/dev/full"), CheckError);
        EXPECT_THROW(writePpm(Tensor({3, 2, 2}), "/dev/full"), CheckError);
        EXPECT_THROW(writePgm(Tensor({2, 2}), "/dev/full"), CheckError);
    }
}

TEST(Serialize, MissingFileReturnsFalse)
{
    Rng rng(7);
    Linear fc(2, 2, rng);
    EXPECT_FALSE(loadLayerState(fc, "/tmp/leca_does_not_exist.bin"));
}

TEST(Serialize, RejectsCorruptPayloadWithCheckError)
{
    Rng rng(7);
    Linear fc(4, 4, rng);
    const std::string path = "/tmp/leca_test_corrupt.bin";
    saveLayerState(fc, path);

    // Flip one payload byte: its section checksum must catch it.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        // The last byte of the file: inside the fp32 values section.
        const auto last =
            static_cast<std::streamoff>(std::filesystem::file_size(path)) - 1;
        char byte = 0;
        f.seekg(last);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(last);
        f.write(&byte, 1);
    }
    const float before = fc.params()[0]->value[0];
    EXPECT_THROW(loadLayerState(fc, path), CheckError);
    // And the model was not half-overwritten by the attempt.
    EXPECT_EQ(fc.params()[0]->value[0], before);
    std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncationWithCheckError)
{
    Rng rng(7);
    Linear fc(4, 4, rng);
    const std::string path = "/tmp/leca_test_truncated.bin";
    saveLayerState(fc, path);
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);
    EXPECT_THROW(loadLayerState(fc, path), CheckError);
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
    EXPECT_THROW(loadLayerState(fc, path), CheckError);
    std::remove(path.c_str());
}

TEST(Serialize, StaleFormatVersionReturnsFalse)
{
    Rng rng(7);
    Linear fc(2, 2, rng);
    const std::string path = "/tmp/leca_test_stale.bin";
    saveLayerState(fc, path);
    {
        // Rewrite the version word (bytes 4..7) to a future version.
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        const std::uint32_t future = 999;
        f.seekp(4);
        f.write(reinterpret_cast<const char *>(&future), sizeof(future));
    }
    EXPECT_FALSE(loadLayerState(fc, path)); // stale, not corrupt
    std::remove(path.c_str());
}

TEST(Serialize, RejectsKindMismatchWithCheckError)
{
    Rng rng(7);
    Linear fc(2, 2, rng);
    const std::string path = "/tmp/leca_test_kind.bin";
    saveLayerState(fc, path); // kind = layer state
    EXPECT_THROW(loadQuantizedState(fc, path), CheckError);
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

/** A pristine checkpoint's container layout. */
struct Layout
{
    std::size_t tableEnd = 0;            //!< where the header checksum sits
    std::vector<std::size_t> payloadAt;  //!< payload offset per section
    std::vector<std::size_t> payloadLen; //!< payload bytes per section
};

Layout
layoutOf(const std::vector<char> &bytes)
{
    const auto *data = reinterpret_cast<const std::uint8_t *>(bytes.data());
    const bitstream::ContainerReader cr(data, bytes.size());
    Layout layout;
    layout.tableEnd = 16 + cr.sectionCount() * 40;
    for (std::size_t i = 0; i < cr.sectionCount(); ++i) {
        layout.payloadAt.push_back(
            static_cast<std::size_t>(cr.payload(i) - data));
        layout.payloadLen.push_back(cr.section(i).encLen);
    }
    return layout;
}

/**
 * Recompute every payload checksum and then the header checksum over
 * the pristine @p layout, so a forged field has to be rejected by the
 * loader's bounds, not by a checksum.
 */
void
reseal(std::vector<char> &bytes, const Layout &layout)
{
    for (std::size_t i = 0; i < layout.payloadAt.size(); ++i) {
        Fnv1a hash;
        hash.update(bytes.data() + layout.payloadAt[i], layout.payloadLen[i]);
        const std::uint64_t digest = hash.digest();
        std::memcpy(bytes.data() + 16 + i * 40 + 32, &digest, sizeof(digest));
    }
    Fnv1a hash;
    hash.update(bytes.data() + 4, layout.tableEnd - 4);
    const std::uint64_t digest = hash.digest();
    std::memcpy(bytes.data() + layout.tableEnd, &digest, sizeof(digest));
}

/** One count, size or table field of a checkpoint. */
struct Field
{
    std::size_t offset;
    std::size_t width;
    std::uint64_t value;
};

/**
 * Every count, size and table field of a checkpoint: the container's
 * version, kind and section count; each section descriptor's id,
 * coder, predictor, aux, predStride, rawLen and encLen; and every u64
 * word of the size table (section 0) and, with @p quantized, of the
 * quantized-tensor table (section 2).
 */
std::vector<Field>
checkpointFields(const std::vector<char> &bytes, const Layout &layout,
                 bool quantized)
{
    std::vector<Field> fields;
    const auto field = [&](std::size_t offset, std::size_t width) {
        std::uint64_t value = 0;
        std::memcpy(&value, bytes.data() + offset, width);
        fields.push_back({offset, width, value});
    };
    for (const std::size_t offset : {4, 8, 12})
        field(offset, 4);
    constexpr std::size_t kDescriptor[][2] = {
        {0, 4}, {4, 1}, {5, 1}, {6, 2}, {8, 8}, {16, 8}, {24, 8}};
    for (std::size_t i = 0; i < layout.payloadAt.size(); ++i)
        for (const auto &[offset, width] : kDescriptor)
            field(16 + i * 40 + offset, width);
    for (const std::size_t section : {0, 2}) {
        if (section == 2 && !quantized)
            continue;
        for (std::size_t w = 0; w < layout.payloadLen[section]; w += 8)
            field(layout.payloadAt[section] + w, 8);
    }
    return fields;
}

/**
 * Structural mutants of the checkpoint at @p path, loaded into a fresh
 * tinyNet: every truncation, a one-byte insert and a one-byte delete
 * at 64 seeded offsets each, and every checkpointFields() entry forged
 * to 0, 1, its value ±1 and its type's max behind recomputed payload
 * and header checksums. Each load must end in a CheckError or a false
 * return.
 */
template <typename Load>
void
expectStructuralMutantsRejected(const std::string &path, bool quantized,
                                Load load)
{
    std::vector<char> good;
    {
        std::ifstream f(path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(f), {});
    }
    const Layout layout = layoutOf(good);
    ASSERT_EQ(layout.payloadAt.size(), quantized ? 5u : 2u);
    const std::string mutant = path + ".mutant";
    int failures = 0;
    const auto expectRejected = [&](const std::vector<char> &bytes,
                                    const std::string &what) {
        {
            std::ofstream f(mutant, std::ios::binary);
            f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        }
        const auto fresh = tinyNet(99);
        try {
            if (load(*fresh, mutant) && ++failures <= 3)
                ADD_FAILURE() << what << " loaded cleanly";
        } catch (const CheckError &) {
        } catch (const std::exception &e) {
            if (++failures <= 3)
                ADD_FAILURE() << what << " escaped as " << e.what();
        }
    };

    for (std::size_t len = 0; len < good.size(); ++len)
        expectRejected({good.begin(), good.begin() + len},
                       "truncation to " + std::to_string(len) + " bytes");
    Rng rng(31);
    for (int trial = 0; trial < 64; ++trial) {
        const auto at = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(good.size()) - 1));
        std::vector<char> bytes = good;
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<char>(rng.uniformInt(0, 255)));
        expectRejected(bytes, "insert at byte " + std::to_string(at));
        bytes = good;
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at));
        expectRejected(bytes, "delete of byte " + std::to_string(at));
    }
    for (const Field &f : checkpointFields(good, layout, quantized)) {
        const std::uint64_t max = f.width == 8
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << (8 * f.width)) - 1;
        for (const std::uint64_t forged :
             {std::uint64_t{0}, std::uint64_t{1}, (f.value - 1) & max,
              (f.value + 1) & max, max}) {
            if (forged == f.value)
                continue;
            std::vector<char> bytes = good;
            std::memcpy(bytes.data() + f.offset, &forged, f.width);
            reseal(bytes, layout);
            expectRejected(bytes, "field at byte " + std::to_string(f.offset)
                                      + " forged to "
                                      + std::to_string(forged));
        }
    }
    EXPECT_EQ(failures, 0);
    std::remove(mutant.c_str());
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
    expectStructuralMutantsRejected(
        state_path, false, [](Layer &l, const std::string &p) {
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
    expectStructuralMutantsRejected(
        quant_path, true, [](Layer &l, const std::string &p) {
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

/** The bytes of the file at @p path. */
std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

/** Every param and state value of @p layer, concatenated. */
std::vector<float>
valuesOf(Layer &layer)
{
    std::vector<float> out;
    for (Param *p : layer.params())
        out.insert(out.end(), p->value.data(),
                   p->value.data() + p->value.numel());
    for (Tensor *t : layer.state())
        out.insert(out.end(), t->data(), t->data() + t->numel());
    return out;
}

/**
 * Loading @p path into @p layer throws a CheckError that names the
 * path, and leaves every value and quantized tensor as it was.
 */
template <typename Load>
void
expectCorruptionRefused(Layer &layer, const std::string &path, Load load)
{
    const std::vector<float> values = valuesOf(layer);
    std::vector<std::vector<std::int8_t>> codes;
    std::vector<std::vector<float>> scales;
    for (const QuantTensor *qt : layer.quantTensors()) {
        codes.push_back(qt->q);
        scales.push_back(qt->scales);
    }
    try {
        load(layer, path);
        ADD_FAILURE() << path << " loaded";
    } catch (const CheckError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
    const std::vector<float> after = valuesOf(layer);
    ASSERT_EQ(after.size(), values.size());
    EXPECT_EQ(0, std::memcmp(after.data(), values.data(),
                             values.size() * sizeof(float)));
    const std::vector<QuantTensor *> qts = layer.quantTensors();
    for (std::size_t i = 0; i < qts.size(); ++i) {
        EXPECT_EQ(qts[i]->q, codes[i]) << "quantized tensor " << i;
        EXPECT_EQ(qts[i]->scales, scales[i]) << "quantized tensor " << i;
    }
}

TEST(Serialize, NonFiniteValuesAreCorruption)
{
    // The savers write whatever the model holds, so each file below
    // carries its one bad value behind valid checksums.
    const std::string dir = ::testing::TempDir();
    const float nan = std::numeric_limits<float>::quiet_NaN();

    const std::string state_path = dir + "/leca_nan_state.bin";
    {
        const auto net = tinyNet(7);
        net->params()[0]->value[5] = nan;
        saveLayerState(*net, state_path);
        const auto fresh = tinyNet(99);
        expectCorruptionRefused(*fresh, state_path, loadLayerState);
    }
    {
        BatchNorm2d bn(4);
        bn.state()[1]->data()[2] = std::numeric_limits<float>::infinity();
        saveLayerState(bn, state_path);
        BatchNorm2d fresh(4);
        expectCorruptionRefused(fresh, state_path, loadLayerState);
    }

    const std::string quant_path = dir + "/leca_nan_quant.bin";
    for (const float bad_scale : {nan, -1.0f}) {
        const auto net = tinyNet(7);
        std::vector<QuantStat> stats;
        net->quantizeWeights(stats);
        net->quantTensors()[1]->scales[0] = bad_scale;
        saveQuantizedState(*net, quant_path);
        const auto fresh = tinyNet(99);
        expectCorruptionRefused(*fresh, quant_path, loadQuantizedState);
    }
    std::remove(state_path.c_str());
    std::remove(quant_path.c_str());
}

TEST(Serialize, CheckpointsAndByteStreamsStayApart)
{
    // Both are LcBs containers; the kind word keeps each reader to its
    // own format.
    const std::string path = ::testing::TempDir() + "/leca_kinds.bin";
    const auto net = tinyNet(7);
    saveLayerState(*net, path);
    const std::vector<std::uint8_t> checkpoint = fileBytes(path);
    EXPECT_THROW(
        bitstream::decodeByteStream(checkpoint.data(), checkpoint.size()),
        CheckError);

    std::vector<std::uint8_t> codes(300);
    for (std::size_t i = 0; i < codes.size(); ++i)
        codes[i] = static_cast<std::uint8_t>(i % 7);
    const std::vector<std::uint8_t> stream =
        bitstream::encodeByteStream(codes.data(), codes.size(), 0);
    {
        std::ofstream f(path, std::ios::binary);
        f.write(reinterpret_cast<const char *>(stream.data()),
                static_cast<std::streamsize>(stream.size()));
    }
    expectCorruptionRefused(*net, path, loadLayerState);
    expectCorruptionRefused(*net, path, loadQuantizedState);
    std::remove(path.c_str());
}

TEST(Serialize, RetiredLeCAFormatReturnsFalse)
{
    // The format before LcBs framing: u32 'LeCA' | u32 version 2 |
    // u32 kind 2 | u32 count | count x (u64 numel, numel x f32) | u64
    // FNV-1a of every byte after the magic word. Its unversioned
    // predecessor opened with 'LeCA' + 1.
    const std::string path = ::testing::TempDir() + "/leca_retired.bin";
    const auto net = tinyNet(7);
    for (const std::uint32_t magic : {0x4C654341u, 0x4C654342u}) {
        std::vector<char> bytes;
        const auto put = [&bytes](const void *p, std::size_t n) {
            const char *c = static_cast<const char *>(p);
            bytes.insert(bytes.end(), c, c + n);
        };
        const std::uint32_t head[] = {
            magic, 2, 2, static_cast<std::uint32_t>(net->params().size())};
        put(head, sizeof(head));
        for (Param *p : net->params()) {
            const std::uint64_t numel = p->value.numel();
            put(&numel, sizeof(numel));
            put(p->value.data(), numel * sizeof(float));
        }
        Fnv1a hash;
        hash.update(bytes.data() + 4, bytes.size() - 4);
        const std::uint64_t digest = hash.digest();
        put(&digest, sizeof(digest));
        {
            std::ofstream f(path, std::ios::binary);
            f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        }
        const auto fresh = tinyNet(99);
        const std::vector<float> before = valuesOf(*fresh);
        EXPECT_FALSE(loadLayerState(*fresh, path));
        EXPECT_FALSE(loadQuantizedState(*fresh, path));
        EXPECT_EQ(valuesOf(*fresh), before);
    }
    std::remove(path.c_str());
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

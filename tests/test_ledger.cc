/**
 * @file
 * The numeric ledger: one FNV-1a digest (util/fnv1a.hh) per golden
 * family of the Full 48x48 pipeline at fixed seeds. A change that moves
 * a family's bits fails here and must update its digest, naming the
 * move and its cause in CHANGES.md; a change that should not move any
 * number shows that none did.
 *
 * Families:
 *   adam_soft / adam_hard / adam_noisy — every parameter, every
 *     batch-norm running statistic and the loss after each of three
 *     consecutive Adam steps (soft, then hard, then noisy) at batch 8;
 *   eval_fp32_b1 / eval_fp32_b8 — logits of an fp32 Eval forward of
 *     the first image alone and of the whole batch;
 *   eval_int8_b8 — logits of the quantize()d pipeline's Eval forward;
 *   wire — every frame's bytes from the serve wire encoder of the
 *     quantized pipeline;
 *   ckpt_fp32 / ckpt_int8 — the bytes LecaPipeline::save writes, and
 *     those saveQuantized writes after quantize(); they pin the order
 *     of params(), state() and quantTensors() over the layer tree;
 *   <method>_process / <method>_wire — for each compression baseline
 *     (cnv, sd, lr, dct, ms, cs, jpeg, agt, learned), its process()
 *     reconstruction of the ledger frames and its wireSymbols() stream
 *     (symbols, rawBits, predStride) of the same frames.
 *
 * The weights and frames are drawn uniformly, with integer arithmetic
 * and correctly rounded IEEE operations only, not through kaimingInit's
 * or SyntheticVision's libm calls. Only the Adam families still reach
 * libm's exp, log, pow, sin and cos (softmax, the loss, Adam's bias
 * correction, the noisy draws), whose last bits may differ between C
 * library versions, and so do the dct, cs, jpeg and learned baselines
 * (Dct8's cos, kaimingInit, Adam): they skip on a glibc other than
 * kLedgerGlibc. Every other family asserts on every host, ISA, thread
 * count and build type.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "compression/agt.hh"
#include "compression/compressive_sensing.hh"
#include "compression/jpeg.hh"
#include "compression/learned_codec.hh"
#include "compression/microshift.hh"
#include "compression/simple_methods.hh"
#include "compression/zonal_dct.hh"
#include "core/pipeline.hh"
#include "data/backbone.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "serve/server.hh"
#include "util/fnv1a.hh"
#include "util/rng.hh"

namespace leca {
namespace {

/** The C library the libm-dependent digests were recorded with. */
constexpr const char *kLedgerGlibc = "2.36";

constexpr int kHw = 48;
constexpr int kBatch = 8;
constexpr int kClasses = 8;

struct Family
{
    const char *name;
    std::uint64_t digest;
};

const Family kLedger[] = {
    {"adam_soft", 0x6ba1b45f3184ecceULL},
    {"adam_hard", 0x46f367cc2349bd9cULL},
    {"adam_noisy", 0x2f73dd4ef3a6a657ULL},
    {"eval_fp32_b1", 0x8a666f11cdf8fbc4ULL},
    {"eval_fp32_b8", 0xaa5ada09bf5f8631ULL},
    {"eval_int8_b8", 0x74b3f5b8c5149e7aULL},
    {"wire", 0xc1e5747aa3492158ULL},
    {"ckpt_fp32", 0x61541c85748d59feULL},
    {"ckpt_int8", 0x8d2477a8e9597cedULL},
    {"cnv_process", 0x82a37dd6df3b1fb3ULL},
    {"cnv_wire", 0x0a8317b5c081f97aULL},
    {"sd_process", 0x79f0f1b8cac810f4ULL},
    {"sd_wire", 0x5fd5c1a1d4ed2e73ULL},
    {"lr_process", 0xacea8320f73826c9ULL},
    {"lr_wire", 0x47ca6a12fb836d4eULL},
    {"ms_process", 0x0c7352b217f21324ULL},
    {"ms_wire", 0x3eebd222199d5724ULL},
    {"agt_process", 0x93200b66640b46d1ULL},
    {"agt_wire", 0x41a375139f567118ULL},
    {"dct_process", 0x01520d9e9cf6cc34ULL},
    {"dct_wire", 0x84f3d6dc55cad9ecULL},
    {"cs_process", 0xf73507a96dc8ca53ULL},
    {"cs_wire", 0x61aa841c99a5fcd5ULL},
    {"jpeg_process", 0x44a675924a5c2262ULL},
    {"jpeg_wire", 0xb40b5db9f6f700c2ULL},
    {"learned_process", 0x3adcf14194e24a9aULL},
    {"learned_wire", 0xb9ddf421ffbee779ULL},
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

/** Assert that @p actual is the ledger's digest for @p family. */
void
expectFamily(const char *family, std::uint64_t actual)
{
    for (const Family &f : kLedger)
        if (std::strcmp(f.name, family) == 0) {
            EXPECT_EQ(hex(actual), hex(f.digest))
                << "golden family " << family << " moved";
            return;
        }
    ADD_FAILURE() << "no ledger entry for " << family;
}

/** Skip the calling test unless the host C library is kLedgerGlibc. */
bool
libmMatches(std::string &why)
{
#if defined(__GLIBC__)
    const char *host = gnu_get_libc_version();
    if (std::strcmp(host, kLedgerGlibc) == 0)
        return true;
    why = std::string("glibc ") + host + " (ledger recorded with "
          + kLedgerGlibc + ")";
#else
    why = "not a glibc host";
#endif
    return false;
}

void
absorb(Fnv1a &h, const Tensor &t)
{
    h.update(t.data(), t.numel() * sizeof(float));
}

std::uint64_t
digestOf(const Tensor &t)
{
    Fnv1a h;
    absorb(h, t);
    return h.digest();
}

/**
 * The train_analog model: Full backbone (stream 3), nch 8, 3-bit codes,
 * three DnCNN layers and a 64-filter head (encoder/decoder seed 21).
 * Every weight tensor is then redrawn from U(-a, a) with
 * a = sqrt(6 / fan_in) — Kaiming's variance without the normal draws.
 */
std::unique_ptr<LecaPipeline>
makeLedgerPipeline()
{
    LecaConfig cfg;
    cfg.nch = 8;
    cfg.qbits = QBits(3.0);
    cfg.decoderDncnnLayers = 3;
    cfg.decoderFilters = 64;
    LecaPipeline::Options options;
    options.leca = cfg;
    options.seed = 21;
    Rng backbone_rng(3);
    auto pipeline = std::make_unique<LecaPipeline>(
        options, makeBackbone(BackboneStyle::Full, 3, kClasses,
                              backbone_rng));
    Rng rng(41);
    for (Param *p : pipeline->allParams()) {
        if (p->value.dim() < 2)
            continue;
        const double fan_in = static_cast<double>(p->value.numel())
                              / static_cast<double>(p->value.size(0));
        const double a = std::sqrt(6.0 / fan_in);
        for (std::size_t i = 0; i < p->value.numel(); ++i)
            p->value[i] = static_cast<float>(rng.uniform(-a, a));
    }
    return pipeline;
}

/** kBatch uniform [0, 1) frames of 3 x kHw x kHw. */
Tensor
ledgerFrames()
{
    Tensor images({kBatch, 3, kHw, kHw});
    Rng rng(7);
    for (std::size_t i = 0; i < images.numel(); ++i)
        images[i] = static_cast<float>(rng.uniform());
    return images;
}

TEST(Ledger, AdamStepsSoftHardNoisy)
{
    std::string why;
    if (!libmMatches(why))
        GTEST_SKIP() << "libm-dependent families skipped: " << why;
    auto pipeline = makeLedgerPipeline();
    Adam adam(pipeline->allParams(), 1e-3);
    SoftmaxCrossEntropy loss;
    const Tensor images = ledgerFrames();
    std::vector<int> labels(kBatch);
    Rng rng(11);
    for (int &l : labels)
        l = rng.uniformInt(0, kClasses - 1);

    const struct
    {
        EncoderModality modality;
        const char *family;
    } steps[] = {{EncoderModality::Soft, "adam_soft"},
                 {EncoderModality::Hard, "adam_hard"},
                 {EncoderModality::Noisy, "adam_noisy"}};
    for (const auto &step : steps) {
        pipeline->setModality(step.modality);
        adam.zeroGrad();
        const double l = loss.forward(pipeline->forward(images, Mode::Train),
                                      labels);
        pipeline->backward(loss.backward());
        adam.step();
        ASSERT_TRUE(std::isfinite(l)) << step.family;
        Fnv1a h;
        for (Param *p : pipeline->allParams())
            absorb(h, p->value);
        for (Tensor *t : pipeline->decoder().state())
            absorb(h, *t);
        for (Tensor *t : pipeline->backbone().state())
            absorb(h, *t);
        h.update(&l, sizeof(l));
        expectFamily(step.family, h.digest());
    }
}

TEST(Ledger, Fp32EvalForward)
{
    auto pipeline = makeLedgerPipeline();
    const Tensor images = ledgerFrames();
    const Tensor first = Tensor::borrow({1, 3, kHw, kHw}, images.data());
    expectFamily("eval_fp32_b1",
                 digestOf(pipeline->forward(first, Mode::Eval)));
    expectFamily("eval_fp32_b8",
                 digestOf(pipeline->forward(images, Mode::Eval)));
}

TEST(Ledger, QuantizedForwardAndWireBytes)
{
    auto pipeline = makeLedgerPipeline();
    pipeline->quantize();
    const Tensor images = ledgerFrames();
    expectFamily("eval_int8_b8",
                 digestOf(pipeline->forward(images, Mode::Eval)));

    const serve::Server::WireEncoder wire =
        serve::pipelineWireEncoder(*pipeline);
    const std::size_t frame = 3u * kHw * kHw;
    Fnv1a h;
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < kBatch; ++i) {
        wire(Tensor::borrow({3, kHw, kHw}, images.data() + i * frame),
             bytes);
        const std::uint64_t size = bytes.size();
        h.update(&size, sizeof(size));
        h.update(bytes.data(), bytes.size());
    }
    expectFamily("wire", h.digest());
}

/** The digest of the file at @p path. */
std::uint64_t
digestOfFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    const std::vector<char> bytes{std::istreambuf_iterator<char>(is),
                                  std::istreambuf_iterator<char>()};
    EXPECT_FALSE(bytes.empty()) << path;
    Fnv1a h;
    h.update(bytes.data(), bytes.size());
    return h.digest();
}

TEST(Ledger, CheckpointBytes)
{
    auto pipeline = makeLedgerPipeline();
    const std::string path = ::testing::TempDir() + "/leca_ledger.ckpt";
    pipeline->save(path);
    expectFamily("ckpt_fp32", digestOfFile(path));
    pipeline->quantize();
    pipeline->saveQuantized(path);
    expectFamily("ckpt_int8", digestOfFile(path));
    std::remove(path.c_str());
}

/** Assert @p method's <key>_process and <key>_wire families. */
void
expectBaseline(const std::string &key, CompressionMethod &method,
               const Tensor &images)
{
    expectFamily((key + "_process").c_str(),
                 digestOf(method.process(images)));
    const WireStream ws = method.wireSymbols(images);
    Fnv1a h;
    h.update(ws.symbols.data(), ws.symbols.size());
    h.update(&ws.rawBits, sizeof(ws.rawBits));
    h.update(&ws.predStride, sizeof(ws.predStride));
    expectFamily((key + "_wire").c_str(), h.digest());
}

TEST(Ledger, CompressionBaselines)
{
    const Tensor images = ledgerFrames();
    ConventionalSensor cnv;
    expectBaseline("cnv", cnv, images);
    SpatialDownsample sd(2, 2);
    expectBaseline("sd", sd, images);
    LowResQuantizer lr{QBits(2.0)};
    expectBaseline("lr", lr, images);
    Microshift ms(2);
    expectBaseline("ms", ms, images);
    // Uniform frames change by 1/3 per pixel on average, so a threshold
    // of 1 keeps about every third sample of a row.
    AccumGradientThreshold agt(1.0f);
    expectBaseline("agt", agt, images);
}

TEST(Ledger, CompressionBaselinesOnLibm)
{
    std::string why;
    if (!libmMatches(why))
        GTEST_SKIP() << "libm-dependent families skipped: " << why;
    const Tensor images = ledgerFrames();
    ZonalDct dct(16);
    expectBaseline("dct", dct, images);
    CompressiveSensing cs(4, 42, 20);
    expectBaseline("cs", cs, images);
    JpegCodec jpeg(50);
    expectBaseline("jpeg", jpeg, images);
    LearnedCodec learned(12);
    Dataset data;
    data.images = images;
    data.labels.assign(kBatch, 0);
    learned.train(data, 1, 2e-3, kBatch);
    expectBaseline("learned", learned, images);
}

} // namespace
} // namespace leca

/**
 * @file
 * Training-path executor tests: the double-buffered BatchPipeline
 * (prefetch on/off bit-identity at several thread counts), the
 * recompute-based conv/conv-transpose backward passes against retained
 * naive references, the arena zero-allocation guarantee on warm train
 * steps (backbone alone and the whole LeCA pipeline in every encoder
 * modality), the batch-norm statistics refresh, and the borrowed-slab
 * evaluation path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/pipeline.hh"
#include "data/augment.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"
#include "nn/conv.hh"
#include "nn/conv_transpose.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "tensor/kernels.hh"
#include "util/alloc_guard.hh"
#include "util/arena.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace leca {
namespace {

/** Restores the ambient thread count after each test. */
class TrainLoopTest : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }

  private:
    int _saved = 1;
};

Tensor
randomTensor(std::vector<int> shape, std::uint64_t seed)
{
    Tensor t(std::move(shape));
    Rng rng(seed);
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

Dataset
makeDataset(int count, int resolution, int classes, std::uint64_t salt)
{
    SyntheticVision::Config cfg;
    cfg.resolution = resolution;
    cfg.numClasses = classes;
    cfg.seed = 42;
    return SyntheticVision(cfg).generate(count, salt);
}

// ---------------------------------------------------------------------
// BatchPipeline
// ---------------------------------------------------------------------

TEST_F(TrainLoopTest, PipelineMatchesGatherBatch)
{
    const Dataset ds = makeDataset(37, 8, 3, 1);
    std::vector<int> order(static_cast<std::size_t>(ds.count()));
    std::iota(order.begin(), order.end(), 0);
    Rng shuffle(5);
    for (int i = ds.count() - 1; i > 0; --i)
        std::swap(order[static_cast<std::size_t>(i)],
                  order[static_cast<std::size_t>(shuffle.uniformInt(0, i))]);

    for (const bool prefetch : {false, true}) {
        BatchPipeline batches(ds, order, 16, prefetch);
        ASSERT_EQ(batches.batchCount(), 3);
        for (int b = 0; b < batches.batchCount(); ++b) {
            const int begin = b * 16;
            const int count = std::min(16, ds.count() - begin);
            const Dataset expect = gatherBatch(ds, order, begin, count);
            const Dataset &got = batches.batch(b);
            ASSERT_EQ(got.images.shape(), expect.images.shape());
            ASSERT_EQ(got.labels, expect.labels);
            for (std::size_t i = 0; i < expect.images.numel(); ++i)
                ASSERT_EQ(got.images[i], expect.images[i]);
        }
    }
}

TEST_F(TrainLoopTest, PipelineAugmentationMatchesSequentialDraws)
{
    const Dataset ds = makeDataset(24, 8, 2, 2);
    std::vector<int> order(static_cast<std::size_t>(ds.count()));
    std::iota(order.begin(), order.end(), 0);
    const int batch_size = 10;

    // The sequential reference: gather each batch and augment it with
    // a per-batch split off one parent stream, exactly as the old
    // training loop did.
    Rng parent_a(77);
    std::vector<Dataset> expect;
    for (int begin = 0; begin < ds.count(); begin += batch_size) {
        const int count = std::min(batch_size, ds.count() - begin);
        Dataset batch = gatherBatch(ds, order, begin, count);
        augmentBatch(batch.images, parent_a);
        expect.push_back(std::move(batch));
    }

    // The pipeline path: all batch streams pre-split up front.
    Rng parent_b(77);
    std::vector<std::vector<Rng>> batch_rngs;
    for (int begin = 0; begin < ds.count(); begin += batch_size) {
        const int count = std::min(batch_size, ds.count() - begin);
        batch_rngs.push_back(
            Rng::split(parent_b, static_cast<std::size_t>(count)));
    }
    for (const bool prefetch : {false, true}) {
        auto rngs = batch_rngs; // streams are consumed; keep a copy
        BatchPipeline batches(ds, order, batch_size, prefetch,
                              std::move(rngs));
        for (int b = 0; b < batches.batchCount(); ++b) {
            const Dataset &got = batches.batch(b);
            const Dataset &want = expect[static_cast<std::size_t>(b)];
            ASSERT_EQ(got.labels, want.labels);
            for (std::size_t i = 0; i < want.images.numel(); ++i)
                ASSERT_EQ(got.images[i], want.images[i])
                    << "batch " << b << " prefetch " << prefetch;
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end bit-identity: prefetch on/off at several thread counts
// ---------------------------------------------------------------------

struct TrainResult
{
    std::vector<double> losses;
    double accuracy = 0.0;
    std::vector<std::vector<float>> params;
};

TrainResult
trainOnce(const Dataset &train, const Dataset &val, bool prefetch,
          int threads)
{
    setThreadCount(threads);
    Rng init(9);
    auto net = makeBackbone(BackboneStyle::Proxy, 3, 3, init);
    TrainResult result;
    TrainOptions options;
    options.epochs = 2;
    options.batchSize = 16;
    options.learningRate = 1e-3;
    options.augment = true;
    options.prefetch = prefetch;
    options.seed = 31;
    options.epochLosses = &result.losses;
    result.accuracy = trainClassifier(*net, train, val, options);
    for (Param *p : net->params())
        result.params.emplace_back(p->value.data(),
                                   p->value.data() + p->value.numel());
    return result;
}

TEST_F(TrainLoopTest, PrefetchBitIdenticalAcrossThreadCounts)
{
    const Dataset train = makeDataset(48, 16, 3, 3);
    const Dataset val = makeDataset(24, 16, 3, 4);

    const TrainResult base = trainOnce(train, val, /*prefetch=*/false,
                                       /*threads=*/1);
    ASSERT_EQ(base.losses.size(), 2u);

    struct Config
    {
        bool prefetch;
        int threads;
    };
    const Config configs[] = {
        {true, 1}, {true, 2}, {true, 4}, {true, 8}, {false, 4}};
    for (const Config &config : configs) {
        const TrainResult got =
            trainOnce(train, val, config.prefetch, config.threads);
        SCOPED_TRACE(::testing::Message()
                     << "prefetch=" << config.prefetch
                     << " threads=" << config.threads);
        ASSERT_EQ(got.losses.size(), base.losses.size());
        for (std::size_t e = 0; e < base.losses.size(); ++e)
            ASSERT_EQ(got.losses[e], base.losses[e]);
        ASSERT_EQ(got.accuracy, base.accuracy);
        ASSERT_EQ(got.params.size(), base.params.size());
        for (std::size_t p = 0; p < base.params.size(); ++p)
            ASSERT_EQ(got.params[p], base.params[p]) << "param " << p;
    }
}

// ---------------------------------------------------------------------
// Recompute-based conv backward vs a retained naive reference
// ---------------------------------------------------------------------

TEST_F(TrainLoopTest, Conv2dBackwardMatchesReference)
{
    setThreadCount(4);
    struct Shape
    {
        int n, cin, h, w, cout, k, stride, pad;
        bool bias;
    };
    std::vector<Shape> shapes = {
        {2, 3, 7, 5, 4, 3, 2, 1, true},
        {1, 2, 6, 6, 3, 2, 2, 0, false},
        {3, 1, 5, 5, 2, 3, 1, 2, true},
        {2, 4, 4, 4, 5, 4, 4, 0, true}, // encoder-like: stride == k
    };
    // The train_analog geometry, each at n = 1 and n = 3.
    const Shape analog[] = {
        {0, 64, 48, 48, 3, 3, 1, 1, true},     // decoder head
        {0, 3, 48, 48, 64, 3, 1, 1, false},    // decoder 3 -> 64
        {0, 32, 48, 48, 64, 3, 2, 1, false},   // res2.conv1
        {0, 64, 24, 24, 64, 3, 1, 1, false},   // panels straddle rows
        {0, 128, 12, 12, 128, 3, 2, 1, false}, // res5.conv1
        {0, 32, 48, 48, 64, 1, 2, 0, false},   // 1x1 stride-2 projection
        {0, 3, 48, 48, 8, 2, 2, 0, false},     // encoder: k = stride = 2
    };
    for (Shape s : analog)
        for (int n : {1, 3}) {
            s.n = n;
            shapes.push_back(s);
        }
    for (const Shape &s : shapes) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << s.n << " cin=" << s.cin << " h=" << s.h
                     << " w=" << s.w << " cout=" << s.cout << " k=" << s.k
                     << " stride=" << s.stride << " pad=" << s.pad
                     << " bias=" << s.bias);
        Rng rng(17);
        Conv2d conv(s.cin, s.cout, s.k, s.stride, s.pad, s.bias, rng);
        const Tensor x = randomTensor({s.n, s.cin, s.h, s.w}, 23);
        const Tensor y = conv.forward(x, Mode::Train);
        const int oh = y.size(2), ow = y.size(3);
        const Tensor dy = randomTensor({s.n, s.cout, oh, ow}, 29);

        // Naive reference: materialised im2col + gemmReference per
        // image, explicit serial bias row-sum, ascending-image fold.
        const int kdim = s.cin * s.k * s.k;
        const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
        const std::size_t in_sz =
            static_cast<std::size_t>(s.cin) * s.h * s.w;
        const Tensor wmat = conv.weight().value.reshape({s.cout, kdim});
        std::vector<float> want_dw(
            static_cast<std::size_t>(s.cout) * kdim, 0.0f);
        std::vector<float> want_db(static_cast<std::size_t>(s.cout), 0.0f);
        std::vector<float> want_dx(static_cast<std::size_t>(s.n) * in_sz,
                                   0.0f);
        std::vector<float> cols(static_cast<std::size_t>(kdim) * ohow);
        std::vector<float> dwi(static_cast<std::size_t>(s.cout) * kdim);
        std::vector<float> dcols(cols.size());
        for (int i = 0; i < s.n; ++i) {
            const float *dyp =
                dy.data() + static_cast<std::size_t>(i) * s.cout * ohow;
            im2colRaw(x.data() + static_cast<std::size_t>(i) * in_sz,
                      s.cin, s.h, s.w, s.k, s.k, s.stride, s.pad,
                      cols.data());
            gemmReference(s.cout, kdim, ohow, dyp, ohow, false,
                          cols.data(), ohow, true, dwi.data(), kdim,
                          false);
            for (std::size_t e = 0; e < want_dw.size(); ++e)
                want_dw[e] += dwi[e];
            if (s.bias)
                for (int co = 0; co < s.cout; ++co) {
                    float acc = 0.0f;
                    for (std::int64_t p = 0; p < ohow; ++p)
                        acc += dyp[co * ohow + p];
                    want_db[static_cast<std::size_t>(co)] += acc;
                }
            gemmReference(kdim, ohow, s.cout, wmat.data(), kdim, true,
                          dyp, ohow, false, dcols.data(), ohow, false);
            col2imRaw(dcols.data(), s.cin, s.h, s.w, s.k, s.k, s.stride,
                      s.pad,
                      want_dx.data() + static_cast<std::size_t>(i) * in_sz);
        }

        const Tensor dx = conv.backward(dy);
        ASSERT_EQ(dx.numel(), want_dx.size());
        EXPECT_EQ(0, std::memcmp(dx.data(), want_dx.data(),
                                 want_dx.size() * sizeof(float)));
        const Tensor &dw = conv.weight().grad;
        ASSERT_EQ(dw.numel(), want_dw.size());
        EXPECT_EQ(0, std::memcmp(dw.data(), want_dw.data(),
                                 want_dw.size() * sizeof(float)));
        if (s.bias) {
            EXPECT_EQ(0, std::memcmp(conv.bias().grad.data(), want_db.data(),
                                     want_db.size() * sizeof(float)));
        }
    }
}

TEST_F(TrainLoopTest, ConvTranspose2dBackwardMatchesReference)
{
    setThreadCount(4);
    struct Shape
    {
        int n, cin, h, w, cout, k, stride;
        bool bias;
    };
    const Shape shapes[] = {
        {2, 3, 4, 5, 2, 3, 2, true},
        {1, 2, 6, 6, 4, 2, 1, false},
        {3, 4, 3, 3, 3, 4, 4, true}, // decoder-like: stride == k
    };
    for (const Shape &s : shapes) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << s.n << " cin=" << s.cin << " h=" << s.h
                     << " w=" << s.w << " cout=" << s.cout << " k=" << s.k
                     << " stride=" << s.stride << " bias=" << s.bias);
        Rng rng(19);
        ConvTranspose2d deconv(s.cin, s.cout, s.k, s.stride, s.bias, rng);
        const Tensor x = randomTensor({s.n, s.cin, s.h, s.w}, 37);
        const Tensor y = deconv.forward(x, Mode::Train);
        const int oh = y.size(2), ow = y.size(3);
        const Tensor dy = randomTensor({s.n, s.cout, oh, ow}, 41);

        const int krows = s.cout * s.k * s.k;
        const std::int64_t hw = static_cast<std::int64_t>(s.h) * s.w;
        const std::int64_t go_sz =
            static_cast<std::int64_t>(s.cout) * oh * ow;
        const std::size_t wsz = static_cast<std::size_t>(s.cin) * krows;
        const Tensor wmat = deconv.weight().value.reshape({s.cin, krows});
        std::vector<float> want_dw(wsz, 0.0f);
        std::vector<float> want_db(static_cast<std::size_t>(s.cout), 0.0f);
        std::vector<float> want_dx(
            static_cast<std::size_t>(s.n) * s.cin * hw, 0.0f);
        std::vector<float> dcols(static_cast<std::size_t>(krows) * hw);
        std::vector<float> dwi(wsz);
        for (int i = 0; i < s.n; ++i) {
            const float *dyp =
                dy.data() + static_cast<std::size_t>(i) * go_sz;
            im2colRaw(dyp, s.cout, oh, ow, s.k, s.k, s.stride, 0,
                      dcols.data());
            gemmReference(s.cin, hw, krows, wmat.data(), krows, false,
                          dcols.data(), hw, false,
                          want_dx.data()
                              + static_cast<std::size_t>(i) * s.cin * hw,
                          hw, false);
            const float *xm =
                x.data() + static_cast<std::size_t>(i) * s.cin * hw;
            gemmReference(s.cin, krows, hw, xm, hw, false, dcols.data(),
                          hw, true, dwi.data(), krows, false);
            for (std::size_t e = 0; e < wsz; ++e)
                want_dw[e] += dwi[e];
            if (s.bias)
                for (int co = 0; co < s.cout; ++co) {
                    float acc = 0.0f;
                    for (std::int64_t p = 0;
                         p < static_cast<std::int64_t>(oh) * ow; ++p)
                        acc += dyp[co * static_cast<std::int64_t>(oh) * ow
                                   + p];
                    want_db[static_cast<std::size_t>(co)] += acc;
                }
        }

        const Tensor dx = deconv.backward(dy);
        ASSERT_EQ(dx.numel(), want_dx.size());
        for (std::size_t i = 0; i < want_dx.size(); ++i)
            ASSERT_EQ(dx[i], want_dx[i]) << "dx[" << i << "]";
        const Tensor &dw = deconv.weight().grad;
        ASSERT_EQ(dw.numel(), want_dw.size());
        for (std::size_t i = 0; i < want_dw.size(); ++i)
            ASSERT_EQ(dw[i], want_dw[i]) << "dw[" << i << "]";
        if (s.bias) {
            std::vector<Param *> params = deconv.params();
            ASSERT_EQ(params.size(), 2u);
            const Tensor &db = params[1]->grad;
            for (int co = 0; co < s.cout; ++co)
                ASSERT_EQ(db[static_cast<std::size_t>(co)],
                          want_db[static_cast<std::size_t>(co)])
                    << "db[" << co << "]";
        }
    }
}

// ---------------------------------------------------------------------
// Allocation-free warm train step
// ---------------------------------------------------------------------

TEST_F(TrainLoopTest, WarmTrainStepAllocatesNoArenaBlocks)
{
    setThreadCount(2);
    Rng init(3);
    auto net = makeBackbone(BackboneStyle::Proxy, 3, 3, init);
    Adam adam(net->params(), 1e-3);
    SoftmaxCrossEntropy loss;
    const Tensor x = randomTensor({8, 3, 16, 16}, 47);
    const std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1};

    const auto step = [&] {
        adam.zeroGrad();
        const Tensor logits = net->forward(x, Mode::Train);
        loss.forward(logits, labels);
        net->backward(loss.backward());
        adam.step();
    };
    // Warm-up: every thread's arena grows to its high-water mark.
    for (int i = 0; i < 3; ++i)
        step();
    // Chunks are claimed dynamically, so a pool worker may have slept
    // through the warm-up with a cold arena; grow it deterministically.
    warmPoolArenas();
    const std::uint64_t before = Arena::totalBlockAllocs();
    for (int i = 0; i < 3; ++i)
        step();
    EXPECT_EQ(Arena::totalBlockAllocs(), before)
        << "warm train steps must not grow any thread's arena";
}

TEST_F(TrainLoopTest, WarmTrainStepRunsUnderDenyAllocScope)
{
    // The full-strength version of the arena check above: with the
    // counting operator-new hooks compiled in, a warm train step —
    // forward, loss, backward, optimizer — performs zero heap
    // allocations. Tensor buffers recycle through the per-thread pool,
    // kernel scratch lives on the arena, and the parallel loops hand
    // out FunctionRef (not std::function) task bodies.
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    setThreadCount(2);
    Rng init(3);
    auto net = makeBackbone(BackboneStyle::Proxy, 3, 3, init);
    Adam adam(net->params(), 1e-3);
    SoftmaxCrossEntropy loss;
    const Tensor x = randomTensor({8, 3, 16, 16}, 47);
    const std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1};

    const auto step = [&] {
        adam.zeroGrad();
        const Tensor logits = net->forward(x, Mode::Train);
        loss.forward(logits, labels);
        net->backward(loss.backward());
        adam.step();
    };
    // Warm-up: arenas reach high-water, tensor pools fill, metric and
    // cache vectors reach steady capacity.
    for (int i = 0; i < 3; ++i)
        step();
    // Chunks are claimed dynamically, so a pool worker may have slept
    // through the warm-up with a cold arena; grow it deterministically.
    warmPoolArenas();
    DenyAllocScope deny;
    for (int i = 0; i < 3; ++i)
        step();
    EXPECT_EQ(deny.violations(), 0u)
        << "warm train step allocated on the heap";
}

TEST_F(TrainLoopTest, WarmPipelineStepRunsUnderDenyAllocScope)
{
    // The same contract for a whole LeCA train step against a frozen
    // backbone, in every encoder modality: the hard/noisy circuit model
    // keeps its per-call tables and per-image noise streams in arena
    // scratch, the pixel-noise model likewise.
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    setThreadCount(2);
    Rng init(3);
    LecaPipeline::Options options;
    options.leca.nch = 4;
    options.leca.decoderDncnnLayers = 1;
    options.leca.decoderFilters = 8;
    LecaPipeline pipe(options, makeBackbone(BackboneStyle::Proxy, 3, 3, init));
    Adam adam(pipe.allParams(), 1e-3);
    SoftmaxCrossEntropy loss;
    Tensor x = randomTensor({8, 3, 16, 16}, 47);
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = 0.5f + 0.4f * x[i];
    const std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1};

    for (EncoderModality m :
         {EncoderModality::Soft, EncoderModality::Hard,
          EncoderModality::Noisy}) {
        pipe.setModality(m);
        const auto step = [&] {
            adam.zeroGrad();
            const Tensor logits = pipe.forward(x, Mode::Train);
            loss.forward(logits, labels);
            pipe.backward(loss.backward());
            adam.step();
        };
        for (int i = 0; i < 3; ++i)
            step();
        warmPoolArenas();
        DenyAllocScope deny;
        for (int i = 0; i < 3; ++i)
            step();
        EXPECT_EQ(deny.violations(), 0u)
            << "warm modality " << static_cast<int>(m)
            << " pipeline step allocated on the heap";
    }
}

// ---------------------------------------------------------------------
// Batch-norm statistics refresh
// ---------------------------------------------------------------------

TEST_F(TrainLoopTest, BatchNormRefreshReachesEveryBatchNorm)
{
    // The decoder head holds one BN; the Proxy backbone holds the
    // stem's, each block's bn1 and bn2, and the two projection BNs.
    setThreadCount(2);
    Rng init(5);
    LecaPipeline::Options options;
    options.leca.nch = 4;
    options.leca.decoderDncnnLayers = 1;
    options.leca.decoderFilters = 8;
    LecaPipeline pipe(options, makeBackbone(BackboneStyle::Proxy, 3, 3, init));
    const std::vector<Tensor *> stats = pipe.state();
    ASSERT_EQ(stats.size(), 2u * 10u) << "a running mean and var per BN";
    const Dataset ds = makeDataset(6, 16, 3, 8);

    refreshBatchNormStats(pipe, ds, ds.count());
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const float initial = i % 2 == 0 ? 0.0f : 1.0f;
        for (std::size_t ch = 0; ch < stats[i]->numel(); ++ch)
            EXPECT_NE((*stats[i])[ch], initial)
                << "BN " << i / 2 << (i % 2 == 0 ? " mean" : " var")
                << " channel " << ch;
    }
    const auto snapshot = [&stats] {
        std::vector<float> out;
        for (const Tensor *t : stats)
            out.insert(out.end(), t->data(), t->data() + t->numel());
        return out;
    };
    // A one-batch refresh sets the statistics to that batch's exactly,
    // so a second one repeats them; a BN the refresh missed would fold
    // the batch in with its momentum instead.
    const std::vector<float> first = snapshot();
    refreshBatchNormStats(pipe, ds, ds.count());
    const std::vector<float> second = snapshot();
    EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                             first.size() * sizeof(float)));
}

// ---------------------------------------------------------------------
// Borrowed-slab evaluation path
// ---------------------------------------------------------------------

TEST_F(TrainLoopTest, EvalAccuracyMatchesSlicedReference)
{
    setThreadCount(2);
    const Dataset ds = makeDataset(50, 16, 3, 6);
    Rng init(9);
    auto net = makeBackbone(BackboneStyle::Proxy, 3, 3, init);

    // Reference: deep-copied slices, as the loop used to do.
    int correct = 0;
    const int batch_size = 16;
    for (int begin = 0; begin < ds.count(); begin += batch_size) {
        const int count = std::min(batch_size, ds.count() - begin);
        const Dataset batch = sliceDataset(ds, begin, count);
        const Tensor logits = net->forward(batch.images, Mode::Eval);
        correct += static_cast<int>(
            accuracy(logits, batch.labels) * count + 0.5);
    }
    const double want =
        static_cast<double>(correct) / static_cast<double>(ds.count());
    EXPECT_EQ(evalAccuracy(*net, ds, batch_size), want);
}

} // namespace
} // namespace leca

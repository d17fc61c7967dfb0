#include "trainloop.hh"

#include <algorithm>
#include <numeric>

#include "data/augment.hh"
#include "nn/batchnorm.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "util/check.hh"

namespace leca {

Dataset
sliceDataset(const Dataset &ds, int begin, int count)
{
    LECA_CHECK(begin >= 0 && begin + count <= ds.count(),
                "slice out of range");
    const int c = ds.images.size(1), h = ds.images.size(2);
    const int w = ds.images.size(3);
    const std::size_t img_sz = static_cast<std::size_t>(c) * h * w;
    Dataset out;
    out.images = Tensor::fromData(
        {count, c, h, w},
        std::vector<float>(ds.images.data() + begin * img_sz,
                           ds.images.data() + (begin + count) * img_sz));
    out.labels.assign(ds.labels.begin() + begin,
                      ds.labels.begin() + begin + count);
    return out;
}

// leca-analyze: keep: test reference — what borrowed batch views match
Dataset
gatherBatch(const Dataset &ds, const std::vector<int> &order, int begin,
            int count)
{
    const int c = ds.images.size(1), h = ds.images.size(2);
    const int w = ds.images.size(3);
    const std::size_t img_sz = static_cast<std::size_t>(c) * h * w;
    Dataset batch;
    batch.images = Tensor({count, c, h, w});
    batch.labels.resize(static_cast<std::size_t>(count));
    parallelFor(0, count, 8, [&](std::int64_t i0, std::int64_t i1) {
        for (int i = static_cast<int>(i0); i < i1; ++i) {
            const int src = order[static_cast<std::size_t>(begin + i)];
            std::copy(ds.images.data() + src * img_sz,
                      ds.images.data() + (src + 1) * img_sz,
                      batch.images.data() + i * img_sz);
            batch.labels[static_cast<std::size_t>(i)] =
                ds.labels[static_cast<std::size_t>(src)];
        }
    });
    return batch;
}

BatchPipeline::BatchPipeline(const Dataset &ds,
                             const std::vector<int> &order, int batch_size,
                             bool prefetch,
                             std::vector<std::vector<Rng>> augment_rngs,
                             double max_degrees)
    : _ds(ds), _order(order), _batchSize(batch_size),
      _batchCount((ds.count() + batch_size - 1) / batch_size),
      _prefetch(prefetch), _maxDegrees(max_degrees),
      _rngs(std::move(augment_rngs))
{
    LECA_CHECK(batch_size > 0, "batch size must be positive, got ",
               batch_size);
    LECA_CHECK(order.size() == static_cast<std::size_t>(ds.count()),
               "order has ", order.size(), " entries for ", ds.count(),
               " images");
    LECA_CHECK(_rngs.empty()
                   || _rngs.size() == static_cast<std::size_t>(_batchCount),
               "got ", _rngs.size(), " augment streams for ", _batchCount,
               " batches");
}

void
BatchPipeline::produce(int b, Dataset &slot)
{
    const int begin = b * _batchSize;
    const int count = std::min(_batchSize, _ds.count() - begin);
    const int c = _ds.images.size(1), h = _ds.images.size(2);
    const int w = _ds.images.size(3);
    const std::size_t img_sz = static_cast<std::size_t>(c) * h * w;
    // Reuse the slot's storage when the shape repeats (every batch but
    // possibly the last), so steady-state epochs allocate nothing here.
    if (slot.images.dim() != 4 || slot.images.size(0) != count
        || slot.images.size(1) != c || slot.images.size(2) != h
        || slot.images.size(3) != w)
        slot.images = Tensor({count, c, h, w});
    slot.labels.resize(static_cast<std::size_t>(count));
    parallelFor(0, count, 8, [&](std::int64_t i0, std::int64_t i1) {
        for (int i = static_cast<int>(i0); i < i1; ++i) {
            const int src = _order[static_cast<std::size_t>(begin + i)];
            std::copy(_ds.images.data() + src * img_sz,
                      _ds.images.data() + (src + 1) * img_sz,
                      slot.images.data() + i * img_sz);
            slot.labels[static_cast<std::size_t>(i)] =
                _ds.labels[static_cast<std::size_t>(src)];
        }
    });
    if (!_rngs.empty())
        augmentBatch(slot.images, _rngs[static_cast<std::size_t>(b)],
                     _maxDegrees);
}

const Dataset &
BatchPipeline::batch(int b)
{
    LECA_CHECK(b >= 0 && b < _batchCount, "batch ", b, " out of range [0, ",
               _batchCount, ")");
    Dataset &slot = _slots[b & 1];
    if (!_prefetch) {
        produce(b, slot);
        return slot;
    }
    if (_next == b) {
        // First request: nothing in flight yet, produce synchronously.
        produce(b, slot);
        _next = b + 1;
    } else {
        LECA_CHECK(_next == b + 1,
                   "batches must be consumed in ascending order (expected ",
                   _next - 1, ", got ", b, ")");
        _task.wait(); // batch b was produced in the background
    }
    if (_next < _batchCount) {
        Dataset &ahead = _slots[_next & 1];
        const int nb = _next;
        _task.run([this, nb, &ahead] { produce(nb, ahead); });
        ++_next;
    }
    return slot;
}

double
evalAccuracy(Layer &net, const Dataset &ds, int batch_size)
{
    LECA_CHECK(batch_size > 0, "evalAccuracy batch size ", batch_size);
    const int n = ds.count();
    if (n == 0)
        return 0.0;
    const int c = ds.images.size(1), h = ds.images.size(2);
    const int w = ds.images.size(3);
    const std::size_t img_sz = static_cast<std::size_t>(c) * h * w;
    int correct = 0;
    // Batches stay sequential: layers cache activations in member
    // state, so the parallelism lives inside each forward (GEMM row
    // panels, per-image conv) rather than across batches. Each batch
    // is a borrowed view of the dataset slab — no copy.
    for (int begin = 0; begin < n; begin += batch_size) {
        const int count = std::min(batch_size, n - begin);
        const Tensor batch = Tensor::borrow(
            {count, c, h, w}, ds.images.data() + begin * img_sz);
        const Tensor logits = net.forward(batch, Mode::Eval);
        const std::vector<int> labels(ds.labels.begin() + begin,
                                      ds.labels.begin() + begin + count);
        const double acc = accuracy(logits, labels);
        correct += static_cast<int>(acc * count + 0.5);
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

void
trainEpochs(Layer &net, const Dataset &train, const TrainOptions &options)
{
    Rng rng(options.seed);
    Adam adam(net.params(), options.learningRate);
    SoftmaxCrossEntropy loss;

    std::vector<int> order(static_cast<std::size_t>(train.count()));
    std::iota(order.begin(), order.end(), 0);

    for (int epoch = 0; epoch < options.epochs; ++epoch) {
        if (options.lrDecayEveryEpochs > 0 && epoch > 0 &&
            epoch % options.lrDecayEveryEpochs == 0) {
            adam.setLearningRate(adam.learningRate() * 0.1);
        }
        // Fisher-Yates shuffle.
        for (int i = train.count() - 1; i > 0; --i) {
            const int j = rng.uniformInt(0, i);
            std::swap(order[static_cast<std::size_t>(i)],
                      order[static_cast<std::size_t>(j)]);
        }
        // Pre-split every batch's per-image augmentation streams in
        // batch order: the parent rng advances exactly as it did when
        // each batch split on demand, and a prefetched batch draws the
        // same numbers a sequential run would.
        std::vector<std::vector<Rng>> batch_rngs;
        if (options.augment) {
            for (int begin = 0; begin < train.count();
                 begin += options.batchSize) {
                const int count =
                    std::min(options.batchSize, train.count() - begin);
                batch_rngs.push_back(
                    Rng::split(rng, static_cast<std::size_t>(count)));
            }
        }
        BatchPipeline batches(train, order, options.batchSize,
                              options.prefetch, std::move(batch_rngs));
        double epoch_loss = 0.0;
        const int batch_count = batches.batchCount();
        for (int b = 0; b < batch_count; ++b) {
            const Dataset &batch = batches.batch(b);
            adam.zeroGrad();
            const Tensor logits = net.forward(batch.images, Mode::Train);
            epoch_loss += loss.forward(logits, batch.labels);
            net.backward(loss.backward());
            adam.step();
        }
        if (options.epochLosses)
            options.epochLosses->push_back(epoch_loss
                                           / std::max(1, batch_count));
    }
}

double
trainClassifier(Layer &net, const Dataset &train, const Dataset &val,
                const TrainOptions &options)
{
    trainEpochs(net, train, options);
    refreshBatchNormStats(net, train, options.batchSize);
    return evalAccuracy(net, val);
}

void
refreshBatchNormStats(Layer &net, const Dataset &ds, int batch_size)
{
    LECA_CHECK(batch_size > 0, "refreshBatchNormStats batch size ",
               batch_size);
    const int c = ds.images.size(1), h = ds.images.size(2);
    const int w = ds.images.size(3);
    const std::size_t img_sz = static_cast<std::size_t>(c) * h * w;
    const auto setRefresh = [&net](bool enable) {
        forEachLayer(net, [enable](Layer &layer) {
            if (auto *bn = dynamic_cast<BatchNorm2d *>(&layer))
                bn->setStatsRefresh(enable);
        });
    };
    setRefresh(true);
    for (int begin = 0; begin < ds.count(); begin += batch_size) {
        const int count = std::min(batch_size, ds.count() - begin);
        const Tensor batch = Tensor::borrow(
            {count, c, h, w}, ds.images.data() + begin * img_sz);
        net.forward(batch, Mode::Train);
    }
    setRefresh(false);
}

} // namespace leca

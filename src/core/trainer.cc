#include "trainer.hh"

#include <algorithm>
#include <numeric>

#include "data/trainloop.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "util/logging.hh"

namespace leca {

double
LecaTrainer::runEpochs(const Dataset &train, const Dataset &val, int epochs,
                       const LecaTrainOptions &options)
{
    Rng rng(options.seed);
    Adam adam(_pipeline.allParams(), options.learningRate);
    SoftmaxCrossEntropy loss;

    std::vector<int> order(static_cast<std::size_t>(train.count()));
    std::iota(order.begin(), order.end(), 0);

    for (int epoch = 0; epoch < epochs; ++epoch) {
        if (options.lrDecayEveryEpochs > 0 && epoch > 0 &&
            epoch % options.lrDecayEveryEpochs == 0) {
            adam.setLearningRate(adam.learningRate()
                                 * options.lrDecayFactor);
        }
        for (int i = train.count() - 1; i > 0; --i) {
            const int j = rng.uniformInt(0, i);
            std::swap(order[static_cast<std::size_t>(i)],
                      order[static_cast<std::size_t>(j)]);
        }
        BatchPipeline batches(train, order, options.batchSize,
                              options.prefetch);
        double epoch_loss = 0.0;
        const int batch_count = batches.batchCount();
        for (int b = 0; b < batch_count; ++b) {
            const Dataset &batch = batches.batch(b);
            adam.zeroGrad();
            const Tensor logits =
                _pipeline.forward(batch.images, Mode::Train);
            epoch_loss += loss.forward(logits, batch.labels);
            _pipeline.backward(loss.backward());
            adam.step();
        }
        if (options.verbose) {
            inform("leca epoch ", epoch + 1, "/", epochs, " loss ",
                   epoch_loss / std::max(1, batch_count));
        }
    }
    _pipeline.refreshStats(train, options.batchSize);
    return _pipeline.evalAccuracy(val);
}

double
LecaTrainer::train(const Dataset &train, const Dataset &val,
                   const LecaTrainOptions &options)
{
    if (options.unfreezeBackbone)
        _pipeline.setBackboneFrozen(false);

    const QBits target = _pipeline.encoder().qbits();
    double acc = 0.0;
    if (options.incrementalQbit && target.bits() < 8.0 &&
        options.incrementalEpochs > 0) {
        // Lenient 8-bit pre-training stage (Sec. 3.4).
        _pipeline.encoder().setQbits(QBits(8.0));
        runEpochs(train, val, options.incrementalEpochs, options);
        _pipeline.encoder().setQbits(target);
    }
    acc = runEpochs(train, val, options.epochs, options);

    if (options.unfreezeBackbone)
        _pipeline.setBackboneFrozen(true);
    return acc;
}

double
LecaTrainer::evaluate(const Dataset &ds, EncoderModality modality)
{
    const EncoderModality saved = _pipeline.modality();
    const float saved_scale = _pipeline.encoder().outScale().value[0];
    _pipeline.setModality(modality);
    // Keep the trained scale if we are not crossing the soft/hard
    // boundary; otherwise the reset seeded by setModality applies,
    // which is exactly the paper's naive soft->hard mapping.
    if ((saved == EncoderModality::Hard &&
         modality == EncoderModality::Noisy) ||
        (saved == EncoderModality::Noisy &&
         modality == EncoderModality::Hard)) {
        _pipeline.encoder().outScale().value[0] = saved_scale;
    }
    const double acc = _pipeline.evalAccuracy(ds);
    _pipeline.setModality(saved);
    _pipeline.encoder().outScale().value[0] = saved_scale;
    return acc;
}

} // namespace leca

#include "trainer.hh"

namespace leca {

double
LecaTrainer::train(const Dataset &train, const Dataset &val,
                   const LecaTrainOptions &options)
{
    if (options.unfreezeBackbone)
        _pipeline.setBackboneFrozen(false);

    const QBits target = _pipeline.encoder().qbits();
    if (options.incrementalQbit && target.bits() < 8.0 &&
        options.incrementalEpochs > 0) {
        // Lenient 8-bit pre-training stage (Sec. 3.4). The target
        // stage ends with its own batch-norm refresh, which replaces
        // every running statistic, so this stage needs none.
        TrainOptions lenient = options;
        lenient.epochs = options.incrementalEpochs;
        _pipeline.encoder().setQbits(QBits(8.0));
        trainEpochs(_pipeline, train, lenient);
        _pipeline.encoder().setQbits(target);
    }
    const double acc = trainClassifier(_pipeline, train, val, options);

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
    const double acc = evalAccuracy(_pipeline, ds);
    _pipeline.setModality(saved);
    _pipeline.encoder().outScale().value[0] = saved_scale;
    return acc;
}

} // namespace leca

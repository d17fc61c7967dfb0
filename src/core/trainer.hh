/**
 * @file
 * The LeCA training methodology (Sec. 3.4, Fig. 9):
 *
 *  - joint training of encoder+decoder against cross-entropy with the
 *    backbone frozen (gradients flow through it, weights don't move);
 *  - incremental Q_bit schedule: pre-train at a lenient 8-bit, then
 *    fine-tune at the target Q_bit;
 *  - the soft -> hard -> noisy curriculum: hard training initialises
 *    from soft weights, noisy training fine-tunes the hard model with
 *    the extracted non-ideality model in the loop.
 */

#ifndef LECA_CORE_TRAINER_HH
#define LECA_CORE_TRAINER_HH

#include "core/pipeline.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"

namespace leca {

/**
 * Options of one LeCA training stage: trainClassifier()'s, with LeCA's
 * defaults (8 epochs, seed 7), plus the stage schedule.
 */
struct LecaTrainOptions : TrainOptions
{
    LecaTrainOptions()
    {
        epochs = 8;
        seed = 7;
    }

    bool unfreezeBackbone = false; //!< Sec. 6.4 ablation
    bool incrementalQbit = true;   //!< 8-bit pre-train, then target
    int incrementalEpochs = 3;     //!< epochs of the lenient stage
};

/** Drives training of a LecaPipeline. */
class LecaTrainer
{
  public:
    explicit LecaTrainer(LecaPipeline &pipeline) : _pipeline(pipeline) {}

    /**
     * Train the pipeline in its *current* modality with
     * trainClassifier(); returns final validation accuracy. Applies the
     * incremental-Qbit schedule (a lenient 8-bit stage of trainEpochs()
     * first) when the target Q_bit is below 8 and options request it.
     */
    double train(const Dataset &train, const Dataset &val,
                 const LecaTrainOptions &options);

    /** Evaluate under a given modality (restores the previous one). */
    double evaluate(const Dataset &ds, EncoderModality modality);

  private:
    LecaPipeline &_pipeline;
};

} // namespace leca

#endif // LECA_CORE_TRAINER_HH

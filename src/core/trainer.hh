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

namespace leca {

/** Options of one LeCA training stage. */
struct LecaTrainOptions
{
    int epochs = 8;
    int batchSize = 32;
    double learningRate = 1e-3;
    int lrDecayEveryEpochs = 0;
    double lrDecayFactor = 0.1;
    bool unfreezeBackbone = false; //!< Sec. 6.4 ablation
    bool incrementalQbit = true;   //!< 8-bit pre-train, then target
    int incrementalEpochs = 3;     //!< epochs of the lenient stage
    bool prefetch = true;          //!< overlap batch prep with compute
    bool verbose = false;
    std::uint64_t seed = 7;
};

/** Drives training of a LecaPipeline. */
class LecaTrainer
{
  public:
    explicit LecaTrainer(LecaPipeline &pipeline) : _pipeline(pipeline) {}

    /**
     * Train the pipeline in its *current* modality; returns final
     * validation accuracy. Applies the incremental-Qbit schedule when
     * the target Q_bit is below 8 and options request it.
     */
    double train(const Dataset &train, const Dataset &val,
                 const LecaTrainOptions &options);

    /** Evaluate under a given modality (restores the previous one). */
    double evaluate(const Dataset &ds, EncoderModality modality);

  private:
    LecaPipeline &_pipeline;

    double runEpochs(const Dataset &train, const Dataset &val, int epochs,
                     const LecaTrainOptions &options);
};

} // namespace leca

#endif // LECA_CORE_TRAINER_HH
